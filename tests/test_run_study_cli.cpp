/**
 * @file
 * End-to-end tests of the run_study executable's profile and report
 * files: a failing run still writes its profile (the failed task
 * recorded as such), a single run's task is labelled like a sweep
 * cell, two identical single runs write byte-identical reports, a
 * report, profile or span stream whose write fails is an exit 1, and
 * `--profile` accepts only its documented modes.
 *
 * The binary path comes in via RUN_STUDY_BIN; commands run through
 * std::system with the environment's LP_* knobs cleared and stdout
 * redirected to a scratch file.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.hpp"

namespace {

std::string
scratch(const std::string &name)
{
    return ::testing::TempDir() + name;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Run `run_study <args>` with stdout and stderr discarded; returns
 *  the exit code. */
int
runStudy(const std::string &args)
{
    std::string cmd = "env -u LP_METRICS -u LP_BUDGET_INSTRUCTIONS "
                      "-u LP_FAULT " +
                      std::string(RUN_STUDY_BIN) + " " + args +
                      " > /dev/null 2>&1";
    int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

/** The profile at @p path; fails the test when it is missing or bad. */
lp::obs::Json
readProfile(const std::string &path)
{
    std::string err;
    lp::obs::Json doc = lp::obs::Json::parse(readFile(path), &err);
    EXPECT_TRUE(err.empty()) << path << ": " << err;
    return doc;
}

TEST(RunStudyCli, FailingSingleRunWritesItsProfile)
{
    const std::string prof = scratch("cli_single_fail.json");
    std::remove(prof.c_str());
    EXPECT_EQ(runStudy("164.gzip-like reduc1-dep1-fn2 helix "
                       "--budget-instructions 10 --profile=json:" +
                       prof),
              1);
    const lp::obs::Json doc = readProfile(prof);
    ASSERT_TRUE(doc.contains("tasks"));
    const lp::obs::Json &tasks = doc.at("tasks");
    ASSERT_EQ(tasks.size(), 1u);
    EXPECT_EQ(tasks.at(0).at("program").asString(), "164.gzip-like");
    EXPECT_EQ(tasks.at(0).at("status").asString(), "failed");
    // The task's one cell is labelled like a sweep cell.
    ASSERT_EQ(doc.at("cells").size(), 1u);
    EXPECT_EQ(doc.at("cells").at(0).at("config").asString(),
              "reduc1-dep1-fn2 HELIX");
    std::remove(prof.c_str());
    std::remove((prof + ".spans.jsonl").c_str());
}

TEST(RunStudyCli, FailingStrictSweepWritesItsProfile)
{
    const std::string prof = scratch("cli_sweep_fail.json");
    std::remove(prof.c_str());
    EXPECT_EQ(runStudy("cint2000 --strict --budget-instructions 1000 "
                       "--profile=json:" +
                       prof),
              1);
    const lp::obs::Json doc = readProfile(prof);
    ASSERT_TRUE(doc.contains("tasks"));
    const lp::obs::Json &tasks = doc.at("tasks");
    bool failed = false;
    for (std::size_t i = 0; i < tasks.size(); ++i)
        failed |= tasks.at(i).at("status").asString() == "failed";
    EXPECT_TRUE(failed);
    std::remove(prof.c_str());
    std::remove((prof + ".spans.jsonl").c_str());
}

TEST(RunStudyCli, SingleRunReportsAreByteIdentical)
{
    const std::string a = scratch("cli_single_a.json");
    const std::string b = scratch("cli_single_b.json");
    ASSERT_EQ(runStudy("164.gzip-like reduc1-dep1-fn2 helix --json " + a),
              0);
    ASSERT_EQ(runStudy("164.gzip-like reduc1-dep1-fn2 helix --json " + b),
              0);
    const std::string first = readFile(a);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, readFile(b));
    // With metrics off the report carries no wall-clock section.
    EXPECT_EQ(first.find("\"phases\""), std::string::npos);
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(RunStudyCli, FailedReportOrProfileWriteExitsOne)
{
    // /dev/full opens but refuses every write.  A chrome profile has no
    // span stream, so nothing is created next to it.
    EXPECT_EQ(runStudy("164.gzip-like reduc1-dep1-fn2 helix --json "
                       "/dev/full"),
              1);
    EXPECT_EQ(runStudy("164.gzip-like reduc1-dep1-fn2 helix "
                       "--profile=chrome:/dev/full"),
              1);

    // A json profile whose span stream fails is written all the same.
    const std::string prof = scratch("cli_full_stream.json");
    const std::string stream = prof + ".spans.jsonl";
    std::remove(prof.c_str());
    std::remove(stream.c_str());
    std::error_code ec;
    std::filesystem::create_symlink("/dev/full", stream, ec);
    ASSERT_FALSE(ec) << ec.message();
    EXPECT_EQ(runStudy("164.gzip-like reduc1-dep1-fn2 helix "
                       "--profile=json:" +
                       prof),
              1);
    EXPECT_GT(readProfile(prof).at("spans").size(), 0u);
    std::remove(prof.c_str());
    std::remove(stream.c_str());
}

TEST(RunStudyCli, ProfileTakesOnlyItsDocumentedModes)
{
    for (const char *bad : {"perf", "1", "on"})
        EXPECT_EQ(runStudy(std::string("cint2000 --profile=") + bad), 1)
            << bad;
}

} // namespace
