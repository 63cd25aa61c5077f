/**
 * @file
 * End-to-end tests for the lp-lint executable: exit-status contract
 * (0 = clean, 1 = error-level findings, 2 = usage/input error) and the
 * --sarif PATH side channel (SARIF lands in the file, stdout is
 * byte-identical with and without it, and a file that cannot be opened
 * or written is an exit 2).
 *
 * The binary path comes in via LP_LINT_BIN; commands run through
 * std::system with stdout redirected to a scratch file.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "obs/json.hpp"

namespace {

std::string
corpus(const std::string &name)
{
    return std::string(LP_SOURCE_DIR) + "/tests/lint_corpus/" + name +
        ".lir";
}

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

/** Run `lp-lint <args>` with stdout captured; returns the exit code. */
int
runLint(const std::string &args, const std::string &stdoutPath)
{
    std::string cmd = std::string(LP_LINT_BIN) + " " + args + " > " +
        stdoutPath + " 2>/dev/null";
    int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
}

TEST(LintCli, CleanInputExitsZero)
{
    std::string sample =
        std::string(LP_SOURCE_DIR) + "/examples/sample.lir";
    EXPECT_EQ(runLint(sample, scratch("cli_clean.out")), 0);
}

TEST(LintCli, ErrorFindingExitsOne)
{
    // global_oob carries an error-severity finding.
    EXPECT_EQ(runLint(corpus("global_oob"), scratch("cli_err.out")), 1);
}

TEST(LintCli, WarningsExitZeroUntilWerror)
{
    EXPECT_EQ(runLint(corpus("dead_def"), scratch("cli_warn.out")), 0);
    EXPECT_EQ(
        runLint("--werror " + corpus("dead_def"), scratch("cli_we.out")),
        1);
}

TEST(LintCli, UsageErrorsExitTwo)
{
    EXPECT_EQ(runLint("", scratch("cli_usage.out")), 2);
    EXPECT_EQ(runLint("/nonexistent/missing.lir",
                      scratch("cli_missing.out")),
              2);
    EXPECT_EQ(runLint("--sarif", scratch("cli_sarif_noarg.out")), 2);
}

TEST(LintCli, SarifPathWritesFileWithoutTouchingStdout)
{
    std::string plainOut = scratch("cli_plain.out");
    std::string sarifOut = scratch("cli_sarif.out");
    std::string sarifFile = scratch("cli_out.sarif");
    std::remove(sarifFile.c_str());

    int plainRc = runLint(corpus("dead_def"), plainOut);
    int sarifRc =
        runLint("--sarif " + sarifFile + " " + corpus("dead_def"),
                sarifOut);

    // Same verdict, byte-identical table on stdout.
    EXPECT_EQ(plainRc, sarifRc);
    EXPECT_EQ(readFile(plainOut), readFile(sarifOut));

    // And the file really is SARIF.
    std::string text = readFile(sarifFile);
    ASSERT_FALSE(text.empty());
    std::string err;
    lp::obs::Json doc = lp::obs::Json::parse(text, &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(doc.at("version").asString(), "2.1.0");
    EXPECT_GE(doc.at("runs").at(0).at("results").size(), 1u);
}

TEST(LintCli, SarifPathComposesWithErrorExit)
{
    // The side channel must not launder the exit status.
    std::string sarifFile = scratch("cli_err.sarif");
    EXPECT_EQ(runLint("--sarif " + sarifFile + " " + corpus("global_oob"),
                      scratch("cli_err_sarif.out")),
              1);
    EXPECT_FALSE(readFile(sarifFile).empty());
}

TEST(LintCli, UnwritableSarifPathExitsTwo)
{
    EXPECT_EQ(runLint("--sarif /nonexistent/dir/out.sarif " +
                          corpus("dead_def"),
                      scratch("cli_sarif_bad.out")),
              2);
}

TEST(LintCli, FailedSarifWriteExitsTwo)
{
    // /dev/full opens but refuses every write: the SARIF is lost, so
    // the run fails as an unopenable path does.
    EXPECT_EQ(runLint("--all-suites --sarif /dev/full",
                      scratch("cli_sarif_full.out")),
              2);
}

} // namespace
