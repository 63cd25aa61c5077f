/**
 * @file
 * lp::prof: instrumented locks, the profile view over the obs span
 * log, and the profiled-runs-change-nothing guarantee
 * (docs/profiling.md).
 *
 * Shape of the suite:
 *  - TimedMutex: disabled cost model (no stats recorded), uncontended
 *    fast path, forced contention producing wait-ns and the per-thread
 *    lock-wait accumulator a span's lock_wait_ns is built on;
 *  - the view: spec parsing, the span stream and the v3 document
 *    round-trip, per-worker timeline lane validity, and the task model
 *    on the default all-suite sweep: one core.task span per program,
 *    every span inside its parent on its worker, workers' busy and idle
 *    time adding up to the region, cells' lane shares adding up to
 *    their task, and the layer spans each kind of sweep shows;
 *  - Determinism: a profiled sweep's reports are byte-identical to an
 *    unprofiled sweep's, serial and at --jobs 4.
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "core/sweep.hpp"
#include "exec/pool.hpp"
#include "helpers.hpp"
#include "obs/json.hpp"
#include "obs/timer.hpp"
#include "prof/profile.hpp"
#include "prof/timed_mutex.hpp"
#include "rt/config.hpp"
#include "suites/registry.hpp"

namespace lp {
namespace {

/** Profiling off and all evidence dropped before and after each test. */
class ProfSandbox : public ::testing::Test
{
  public:
    static void quiesce()
    {
        prof::configure("off");
        prof::reset();
    }

  protected:
    void SetUp() override { quiesce(); }
    void TearDown() override { quiesce(); }
};

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + name;
}

// ----------------------------------------------------------- TimedMutex

TEST_F(ProfSandbox, DisabledMutexRecordsNothing)
{
    prof::TimedMutex m("test.prof.disabled");
    for (int i = 0; i < 100; ++i) {
        m.lock();
        m.unlock();
    }
    EXPECT_EQ(m.stats().acquisitions(), 0u);
    EXPECT_EQ(m.stats().contended(), 0u);
    EXPECT_EQ(m.stats().waitNs(), 0u);
}

TEST_F(ProfSandbox, UncontendedAcquisitionsCountWithoutWait)
{
    prof::TimedMutex m("test.prof.uncontended");
    prof::setEnabled(true);
    for (int i = 0; i < 10; ++i) {
        m.lock();
        m.unlock();
    }
    EXPECT_TRUE(m.try_lock());
    m.unlock();
    prof::setEnabled(false);
    EXPECT_EQ(m.stats().acquisitions(), 11u);
    EXPECT_EQ(m.stats().contended(), 0u);
    EXPECT_EQ(m.stats().waitNs(), 0u);
}

TEST_F(ProfSandbox, ForcedContentionRecordsWaitAndThreadAccumulator)
{
    prof::TimedMutex m("test.prof.contended");
    prof::setEnabled(true);

    // Hold the lock while a second thread provably blocks on it.
    std::atomic<bool> waiterStarted{false};
    std::uint64_t waiterLockWaitNs = 0;
    m.lock();
    std::thread waiter([&] {
        const std::uint64_t before = prof::threadLockWaitNs();
        waiterStarted.store(true);
        m.lock(); // contended: the main thread holds it
        m.unlock();
        waiterLockWaitNs = prof::threadLockWaitNs() - before;
    });
    while (!waiterStarted.load())
        std::this_thread::yield();
    // The waiter has at most a few instructions between the flag and
    // the lock() call; give it amply long to be parked on the mutex.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    m.unlock();
    waiter.join();
    prof::setEnabled(false);

    EXPECT_EQ(m.stats().acquisitions(), 2u);
    EXPECT_EQ(m.stats().contended(), 1u);
    EXPECT_GT(m.stats().waitNs(), 0u);
    // The contended wait landed in the waiting thread's accumulator —
    // this is what a span diffs for its lock_wait_ns.
    EXPECT_EQ(waiterLockWaitNs, m.stats().waitNs());
}

TEST_F(ProfSandbox, ContentionSnapshotRanksSites)
{
    prof::TimedMutex hot("test.prof.rank_hot");
    prof::setEnabled(true);
    std::thread t([&] {
        for (int i = 0; i < 200; ++i) {
            hot.lock();
            hot.unlock();
        }
    });
    for (int i = 0; i < 200; ++i) {
        hot.lock();
        hot.unlock();
    }
    t.join();
    prof::setEnabled(false);

    obs::Json contention = prof::contentionJson();
    EXPECT_EQ(contention.at("total_acquisitions").asU64(),
              hot.stats().acquisitions());
    bool found = false;
    const obs::Json &sites = contention.at("sites");
    std::uint64_t lastWait = UINT64_MAX;
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const obs::Json &site = sites.at(i);
        // Sorted most-waited-on first.
        EXPECT_LE(site.at("wait_ns").asU64(), lastWait);
        lastWait = site.at("wait_ns").asU64();
        if (site.at("site").asString() == "test.prof.rank_hot")
            found = true;
    }
    EXPECT_TRUE(found);
}

// ---------------------------------------------------------------- view

TEST_F(ProfSandbox, ConfigureParsesSpecsAndRejectsUnknownModes)
{
    for (const char *bad : {"perf", "1", "on", "", ":x.json", "off:y"}) {
        EXPECT_FALSE(prof::configure(bad)) << bad;
        EXPECT_EQ(prof::mode(), prof::Mode::Off);
        EXPECT_FALSE(prof::profilingOn());
    }

    std::string path = tempPath("lp_prof_cfg.json");
    EXPECT_TRUE(prof::configure("json:" + path));
    EXPECT_EQ(prof::mode(), prof::Mode::Json);
    EXPECT_EQ(prof::outputPath(), path);
    EXPECT_TRUE(prof::profilingOn());
    EXPECT_TRUE(std::ifstream(path + ".spans.jsonl").good());

    EXPECT_TRUE(prof::configure("chrome:" + path));
    EXPECT_EQ(prof::mode(), prof::Mode::Chrome);

    EXPECT_TRUE(prof::configure("off"));
    EXPECT_EQ(prof::mode(), prof::Mode::Off);
    EXPECT_FALSE(prof::profilingOn());
    std::remove((path + ".spans.jsonl").c_str());
}

obs::Json
readJson(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::string err;
    obs::Json doc = obs::Json::parse(buf.str(), &err);
    EXPECT_TRUE(err.empty()) << path << ": " << err;
    return doc;
}

TEST_F(ProfSandbox, TaskSpansRoundTripThroughStreamAndReport)
{
    const std::string path = tempPath("lp_prof_tasks.json");
    ASSERT_TRUE(prof::configure("json:" + path));

    {
        obs::ScopedPhase region("exec.region");
        {
            obs::ScopedPhase task("core.task");
            core::labelTask(task, "164.gzip-like", "cint2000",
                            {"reduc1-dep1-fn2 HELIX",
                             "reduc0-dep0-fn0 DOALL"});
            task.set("instructions", 12345);
            task.set("attempts", 2);
            task.set("status", "ok");
            obs::ScopedPhase batch("rt.batch");
            std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
        {
            obs::ScopedPhase task("core.task");
            core::labelTask(task, "175.vpr-like", "cint2000",
                            {"reduc1-dep1-fn2 HELIX"});
            // No status "ok": the task records as failed.
        }
        obs::instant("core.cell",
                     obs::Json::object()
                         .set("program", "181.mcf-like")
                         .set("suite", "cint2000")
                         .set("config", "reduc1-dep1-fn2 HELIX")
                         .set("status", "resumed"));
    }
    ASSERT_TRUE(prof::finish()); // writes the profile, stops recording
    EXPECT_FALSE(prof::profilingOn());

    const obs::Json doc = readJson(path);
    EXPECT_EQ(doc.at("profile").asString(), "lp_prof");
    EXPECT_EQ(doc.at("v").asU64(), 3u);
    ASSERT_TRUE(doc.contains("contention"));
    ASSERT_TRUE(doc.contains("workers"));

    // The streamed spans: one well-formed line per record, equal to the
    // profile's spans section.
    const obs::Json &spans = doc.at("spans");
    ASSERT_EQ(spans.size(), 5u);
    std::ifstream stream(path + ".spans.jsonl");
    ASSERT_TRUE(stream.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(stream, line)) {
        std::string err;
        obs::Json rec = obs::Json::parse(line, &err);
        ASSERT_TRUE(err.empty()) << err << " in: " << line;
        ASSERT_LT(lines, spans.size());
        EXPECT_EQ(rec.dump(), spans.at(lines).dump());
        for (const char *key : {"id", "parent", "name", "worker",
                                "start_ns", "wall_ns", "instant", "args"})
            EXPECT_TRUE(rec.contains(key)) << key;
        ++lines;
    }
    EXPECT_EQ(lines, spans.size());

    const obs::Json &tasks = doc.at("tasks");
    const obs::Json &cells = doc.at("cells");
    ASSERT_EQ(tasks.size(), 2u);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(tasks.at(0).at("program").asString(), "164.gzip-like");
    EXPECT_EQ(tasks.at(0).at("lanes").asU64(), 2u);
    EXPECT_EQ(tasks.at(0).at("attempts").asU64(), 2u);
    EXPECT_EQ(tasks.at(0).at("status").asString(), "ok");
    EXPECT_EQ(tasks.at(1).at("status").asString(), "failed");
    // The first task's two lane shares tile its span exactly.
    const obs::Json &a = cells.at(0), &b = cells.at(1);
    EXPECT_EQ(a.at("task").asU64(), 0u);
    EXPECT_EQ(b.at("task").asU64(), 0u);
    EXPECT_EQ(a.at("config").asString(), "reduc1-dep1-fn2 HELIX");
    EXPECT_EQ(a.at("instructions").asU64(), 12345u);
    EXPECT_EQ(a.at("attempts").asU64(), 2u);
    EXPECT_EQ(a.at("wall_ns").asU64() + b.at("wall_ns").asU64(),
              tasks.at(0).at("wall_ns").asU64());
    EXPECT_EQ(a.at("start_ns").asU64(), tasks.at(0).at("start_ns").asU64());
    EXPECT_EQ(b.at("start_ns").asU64(),
              a.at("start_ns").asU64() + a.at("wall_ns").asU64());
    EXPECT_EQ(cells.at(2).at("status").asString(), "failed");
    // A cell that needed no run has a row but no task and no time.
    EXPECT_TRUE(cells.at(3).at("task").isNull());
    EXPECT_EQ(cells.at(3).at("status").asString(), "resumed");
    EXPECT_EQ(cells.at(3).at("wall_ns").asU64(), 0u);

    // One worker, busy for both tasks, idle for the rest of the region.
    const obs::Json &workers = doc.at("workers");
    ASSERT_EQ(workers.at("workers").size(), 1u);
    const obs::Json &w = workers.at("workers").at(0);
    EXPECT_EQ(w.at("tasks").asU64(), 2u);
    EXPECT_EQ(w.at("cells").asU64(), 3u);
    EXPECT_EQ(w.at("instructions").asU64(), 2u * 12345u);
    EXPECT_EQ(w.at("busy_ns").asU64(), tasks.at(0).at("wall_ns").asU64() +
                                           tasks.at(1).at("wall_ns").asU64());
    EXPECT_EQ(w.at("busy_ns").asU64() + w.at("idle_ns").asU64(),
              workers.at("region_wall_ns").asU64());

    std::remove(path.c_str());
    std::remove((path + ".spans.jsonl").c_str());
}

std::vector<core::BenchProgram>
smallPrograms()
{
    auto mk = [](const char *name, auto builder) {
        core::BenchProgram p;
        p.name = name;
        p.suite = "prof-test";
        p.build = builder;
        return p;
    };
    return {
        mk("saxpy", [] { return test::buildSaxpy(64); }),
        mk("sum", [] { return test::buildSumReduction(64); }),
        mk("chase", [] { return test::buildPointerChase(48); }),
        mk("hist", [] { return test::buildHistogram(128, 8); }),
    };
}

/** The configurations the sweeps below run. */
const rt::LPConfig kHelix =
    rt::LPConfig::parse("reduc1-dep1-fn2", rt::ExecModel::Helix);
const std::vector<rt::LPConfig> kThreeModels = {
    rt::LPConfig::parse("reduc0-dep0-fn0", rt::ExecModel::DoAll),
    rt::LPConfig::parse("reduc1-dep2-fn2", rt::ExecModel::PartialDoAll),
    kHelix,
};

std::vector<obs::SpanRecord>
spans()
{
    return obs::SpanLog::instance().records();
}

TEST_F(ProfSandbox, WorkerTimelinesHaveValidLanesAndUtilization)
{
    prof::setEnabled(true);
    // runSweep profiles its task dispatch as one region.
    test::sweepDocument(smallPrograms(), {kHelix}, 4);
    prof::setEnabled(false);

    const std::vector<obs::SpanRecord> log = spans();
    obs::Json workers = prof::workersJson(log);
    EXPECT_GT(workers.at("region_wall_ns").asU64(), 0u);
    const obs::Json &lanes = workers.at("workers");
    ASSERT_GT(lanes.size(), 0u);
    std::set<std::uint64_t> seenLanes;
    std::uint64_t tasksTotal = 0, cellsTotal = 0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const obs::Json &w = lanes.at(i);
        // Each lane appears once and carries internally consistent
        // spans: busy + idle == the region wall it is measured against.
        EXPECT_TRUE(seenLanes.insert(w.at("worker").asU64()).second);
        tasksTotal += w.at("tasks").asU64();
        cellsTotal += w.at("cells").asU64();
        const double util = w.at("utilization").asDouble();
        EXPECT_GE(util, 0.0);
        EXPECT_LE(util, 1.0 + 1e-9);
        EXPECT_EQ(w.at("busy_ns").asU64() + w.at("idle_ns").asU64(),
                  workers.at("region_wall_ns").asU64());
    }
    EXPECT_EQ(tasksTotal, prof::tasksJson(log).size());
    EXPECT_EQ(cellsTotal, prof::cellsJson(log).size());
    EXPECT_GE(workers.at("load_imbalance").asDouble(), 1.0 - 1e-9);

    // The Chrome view of the same log: one complete event per span,
    // each task on its recorded worker's lane, plus the summary.
    obs::Json chrome = prof::chromeProfile(log);
    const obs::Json &events = chrome.at("traceEvents");
    std::size_t complete = 0, taskEvents = 0;
    bool summary = false;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const obs::Json &e = events.at(i);
        if (e.at("ph").asString() != "X") {
            summary |= e.at("name").asString() == "lp_prof.summary";
            continue;
        }
        ++complete;
        EXPECT_GE(e.at("dur").asDouble(), 0.0);
        if (e.at("name").asString() != "core.task")
            continue;
        ++taskEvents;
        EXPECT_TRUE(seenLanes.count(e.at("tid").asU64()))
            << "task on unknown lane";
    }
    EXPECT_EQ(complete, log.size());
    EXPECT_EQ(taskEvents, prof::tasksJson(log).size());
    EXPECT_TRUE(summary);
}

TEST_F(ProfSandbox, QueueWaitIsLaneIdleGapNotRegionOffset)
{
    // Regression: queue-wait used to be "region start -> span start",
    // which billed a lane's entire busy history to each of its later
    // spans — a 1.6 s region once reported 23 s of queue-wait.  The
    // fixed definition (lane idle gap before the task) sums to at most
    // the region wall, because one lane's gaps are disjoint.
    prof::setEnabled(true);
    {
        obs::ScopedPhase region("exec.region");
        for (int i = 0; i < 50; ++i) {
            obs::ScopedPhase task("core.task");
            core::labelTask(task, "p" + std::to_string(i), "prof-test",
                            {"cfg"});
            task.set("status", "ok");
            // Busy time inside the task: under the old definition each
            // later task inherited all of it as "queue wait".
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }
    prof::setEnabled(false);

    const std::vector<obs::SpanRecord> log = spans();
    obs::Json workers = prof::workersJson(log);
    const std::uint64_t regionWall =
        workers.at("region_wall_ns").asU64();
    ASSERT_GT(regionWall, 0u);

    obs::Json tasks = prof::tasksJson(log);
    ASSERT_EQ(tasks.size(), 50u);
    std::uint64_t totalWait = 0;
    for (std::size_t i = 0; i < tasks.size(); ++i)
        totalWait += tasks.at(i).at("queue_wait_ns").asU64();
    // The old definition summed to ~125x the region wall here.
    EXPECT_LE(totalWait, regionWall);

    const obs::Json &lanes = workers.at("workers");
    for (std::size_t i = 0; i < lanes.size(); ++i)
        EXPECT_LE(lanes.at(i).at("queue_wait_ns").asU64(), regionWall);
}

TEST_F(ProfSandbox, ParallelSweepQueueWaitStaysWithinRegionWall)
{
    // The same invariant under a real parallel sweep: whatever the
    // worker count, no lane can have waited longer than the region
    // lasted.
    prof::setEnabled(true);
    test::sweepDocument(smallPrograms(), kThreeModels, 4);
    prof::setEnabled(false);

    obs::Json workers = prof::workersJson(spans());
    const std::uint64_t regionWall =
        workers.at("region_wall_ns").asU64();
    const obs::Json &lanes = workers.at("workers");
    ASSERT_GT(lanes.size(), 0u);
    for (std::size_t i = 0; i < lanes.size(); ++i)
        EXPECT_LE(lanes.at(i).at("queue_wait_ns").asU64(), regionWall)
            << "lane " << lanes.at(i).at("worker").asU64();
}

/**
 * The task model's bookkeeping on the span log of the last sweep:
 * every span lies inside its parent on the parent's worker, every
 * worker's busy and idle time add up to the region wall, each task's
 * cells' lane shares add up to its wall, and every cell has a row.
 * @return the number of tasks
 */
std::size_t
expectTasksAddUp(const std::vector<obs::SpanRecord> &log, std::size_t cells)
{
    std::map<std::uint64_t, const obs::SpanRecord *> byId;
    for (const obs::SpanRecord &r : log)
        byId[r.id] = &r;
    for (const obs::SpanRecord &r : log) {
        if (r.parent == 0)
            continue;
        if (!byId.count(r.parent)) {
            ADD_FAILURE() << r.name << " has no parent record";
            continue;
        }
        const obs::SpanRecord &p = *byId[r.parent];
        EXPECT_EQ(p.worker, r.worker) << r.name << " in " << p.name;
        EXPECT_LE(p.startNs, r.startNs) << r.name << " in " << p.name;
        EXPECT_LE(r.startNs + r.wallNs, p.startNs + p.wallNs)
            << r.name << " in " << p.name;
    }

    const obs::Json workers = prof::workersJson(log);
    const std::uint64_t regionWall = workers.at("region_wall_ns").asU64();
    const obs::Json &lanes = workers.at("workers");
    EXPECT_GT(lanes.size(), 0u);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const obs::Json &w = lanes.at(i);
        EXPECT_EQ(w.at("busy_ns").asU64() + w.at("idle_ns").asU64(),
                  regionWall)
            << "worker " << w.at("worker").asU64();
    }

    const obs::Json tasks = prof::tasksJson(log);
    const obs::Json rows = prof::cellsJson(log);
    EXPECT_EQ(rows.size(), cells);
    std::vector<std::uint64_t> shares(tasks.size(), 0);
    std::vector<std::uint64_t> lanesSeen(tasks.size(), 0);
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::uint64_t t = rows.at(i).at("task").asU64();
        EXPECT_LT(t, tasks.size());
        if (t >= tasks.size())
            continue;
        shares[t] += rows.at(i).at("wall_ns").asU64();
        lanesSeen[t] += 1;
    }
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        EXPECT_EQ(shares[t], tasks.at(t).at("wall_ns").asU64()) << t;
        EXPECT_EQ(lanesSeen[t], tasks.at(t).at("lanes").asU64()) << t;
        EXPECT_EQ(tasks.at(t).at("status").asString(), "ok") << t;
    }
    return tasks.size();
}

/** How many spans of @p log are named @p name. */
std::size_t
countNamed(const std::vector<obs::SpanRecord> &log, const std::string &name)
{
    return std::count_if(log.begin(), log.end(),
                         [&](const obs::SpanRecord &r) {
                             return r.name == name;
                         });
}

TEST_F(ProfSandbox, AllSuiteSweepIsProfiledTaskByTask)
{
    prof::setEnabled(true);
    const std::vector<core::BenchProgram> &programs = suites::allPrograms();
    core::SweepRequest req;
    req.wantJson = true;
    std::ostream discard(nullptr);
    exec::setJobsOverride(4);

    // The default sweep: one fused batch per program, so one task per
    // program, and the workers are busy with them nearly all the time
    // (the cell-as-task profile once read a utilization of 1e-5).
    core::runSweep(programs, req, discard);
    exec::setJobsOverride(0);
    prof::setEnabled(false);

    const std::vector<obs::SpanRecord> log = spans();
    const std::size_t cells = programs.size() * req.configs.size();
    EXPECT_EQ(expectTasksAddUp(log, cells), programs.size());
    EXPECT_EQ(countNamed(log, "core.task"), programs.size());
    EXPECT_GT(prof::workersJson(log).at("utilization_mean").asDouble(),
              0.5);
    // Every layer the sweep runs has its span; no retired name is left.
    for (const char *layer :
         {"exec.region", "core.prepare", "ir.build", "ir.verify", "rt.plan",
          "rt.batch", "rt.report_json", "core.aggregate"})
        EXPECT_GT(countNamed(log, layer), 0u) << layer;
    for (const char *retired :
         {"guard", "prepare", "plan", "replay_batch", "report"})
        EXPECT_EQ(countNamed(log, retired), 0u) << retired;
    // Each batch and its report JSON ran inside a task on its worker.
    for (const obs::SpanRecord &r : log)
        if (r.name == "rt.batch" || r.name == "rt.report_json") {
            const auto task = std::find_if(
                log.begin(), log.end(), [&](const obs::SpanRecord &t) {
                    return t.name == "core.task" && t.id == r.parent;
                });
            EXPECT_NE(task, log.end()) << r.name;
        }
}

TEST_F(ProfSandbox, LintedCheckpointedSweepShowsItsLayers)
{
    const std::string ckpt = tempPath("lp_prof_layers.ckpt.jsonl");
    std::remove(ckpt.c_str());
    core::SweepRequest req;
    req.configs.clear();
    for (const rt::LPConfig &cfg : kThreeModels)
        req.configs.push_back({cfg.str(), cfg});
    req.lintMode = 1;
    req.checkpointPath = ckpt;
    std::ostream discard(nullptr);

    prof::setEnabled(true);
    core::runSweep(smallPrograms(), req, discard);
    prof::setEnabled(false);

    const std::vector<obs::SpanRecord> log = spans();
    const std::size_t programs = smallPrograms().size();
    EXPECT_EQ(countNamed(log, "lint.module"), programs);
    EXPECT_EQ(countNamed(log, "analysis.verdicts"), programs);
    EXPECT_EQ(countNamed(log, "guard.checkpoint_append"), programs);
    expectTasksAddUp(log, programs * kThreeModels.size());

    // Resumed, every cell needs no run: each is one core.cell instant.
    req.resume = true;
    prof::reset();
    prof::setEnabled(true);
    core::runSweep(smallPrograms(), req, discard);
    prof::setEnabled(false);
    const obs::Json rows = prof::cellsJson(spans());
    ASSERT_EQ(rows.size(), programs * kThreeModels.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_TRUE(rows.at(i).at("task").isNull());
        EXPECT_EQ(rows.at(i).at("status").asString(), "resumed");
    }
    EXPECT_EQ(countNamed(spans(), "core.task"), 0u);
    std::remove(ckpt.c_str());
}

// ---------------------------------------------------------- determinism

/** One sweep's report document, with the profile on or off. */
std::string
sweepFingerprint(unsigned jobs, bool profiled)
{
    const std::string path = tempPath("lp_prof_identity.json");
    if (profiled) {
        EXPECT_TRUE(prof::configure("json:" + path));
    } else {
        ProfSandbox::quiesce();
    }
    std::string out =
        test::sweepDocument(smallPrograms(), kThreeModels, jobs).dump();
    ProfSandbox::quiesce();
    std::remove((path + ".spans.jsonl").c_str());
    return out;
}

TEST_F(ProfSandbox, ProfiledSweepReportsAreByteIdentical)
{
    // The acceptance grid: {off, on} x {serial, 4 jobs} all agree.
    const std::string plainSerial = sweepFingerprint(1, false);
    const std::string profiledSerial = sweepFingerprint(1, true);
    const std::string plainParallel = sweepFingerprint(4, false);
    const std::string profiledParallel = sweepFingerprint(4, true);
    ASSERT_FALSE(plainSerial.empty());
    EXPECT_EQ(plainSerial, profiledSerial);
    EXPECT_EQ(plainSerial, plainParallel);
    EXPECT_EQ(plainSerial, profiledParallel);
}

} // namespace
} // namespace lp
