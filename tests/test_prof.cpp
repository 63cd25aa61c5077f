/**
 * @file
 * lp::prof: instrumented locks, the profiling collector, and the
 * profiled-runs-change-nothing guarantee (docs/profiling.md).
 *
 * Shape of the suite:
 *  - TimedMutex: disabled cost model (no stats recorded), uncontended
 *    fast path, forced contention producing wait-ns and the per-thread
 *    lock-wait accumulator TaskScope attribution is built on;
 *  - Collector: spec parsing, task and cell JSONL well-formedness and
 *    schema round-trip, per-worker timeline lane validity, and the
 *    task model on the default all-suite sweep: workers' busy and idle
 *    time add up to the region, cells' lane shares add up to their
 *    task, one task per program;
 *  - Determinism: a profiled sweep's reports are byte-identical to an
 *    unprofiled sweep's, serial and at --jobs 4.
 */

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "exec/pool.hpp"
#include "helpers.hpp"
#include "obs/json.hpp"
#include "prof/collector.hpp"
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
        prof::Collector::instance().configure("off");
        prof::Collector::instance().reset();
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
    prof::Collector::instance().setEnabled(true);
    for (int i = 0; i < 10; ++i) {
        m.lock();
        m.unlock();
    }
    EXPECT_TRUE(m.try_lock());
    m.unlock();
    prof::Collector::instance().setEnabled(false);
    EXPECT_EQ(m.stats().acquisitions(), 11u);
    EXPECT_EQ(m.stats().contended(), 0u);
    EXPECT_EQ(m.stats().waitNs(), 0u);
}

TEST_F(ProfSandbox, ForcedContentionRecordsWaitAndThreadAccumulator)
{
    prof::TimedMutex m("test.prof.contended");
    prof::Collector::instance().setEnabled(true);

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
    prof::Collector::instance().setEnabled(false);

    EXPECT_EQ(m.stats().acquisitions(), 2u);
    EXPECT_EQ(m.stats().contended(), 1u);
    EXPECT_GT(m.stats().waitNs(), 0u);
    // The contended wait landed in the waiting thread's accumulator —
    // this is what TaskScope diffs to attribute lock-wait to tasks.
    EXPECT_EQ(waiterLockWaitNs, m.stats().waitNs());
}

TEST_F(ProfSandbox, ContentionSnapshotRanksSites)
{
    prof::Collector &c = prof::Collector::instance();
    prof::TimedMutex hot("test.prof.rank_hot");
    c.setEnabled(true);
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
    c.setEnabled(false);

    obs::Json contention = c.contentionJson();
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

// ------------------------------------------------------------ Collector

TEST_F(ProfSandbox, ConfigureParsesSpecsAndRejectsUnknownModes)
{
    prof::Collector &c = prof::Collector::instance();

    EXPECT_FALSE(c.configure("perf"));
    EXPECT_EQ(c.mode(), prof::Mode::Off);
    EXPECT_FALSE(prof::profilingOn());

    std::string path = tempPath("lp_prof_cfg.json");
    EXPECT_TRUE(c.configure("json:" + path));
    EXPECT_EQ(c.mode(), prof::Mode::Json);
    EXPECT_EQ(c.outputPath(), path);
    EXPECT_TRUE(prof::profilingOn());

    EXPECT_TRUE(c.configure("chrome:" + path));
    EXPECT_EQ(c.mode(), prof::Mode::Chrome);

    EXPECT_TRUE(c.configure("off"));
    EXPECT_EQ(c.mode(), prof::Mode::Off);
    EXPECT_FALSE(prof::profilingOn());
}

TEST_F(ProfSandbox, TaskRecordsRoundTripThroughJsonlAndReport)
{
    prof::Collector &c = prof::Collector::instance();
    const std::string path = tempPath("lp_prof_cells.json");
    ASSERT_TRUE(c.configure("json:" + path));

    c.beginRegion();
    {
        prof::TaskScope task("164.gzip-like", "cint2000");
        task.addCell("reduc1-dep1-fn2 helix");
        task.addCell("reduc0-dep0-fn0 DOALL");
        task.setInstructions(12345);
        task.setAttempts(2);
        task.setStatus("ok");
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    {
        prof::TaskScope task("175.vpr-like", "cint2000");
        task.addCell("reduc1-dep1-fn2 helix");
        // No setStatus: an unwound scope records as failed.
    }
    c.recordUnrunCell("181.mcf-like", "cint2000", "reduc1-dep1-fn2 helix",
                      "resumed");
    c.endRegion();
    EXPECT_EQ(c.tasksJson().size(), 2u);
    EXPECT_EQ(c.cellCount(), 4u);
    ASSERT_TRUE(c.finish()); // writes both outputs, disables profiling

    // The streamed JSONL: one well-formed object per cell, schema keys
    // present, values round-tripping.
    std::ifstream jsonl(path + ".cells.jsonl");
    ASSERT_TRUE(jsonl.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(jsonl, line)) {
        std::string err;
        obs::Json rec = obs::Json::parse(line, &err);
        ASSERT_TRUE(err.empty()) << err << " in: " << line;
        for (const char *key :
             {"program", "suite", "config", "task", "worker", "start_ns",
              "wall_ns", "instructions", "attempts", "status"})
            EXPECT_TRUE(rec.contains(key)) << key;
        ++lines;
    }
    EXPECT_EQ(lines, 4u);

    // The rolled-up profile document agrees with the stream.
    std::ifstream profFile(path);
    ASSERT_TRUE(profFile.good());
    std::stringstream buf;
    buf << profFile.rdbuf();
    std::string err;
    obs::Json doc = obs::Json::parse(buf.str(), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(doc.contains("contention"));
    ASSERT_TRUE(doc.contains("workers"));
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
    EXPECT_EQ(a.at("config").asString(), "reduc1-dep1-fn2 helix");
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

    std::remove(path.c_str());
    std::remove((path + ".cells.jsonl").c_str());
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

TEST_F(ProfSandbox, WorkerTimelinesHaveValidLanesAndUtilization)
{
    prof::Collector &c = prof::Collector::instance();
    const std::string path = tempPath("lp_prof_lanes.json");
    ASSERT_TRUE(c.configure("json:" + path));

    // runSweep profiles its cell dispatch as one region.
    test::sweepDocument(smallPrograms(), {kHelix}, 4);

    obs::Json workers = c.workersJson();
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
    EXPECT_EQ(tasksTotal, c.tasksJson().size());
    EXPECT_EQ(cellsTotal, c.cellCount());
    EXPECT_GE(workers.at("load_imbalance").asDouble(), 1.0 - 1e-9);

    // The Chrome view of the same evidence: one span per task, each on
    // its recorded worker's lane.
    obs::Json chrome = c.chromeDocument();
    const obs::Json &events = chrome.at("traceEvents");
    std::size_t taskEvents = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const obs::Json &e = events.at(i);
        if (e.at("ph").asString() != "X")
            continue;
        ++taskEvents;
        EXPECT_TRUE(seenLanes.count(e.at("tid").asU64()))
            << "span on unknown lane";
        EXPECT_GE(e.at("dur").asDouble(), 0.0);
    }
    EXPECT_EQ(taskEvents, c.tasksJson().size());

    quiesce();
    std::remove((path + ".cells.jsonl").c_str());
}

TEST_F(ProfSandbox, QueueWaitIsLaneIdleGapNotRegionOffset)
{
    // Regression: queue-wait used to be "region start -> span start",
    // which billed a lane's entire busy history to each of its later
    // spans — a 1.6 s region once reported 23 s of queue-wait.  The
    // fixed definition (lane idle gap before the task) sums to at most
    // the region wall, because one lane's gaps are disjoint.
    prof::Collector &c = prof::Collector::instance();
    c.setEnabled(true);

    c.beginRegion();
    for (int i = 0; i < 50; ++i) {
        prof::TaskScope task("p" + std::to_string(i), "prof-test");
        task.addCell("cfg");
        task.setStatus("ok");
        // Busy time inside the task: under the old definition each
        // later task inherited all of it as "queue wait".
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    c.endRegion();
    c.setEnabled(false);

    obs::Json workers = c.workersJson();
    const std::uint64_t regionWall =
        workers.at("region_wall_ns").asU64();
    ASSERT_GT(regionWall, 0u);

    obs::Json tasks = c.tasksJson();
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
    prof::Collector &c = prof::Collector::instance();
    c.setEnabled(true);

    test::sweepDocument(smallPrograms(), kThreeModels, 4);
    c.setEnabled(false);

    obs::Json workers = c.workersJson();
    const std::uint64_t regionWall =
        workers.at("region_wall_ns").asU64();
    const obs::Json &lanes = workers.at("workers");
    ASSERT_GT(lanes.size(), 0u);
    for (std::size_t i = 0; i < lanes.size(); ++i)
        EXPECT_LE(lanes.at(i).at("queue_wait_ns").asU64(), regionWall)
            << "lane " << lanes.at(i).at("worker").asU64();
}

/**
 * The task model's bookkeeping on the profile of the last sweep: every
 * worker's busy and idle time add up to the region wall, each task's
 * cells' lane shares add up to its wall, and every cell has a row.
 * @return the number of tasks
 */
std::size_t
expectTasksAddUp(const prof::Collector &c, std::size_t cells)
{
    const obs::Json workers = c.workersJson();
    const std::uint64_t regionWall = workers.at("region_wall_ns").asU64();
    const obs::Json &lanes = workers.at("workers");
    EXPECT_GT(lanes.size(), 0u);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const obs::Json &w = lanes.at(i);
        EXPECT_EQ(w.at("busy_ns").asU64() + w.at("idle_ns").asU64(),
                  regionWall)
            << "worker " << w.at("worker").asU64();
    }

    const obs::Json tasks = c.tasksJson();
    const obs::Json rows = c.cellsJson();
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

TEST_F(ProfSandbox, AllSuiteSweepIsProfiledTaskByTask)
{
    prof::Collector &c = prof::Collector::instance();
    c.setEnabled(true);
    const std::vector<core::BenchProgram> &programs = suites::allPrograms();
    core::SweepRequest req;
    req.wantJson = true;
    std::ostream discard(nullptr);
    exec::setJobsOverride(4);

    // The default sweep: one fused batch per program, so one task per
    // program, and the workers are busy with them nearly all the time
    // (the cell-as-task profile once read a utilization of 1e-5).
    core::runSweep(programs, req, discard);
    const std::size_t cells = programs.size() * req.configs.size();
    EXPECT_EQ(expectTasksAddUp(c, cells), programs.size());
    EXPECT_GT(c.workersJson().at("utilization_mean").asDouble(), 0.5);

    exec::setJobsOverride(0);
    c.setEnabled(false);
}

// ---------------------------------------------------------- determinism

/** One sweep's report document, with the profiler on or off. */
std::string
sweepFingerprint(unsigned jobs, bool profiled)
{
    if (profiled) {
        EXPECT_TRUE(prof::Collector::instance().configure(
            "json:" + tempPath("lp_prof_identity.json")));
    } else {
        ProfSandbox::quiesce();
    }
    std::string out =
        test::sweepDocument(smallPrograms(), kThreeModels, jobs).dump();
    ProfSandbox::quiesce();
    std::remove((tempPath("lp_prof_identity.json") + ".cells.jsonl")
                    .c_str());
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
