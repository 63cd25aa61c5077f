/**
 * @file
 * lp::prof: instrumented locks, the profiling collector, and the
 * profiled-runs-change-nothing guarantee (docs/profiling.md).
 *
 * Shape of the suite:
 *  - TimedMutex: disabled cost model (no stats recorded), uncontended
 *    fast path, forced contention producing wait-ns and the per-thread
 *    lock-wait accumulator CellScope attribution is built on;
 *  - Collector: spec parsing, per-cell JSONL well-formedness and schema
 *    round-trip, per-worker timeline lane validity, epoch attribution
 *    from the interpret/record/replay hot loops;
 *  - Determinism: a profiled sweep's reports are byte-identical to an
 *    unprofiled sweep's, serial and at --jobs 4 (ISSUE 6 acceptance).
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
    // this is what CellScope diffs to attribute lock-wait to cells.
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

TEST_F(ProfSandbox, CellRecordsRoundTripThroughJsonlAndReport)
{
    prof::Collector &c = prof::Collector::instance();
    const std::string path = tempPath("lp_prof_cells.json");
    ASSERT_TRUE(c.configure("json:" + path));

    c.beginRegion();
    {
        prof::CellScope cell("164.gzip-like", "cint2000",
                             "reduc1-dep1-fn2 helix");
        cell.setInstructions(12345);
        cell.setAttempts(2);
        cell.setStatus("ok");
    }
    {
        prof::CellScope cell("175.vpr-like", "cint2000",
                             "reduc1-dep1-fn2 helix");
        // No setStatus: an unwound scope records as failed.
    }
    c.endRegion();
    EXPECT_EQ(c.cellCount(), 2u);
    ASSERT_TRUE(c.finish()); // writes both outputs, disables profiling

    // The streamed JSONL: one well-formed object per line, schema keys
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
             {"program", "suite", "config", "worker", "start_ns",
              "wall_ns", "queue_wait_ns", "lock_wait_ns", "instructions",
              "attempts", "status"})
            EXPECT_TRUE(rec.contains(key)) << key;
        ++lines;
    }
    EXPECT_EQ(lines, 2u);

    // The rolled-up profile document agrees with the stream.
    std::ifstream profFile(path);
    ASSERT_TRUE(profFile.good());
    std::stringstream buf;
    buf << profFile.rdbuf();
    std::string err;
    obs::Json doc = obs::Json::parse(buf.str(), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_TRUE(doc.contains("cells"));
    ASSERT_EQ(doc.at("cells").size(), 2u);
    const obs::Json &first = doc.at("cells").at(0);
    EXPECT_EQ(first.at("program").asString(), "164.gzip-like");
    EXPECT_EQ(first.at("instructions").asU64(), 12345u);
    EXPECT_EQ(first.at("attempts").asU64(), 2u);
    EXPECT_EQ(first.at("status").asString(), "ok");
    EXPECT_EQ(doc.at("cells").at(1).at("status").asString(), "failed");
    ASSERT_TRUE(doc.contains("contention"));
    ASSERT_TRUE(doc.contains("workers"));

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
    std::uint64_t cellsTotal = 0;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const obs::Json &w = lanes.at(i);
        // Each lane appears once and carries internally consistent
        // spans: busy + idle == the region wall it is measured against.
        EXPECT_TRUE(seenLanes.insert(w.at("worker").asU64()).second);
        cellsTotal += w.at("cells").asU64();
        const double util = w.at("utilization").asDouble();
        EXPECT_GE(util, 0.0);
        EXPECT_LE(util, 1.0 + 1e-9);
        EXPECT_EQ(w.at("busy_ns").asU64() + w.at("idle_ns").asU64(),
                  workers.at("region_wall_ns").asU64());
    }
    EXPECT_EQ(cellsTotal, c.cellCount());
    EXPECT_GE(workers.at("load_imbalance").asDouble(), 1.0 - 1e-9);

    // The Chrome view of the same evidence: every cell span sits on its
    // recorded worker's lane.
    obs::Json chrome = c.chromeDocument();
    const obs::Json &events = chrome.at("traceEvents");
    std::size_t cellEvents = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const obs::Json &e = events.at(i);
        if (e.at("ph").asString() != "X")
            continue;
        ++cellEvents;
        EXPECT_TRUE(seenLanes.count(e.at("tid").asU64()))
            << "span on unknown lane";
        EXPECT_GE(e.at("dur").asDouble(), 0.0);
    }
    EXPECT_EQ(cellEvents, c.cellCount());

    quiesce();
    std::remove((path + ".cells.jsonl").c_str());
}

TEST_F(ProfSandbox, QueueWaitIsLaneIdleGapNotRegionOffset)
{
    // Regression: queue-wait used to be "region start -> cell start",
    // which billed a lane's entire busy history to each of its later
    // cells — a 1.6 s region once reported 23 s of queue-wait.  The
    // fixed definition (lane idle gap before the cell) sums to at most
    // the region wall, because one lane's gaps are disjoint.
    prof::Collector &c = prof::Collector::instance();
    c.setEnabled(true);

    c.beginRegion();
    for (int i = 0; i < 50; ++i) {
        prof::CellScope cell("p" + std::to_string(i), "prof-test",
                             "cfg");
        cell.setStatus("ok");
        // Busy time inside the cell: under the old definition each
        // later cell inherited all of it as "queue wait".
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    c.endRegion();
    c.setEnabled(false);

    obs::Json workers = c.workersJson();
    const std::uint64_t regionWall =
        workers.at("region_wall_ns").asU64();
    ASSERT_GT(regionWall, 0u);

    obs::Json cells = c.cellsJson();
    ASSERT_EQ(cells.size(), 50u);
    std::uint64_t totalWait = 0;
    for (std::size_t i = 0; i < cells.size(); ++i)
        totalWait += cells.at(i).at("queue_wait_ns").asU64();
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

TEST_F(ProfSandbox, EpochsAttributeInterpretRecordAndReplayTime)
{
    prof::Collector &c = prof::Collector::instance();
    c.setEnabled(true);

    // The default sweep records each program once (Record epochs) and
    // replays it in batches (ReplayBatch epochs); interpreting every
    // cell runs Interp epochs.
    test::sweepDocument(smallPrograms(), {kHelix}, 1);
    test::sweepDocument(smallPrograms(), {kHelix}, 1,
                        /*traceReplay=*/false);
    c.setEnabled(false);

    obs::Json workers = c.workersJson();
    const obs::Json &lanes = workers.at("workers");
    bool sawInterp = false, sawRecord = false, sawReplay = false;
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        const obs::Json &ep = lanes.at(i).at("epochs");
        sawInterp |= ep.contains("interp");
        sawRecord |= ep.contains("record");
        sawReplay |= ep.contains("replay_batch");
        for (const std::string &kind : ep.keys())
            EXPECT_GT(ep.at(kind).at("instructions").asU64(), 0u);
    }
    EXPECT_TRUE(sawInterp);
    EXPECT_TRUE(sawRecord);
    EXPECT_TRUE(sawReplay);
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
