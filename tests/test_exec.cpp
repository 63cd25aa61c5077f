/**
 * @file
 * Tests for the lp::exec work-pool layer and the thread-safety
 * guarantees it leans on: parallelFor semantics (ordering, exception
 * capture, jobs resolution), concurrent metrics recording, and the
 * headline determinism contract — a parallel suite sweep produces
 * reports identical to a serial one.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/sweep.hpp"
#include "exec/pool.hpp"
#include "guard/checkpoint.hpp"
#include "helpers.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "rt/plan.hpp"
#include "support/error.hpp"

namespace lp {
namespace {

using exec::parallelFor;
using exec::ThreadPool;

// ----------------------------------------------------------- parallelFor

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        std::vector<std::atomic<int>> hits(100);
        parallelFor(
            hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); },
            jobs);
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i << " jobs "
                                         << jobs;
    }
}

TEST(ParallelFor, ResultOrderIsIndexOrder)
{
    // Callers index their output by i; whatever the scheduling, the
    // output vector must equal the serial one.
    auto sweep = [](unsigned jobs) {
        std::vector<std::uint64_t> out(257);
        parallelFor(
            out.size(), [&](std::size_t i) { out[i] = i * i + 7; }, jobs);
        return out;
    };
    EXPECT_EQ(sweep(1), sweep(4));
}

TEST(ParallelFor, ZeroAndOneElementRunInline)
{
    std::atomic<int> calls{0};
    parallelFor(0, [&](std::size_t) { calls.fetch_add(1); }, 8);
    EXPECT_EQ(calls.load(), 0);

    std::thread::id caller = std::this_thread::get_id();
    parallelFor(
        1,
        [&](std::size_t) {
            EXPECT_EQ(std::this_thread::get_id(), caller);
            calls.fetch_add(1);
        },
        8);
    EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, RethrowsLowestFailingIndex)
{
    for (unsigned jobs : {1u, 4u}) {
        try {
            parallelFor(
                64,
                [&](std::size_t i) {
                    if (i == 7 || i == 9)
                        throw std::runtime_error("boom " +
                                                 std::to_string(i));
                },
                jobs);
            FAIL() << "expected runtime_error (jobs " << jobs << ")";
        } catch (const std::runtime_error &e) {
            // Index 9 can only fail after 7 was already issued; the
            // lowest failing index wins deterministically.
            EXPECT_STREQ(e.what(), "boom 7") << "jobs " << jobs;
        }
    }
}

TEST(ParallelFor, StopsIssuingAfterFailure)
{
    std::atomic<int> ran{0};
    try {
        parallelFor(
            100'000,
            [&](std::size_t i) {
                ran.fetch_add(1);
                if (i == 0)
                    throw std::runtime_error("early");
            },
            4);
        FAIL() << "expected runtime_error";
    } catch (const std::runtime_error &) {
    }
    // Already-started tasks finish, but the remaining iteration space
    // must be abandoned.
    EXPECT_LT(ran.load(), 100'000);
}

TEST(ParallelFor, ParseJobsTakesCountsZeroAndAutoOnly)
{
    // The one validator behind --jobs and LP_JOBS.
    EXPECT_EQ(exec::parseJobs("1"), 1u);
    EXPECT_EQ(exec::parseJobs("4"), 4u);
    EXPECT_EQ(exec::parseJobs("4096"), 4096u);
    EXPECT_EQ(exec::parseJobs("0"), exec::resolveJobs(0));
    EXPECT_EQ(exec::parseJobs("auto"), exec::resolveJobs(0));
    // Signs, spaces and trailing text are refused, not parsed around.
    for (const char *bad : {"", "-1", "4x", "+4", " 4", "4 ", "4097",
                            "0x4", "1e3", "auto4", "00",
                            "99999999999999999999"})
        EXPECT_EQ(exec::parseJobs(bad), std::nullopt) << '"' << bad << '"';
}

TEST(ParallelFor, JobsResolution)
{
    EXPECT_GE(exec::resolveJobs(0), 1u); // 0 = all hardware threads
    EXPECT_EQ(exec::resolveJobs(3), 3u);

    exec::setJobsOverride(5);
    EXPECT_EQ(exec::defaultJobs(), 5u);
    exec::setJobsOverride(0);
    // With the override cleared, the default falls back to LP_JOBS or 1;
    // either way it is a positive worker count.
    EXPECT_GE(exec::defaultJobs(), 1u);
}

// ------------------------------------------------------------ ThreadPool

TEST(ThreadPoolTest, RunsPostedTasks)
{
    std::atomic<int> sum{0};
    {
        ThreadPool pool(4);
        EXPECT_EQ(pool.workers(), 4u);
        for (int i = 1; i <= 100; ++i)
            pool.post([&sum, i] { sum.fetch_add(i); });
        pool.wait();
        EXPECT_EQ(sum.load(), 5050);
    }
}

TEST(ThreadPoolTest, WaitIsReusable)
{
    std::atomic<int> n{0};
    ThreadPool pool(2);
    pool.post([&] { n.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(n.load(), 1);
    pool.post([&] { n.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(n.load(), 2);
}

// -------------------------------------------------- concurrent metrics

TEST(ConcurrentMetrics, CounterTotalsMatchSerialSum)
{
    const bool was = obs::metricsOn();
    obs::setMetricsEnabled(true);
    obs::Counter &c = obs::Registry::instance().counter("test.exec.ctr");
    c.reset();

    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kAddsPerThread = 50'000;
    parallelFor(
        kThreads,
        [&](std::size_t) {
            for (std::uint64_t i = 0; i < kAddsPerThread; ++i)
                c.add(2);
        },
        kThreads);

    EXPECT_EQ(c.value(), 2 * kThreads * kAddsPerThread);
    c.reset();
    obs::setMetricsEnabled(was);
}

TEST(ConcurrentMetrics, HistogramTotalsMatchSerialSum)
{
    const bool was = obs::metricsOn();
    obs::setMetricsEnabled(true);
    obs::Histogram &h = obs::Registry::instance().histogram(
        "test.exec.hist", {10, 100, 1000});
    h.reset();

    constexpr unsigned kThreads = 8;
    constexpr std::uint64_t kPerThread = 10'000;
    parallelFor(
        kThreads,
        [&](std::size_t t) {
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                h.record((t * kPerThread + i) % 2000);
        },
        kThreads);

    EXPECT_EQ(h.count(), kThreads * kPerThread);
    const std::vector<std::uint64_t> buckets = h.bucketCounts();
    std::uint64_t bucketSum = std::accumulate(
        buckets.begin(), buckets.end(), std::uint64_t{0});
    EXPECT_EQ(bucketSum, h.count());
    h.reset();
    obs::setMetricsEnabled(was);
}

TEST(ConcurrentMetrics, RegistryLookupUnderContention)
{
    // Find-or-create from many threads must yield one counter per name
    // and lose no updates.
    const bool was = obs::metricsOn();
    obs::setMetricsEnabled(true);
    parallelFor(
        8,
        [&](std::size_t) {
            for (int i = 0; i < 1000; ++i)
                obs::Registry::instance()
                    .counter("test.exec.lookup" + std::to_string(i % 4))
                    .add(1);
        },
        8);
    std::uint64_t total = 0;
    for (int i = 0; i < 4; ++i) {
        obs::Counter &c = obs::Registry::instance().counter(
            "test.exec.lookup" + std::to_string(i));
        total += c.value();
        c.reset();
    }
    EXPECT_EQ(total, 8u * 1000u);
    obs::setMetricsEnabled(was);
}

TEST(ConcurrentMetrics, PhaseTimersFromWorkers)
{
    const bool was = obs::metricsOn();
    obs::setMetricsEnabled(true); // spans are recorded
    obs::SpanLog::instance().reset();
    parallelFor(
        8,
        [&](std::size_t) {
            for (int i = 0; i < 200; ++i) {
                obs::ScopedPhase outer("worker-phase");
                obs::ScopedPhase inner("inner");
                inner.addInstructions(3);
            }
        },
        8);
    obs::setMetricsEnabled(was);
    // 8 * 200 spans from every worker merge into one phase per name.
    const obs::Json tree =
        obs::phasesJson(obs::SpanLog::instance().records());
    obs::SpanLog::instance().reset();
    ASSERT_EQ(tree.size(), 1u) << tree.dump();
    EXPECT_EQ(tree.at(0).at("name").asString(), "worker-phase");
    EXPECT_EQ(tree.at(0).at("count").asU64(), 1600u);
    ASSERT_EQ(tree.at(0).at("children").size(), 1u);
    const obs::Json &inner = tree.at(0).at("children").at(0);
    EXPECT_EQ(inner.at("count").asU64(), 1600u);
    EXPECT_EQ(inner.at("instructions").asU64(), 3u * 1600u);
}

// --------------------------------------------------------- determinism

std::vector<core::BenchProgram>
smallPrograms()
{
    auto mk = [](const char *name, auto builder) {
        core::BenchProgram p;
        p.name = name;
        p.suite = "exec-test";
        p.build = builder;
        return p;
    };
    return {
        mk("saxpy", [] { return test::buildSaxpy(64); }),
        mk("sum", [] { return test::buildSumReduction(64); }),
        mk("chase", [] { return test::buildPointerChase(48); }),
        mk("hist", [] { return test::buildHistogram(128, 8); }),
        mk("calls", [] {
            return test::buildLoopWithCalls(32,
                                            test::CalleeKind::UnsafeExt);
        }),
    };
}

/** One sweep over smallPrograms() at @p jobs workers, its document
 *  dumped. */
std::string
sweepFingerprint(unsigned jobs)
{
    using rt::ExecModel;
    using rt::LPConfig;
    return test::sweepDocument(
               smallPrograms(),
               {LPConfig::parse("reduc0-dep0-fn0", ExecModel::DoAll),
                LPConfig::parse("reduc1-dep0-fn0", ExecModel::DoAll),
                LPConfig::parse("reduc0-dep0-fn0", ExecModel::PartialDoAll),
                LPConfig::parse("reduc1-dep2-fn2", ExecModel::PartialDoAll),
                LPConfig::parse("reduc0-dep0-fn2", ExecModel::Helix),
                LPConfig::parse("reduc1-dep1-fn2", ExecModel::Helix)},
               jobs)
        .dump();
}

TEST(Determinism, ParallelSweepMatchesSerialByteForByte)
{
    std::string serial = sweepFingerprint(1);
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, sweepFingerprint(4));
}

TEST(Determinism, RepeatedParallelSweepsAgree)
{
    // Run-to-run: stateful externals (rand) are copied per Machine, so
    // results cannot depend on scheduling order across repetitions.
    EXPECT_EQ(sweepFingerprint(4), sweepFingerprint(4));
}

TEST(Determinism, StudyPreparationParallelMatchesSerial)
{
    core::StudyOptions serialOpts, parallelOpts;
    serialOpts.jobs = 1;
    parallelOpts.jobs = 4;
    core::Study serial(smallPrograms(), serialOpts);
    core::Study parallel(smallPrograms(), parallelOpts);
    ASSERT_EQ(serial.programs().size(), parallel.programs().size());
    rt::LPConfig cfg =
        rt::LPConfig::parse("reduc1-dep1-fn2", rt::ExecModel::Helix);
    for (std::size_t i = 0; i < serial.programs().size(); ++i) {
        EXPECT_EQ(serial.programs()[i]->name(),
                  parallel.programs()[i]->name());
        EXPECT_EQ(serial.programs()[i]->run(cfg).toJson(false).dump(),
                  parallel.programs()[i]->run(cfg).toJson(false).dump());
    }
}

TEST(Determinism, ConcurrentRunsOverOneDriverAgree)
{
    // Many Machines over one module + one plan, all at once: the module
    // must stay immutable (globals get per-Machine addresses, externals
    // per-Machine impl copies).
    auto mod =
        test::buildLoopWithCalls(64, test::CalleeKind::UnsafeExt);
    core::Loopapalooza driver(*mod);
    rt::LPConfig cfg =
        rt::LPConfig::parse("reduc0-dep2-fn2", rt::ExecModel::Helix);

    std::vector<std::string> dumps(16);
    parallelFor(
        dumps.size(),
        [&](std::size_t i) {
            dumps[i] = driver.run(cfg).toJson(false).dump();
        },
        8);
    for (std::size_t i = 1; i < dumps.size(); ++i)
        EXPECT_EQ(dumps[0], dumps[i]) << "run " << i << " diverged";
}

// ---------------------------------------------------- suite aggregation

TEST(SweepAggregation, DegenerateCellsAreClampedNotFatal)
{
    // A cell whose speedup or coverage is 0 (say, zero serial cost)
    // must depress its row's geomeans, not abort the sweep:
    // GeomeanAccum rejects non-positive samples, so runSweep clamps
    // speedup to 1e-6 and coverage to 0.1%.  A resumed checkpoint
    // holding such a cell feeds the aggregation directly.
    const std::string path = ::testing::TempDir() + "lp_exec_clamp.jsonl";
    std::remove(path.c_str());
    rt::LPConfig cfg =
        rt::LPConfig::parse("reduc1-dep1-fn2", rt::ExecModel::Helix);
    const obs::Json healthy =
        test::sweepDocument(smallPrograms(), {cfg}, /*jobs=*/1);

    {
        guard::Checkpoint ck(path, /*resume=*/false);
        const obs::Json &reports = healthy.at("reports");
        for (std::size_t i = 0; i < reports.size(); ++i) {
            obs::Json cell = reports.at(i);
            if (i == 0) {
                cell.set("speedup", 0.0);
                cell.set("coverage", 0.0);
            }
            ck.record(guard::Checkpoint::cellKey(
                          cfg.str(), "exec-test",
                          cell.at("program").asString()),
                      cell);
        }
    }
    core::SweepRequest req;
    req.configs = {{cfg.str(), cfg}};
    req.wantJson = true;
    req.checkpointPath = path;
    req.resume = true;
    std::ostream discard(nullptr);
    core::SweepResult res;
    ASSERT_NO_THROW(res = core::runSweep(smallPrograms(), req, discard));
    const obs::Json &row = res.document.at("suites").at(0);
    const obs::Json &was = healthy.at("suites").at(0);
    EXPECT_EQ(row.at("ok").asU64(), was.at("ok").asU64());
    EXPECT_GT(row.at("geomean_speedup").asDouble(), 0.0);
    EXPECT_LT(row.at("geomean_speedup").asDouble(),
              was.at("geomean_speedup").asDouble());
    EXPECT_GT(row.at("geomean_coverage_pct").asDouble(), 0.0);
    EXPECT_LT(row.at("geomean_coverage_pct").asDouble(),
              was.at("geomean_coverage_pct").asDouble());
    std::remove(path.c_str());
}

} // namespace
} // namespace lp
