/**
 * @file
 * A1: framework micro-benchmarks (google-benchmark).
 *
 * The paper argues (Section III-A) that compile-time filtering keeps the
 * run-time tracking overhead low enough to "scale to large applications".
 * These benchmarks measure the moving parts of this implementation:
 * interpreter throughput with and without a listener, full limit-study
 * throughput, predictor cost, and the compile-time component itself.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <thread>

#include "common.hpp"
#include "core/driver.hpp"
#include "exec/pool.hpp"
#include "interp/machine.hpp"
#include "ir/builder.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "predict/predictor.hpp"
#include "rt/tracker.hpp"
#include "suites/kernels.hpp"

namespace {

using namespace lp;

/** Plain interpretation, no instrumentation. */
void
BM_InterpreterBare(benchmark::State &state)
{
    auto mod = suites::buildEembcRgbcmyk();
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        interp::Machine m(*mod);
        benchmark::DoNotOptimize(m.run());
        instructions += m.cost();
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterBare)->Unit(benchmark::kMillisecond);

/** Interpretation with a no-op listener: virtual-dispatch overhead. */
void
BM_InterpreterNullListener(benchmark::State &state)
{
    auto mod = suites::buildEembcRgbcmyk();
    interp::ExecListener nop;
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        interp::Machine m(*mod, &nop);
        benchmark::DoNotOptimize(m.run());
        instructions += m.cost();
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_InterpreterNullListener)->Unit(benchmark::kMillisecond);

/** Full limit study (tracking + models) on a conflict-heavy kernel. */
void
BM_FullLimitStudy(benchmark::State &state)
{
    auto mod = suites::buildCint2000Bzip2();
    core::Loopapalooza lp(*mod);
    rt::LPConfig cfg =
        rt::LPConfig::parse("reduc0-dep2-fn2", rt::ExecModel::Helix);
    std::uint64_t instructions = 0;
    for (auto _ : state) {
        rt::ProgramReport rep = lp.run(cfg);
        benchmark::DoNotOptimize(rep.parallelCost);
        instructions += rep.serialCost;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FullLimitStudy)->Unit(benchmark::kMillisecond);

/** Compile-time component alone (analyses + instrumentation plan). */
void
BM_CompileTimeComponent(benchmark::State &state)
{
    auto mod = suites::buildCint2000Gcc();
    for (auto _ : state) {
        rt::ModulePlan plan(*mod);
        benchmark::DoNotOptimize(&plan);
    }
}
BENCHMARK(BM_CompileTimeComponent)->Unit(benchmark::kMillisecond);

/** Hybrid predictor training throughput. */
void
BM_HybridPredictor(benchmark::State &state)
{
    predict::HybridPredictor pred;
    std::uint64_t x = 12345;
    std::uint64_t n = 0;
    for (auto _ : state) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        benchmark::DoNotOptimize(pred.predictAndTrain(x >> 33));
        ++n;
    }
    state.counters["values/s"] = benchmark::Counter(
        static_cast<double>(n), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HybridPredictor);

/** Module construction via IRBuilder (kernel build cost). */
void
BM_KernelConstruction(benchmark::State &state)
{
    for (auto _ : state) {
        auto mod = suites::buildCfp2006Soplex();
        benchmark::DoNotOptimize(mod.get());
    }
}
BENCHMARK(BM_KernelConstruction)->Unit(benchmark::kMillisecond);

/**
 * Interpret-every-cell, sweep-shaped: one program under all of the
 * paper's configurations, serially, a fresh driver per iteration.
 */
void
BM_ConfigSweepPerProgram(benchmark::State &state)
{
    auto mod = suites::buildCint2000Bzip2();
    std::vector<rt::LPConfig> configs;
    for (const auto &named : core::paperConfigs())
        configs.push_back(named.config);

    std::uint64_t instructions = 0;
    for (auto _ : state) {
        core::Loopapalooza driver(*mod);
        for (const rt::LPConfig &c : configs) {
            rt::ProgramReport rep = driver.run(c);
            benchmark::DoNotOptimize(rep.parallelCost);
            instructions += rep.serialCost;
        }
    }
    state.counters["cell_instr/s"] = benchmark::Counter(
        static_cast<double>(instructions), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConfigSweepPerProgram)->Unit(benchmark::kMillisecond);

/**
 * Measure one phase: run @p body (which returns dynamic instructions
 * executed) @p reps times after one warm-up, and report instructions
 * per wall-clock second.
 */
template <typename Body>
lp::obs::Json
measurePhase(int reps, Body body)
{
    using clock = std::chrono::steady_clock;
    body(); // warm-up
    std::uint64_t instructions = 0;
    auto start = clock::now();
    for (int i = 0; i < reps; ++i)
        instructions += body();
    double secs = std::chrono::duration<double>(clock::now() - start)
                      .count();

    lp::obs::Json out = lp::obs::Json::object();
    out.set("runs", reps);
    out.set("instructions", instructions);
    out.set("wall_seconds", secs);
    out.set("instr_per_sec",
            secs > 0 ? static_cast<double>(instructions) / secs : 0.0);
    return out;
}

/**
 * BENCH_framework.json: the repo's perf baseline.  Interpret and track
 * phases are measured with observability fully disabled (the default
 * configuration whose cost the ≤2% budget guards); one extra
 * instrumented run then populates the metrics snapshot.
 */
void
writeBenchBaseline()
{
    auto interpMod = suites::buildEembcRgbcmyk();
    auto trackMod = suites::buildCint2000Bzip2();
    core::Loopapalooza driver(*trackMod);
    rt::LPConfig cfg =
        rt::LPConfig::parse("reduc0-dep2-fn2", rt::ExecModel::Helix);

    obs::Json doc = obs::Json::object();
    doc.set("bench", "framework_perf");
    doc.set("cost_unit", "dynamic IR instructions");
    // The host record.  hardware_concurrency() alone answers 0
    // ("unknown") or 1 under container cpu masks even when wider
    // --jobs runs fine, so the guarded exec::hardwareThreads() width
    // is recorded next to the raw answer.
    doc.set("hardware_concurrency", exec::hardwareThreads());
    doc.set("hardware_concurrency_raw",
            std::thread::hardware_concurrency());

    doc.set("interpret", measurePhase(5, [&] {
        interp::Machine m(*interpMod);
        m.run();
        return m.cost();
    }));
    doc.set("track", measurePhase(5, [&] {
        rt::ProgramReport rep = driver.run(cfg);
        return rep.serialCost;
    }));

    // Fused batches: the 14-config grid over one suite, serial, fresh
    // drivers per measurement.  "speedup_batched" is the ratio of
    // interpret-every-cell to the one-interpretation SoA batch
    // runSweep uses.
    {
        std::vector<std::unique_ptr<ir::Module>> mods;
        for (const auto &prog : suites::nonNumericPrograms())
            mods.push_back(prog.build());
        std::vector<rt::LPConfig> configs;
        for (const auto &named : core::paperConfigs())
            configs.push_back(named.config);
        auto interpretOnce = [&] {
            std::uint64_t instructions = 0;
            for (const auto &mod : mods) {
                core::Loopapalooza sweepDriver(*mod);
                for (const rt::LPConfig &c : configs)
                    instructions += sweepDriver.run(c).serialCost;
            }
            return instructions;
        };
        // Fused batch: one interpretation of each program serves the
        // whole config grid (rt::runLimitStudyBatched) — the mode
        // runSweep uses by default.
        auto batchedOnce = [&] {
            std::uint64_t instructions = 0;
            for (const auto &mod : mods) {
                core::Loopapalooza sweepDriver(*mod);
                for (const auto &rep :
                     sweepDriver.runReplayBatched(configs))
                    instructions += rep.serialCost;
            }
            return instructions;
        };
        obs::Json tr = obs::Json::object();
        obs::Json interp = measurePhase(3, interpretOnce);
        obs::Json batched = measurePhase(3, batchedOnce);
        double si = interp.at("wall_seconds").asDouble();
        double sb = batched.at("wall_seconds").asDouble();
        tr.set("cells", mods.size() * configs.size());
        tr.set("interpret", std::move(interp));
        tr.set("batched", std::move(batched));
        tr.set("speedup_batched", sb > 0 ? si / sb : 0.0);
        doc.set("trace_replay", std::move(tr));
    }

    // One instrumented analyze+run so the snapshot reflects real counter
    // flow, including the compile-time and speculative-model counters.
    const bool wasEnabled = obs::metricsOn();
    obs::setMetricsEnabled(true);
    obs::Registry::instance().resetAll();
    {
        core::Loopapalooza instrumented(*trackMod);
        (void)instrumented.run(cfg);
        (void)instrumented.run(rt::LPConfig::parse(
            "reduc0-dep2-fn2", rt::ExecModel::PartialDoAll));
    }
    obs::setMetricsEnabled(wasEnabled);
    doc.set("metrics", obs::Registry::instance().toJson());
    doc.set("phases", obs::PhaseTree::instance().toJson());

    std::string path = lp::bench::benchJsonPath("framework");
    if (lp::bench::writeJsonFile(path, doc))
        std::cout << "wrote " << path << "\n";
    else
        std::cerr << "cannot write " << path << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    writeBenchBaseline();
    return 0;
}
