/**
 * @file
 * Process-wide metrics registry: named counters and fixed-bucket
 * histograms.
 *
 * Recording is off by default (`LP_METRICS=1` turns it on).  Nothing is
 * counted per event: the lane engine tallies its work in plain integers
 * and publishes them once per batch (rt/batch.cpp), and every other
 * site adds once per run, plan, function, module or cell, each guarded
 * by metricsOn() (one relaxed atomic-bool load).
 *
 * Thread-safety (see docs/observability.md): a counter is one relaxed
 * atomic, a histogram one relaxed atomic per bucket plus its count and
 * sum, and the registry one name map behind one instrumented
 * prof::TimedMutex ("obs.registry"), so lp::exec workers may look up
 * and update metrics concurrently.  value()/snapshot reads are exact
 * once the writing threads have been joined (the only time the
 * framework snapshots).  resetAll() and toJson() are quiescent-only by
 * contract, like SpanLog::reset.
 *
 * Metric name catalog (see docs/observability.md):
 *   interp.instructions     dynamic IR instructions of completed runs
 *   interp.runs             Machine::run() calls (aborted ones too)
 *   plan.loops_analyzed     static loops planned by the compile-time side
 *   analysis.loop_pdgs      loop PDGs built (lint and the PDG verdicts)
 *   tracker.mem_events      load/store events delivered to the lane
 *                           engine (a batch's selected ones), x lanes
 *   tracker.conflicts       cross-iteration conflicts (memory + register)
 *   tracker.loop_instances  dynamic loop instances opened, x lanes
 *   tracker.trip_count      histogram of per-instance trip counts
 *   tracker.child_saving_iterations
 *                           iteration boundaries with child savings
 *                           (the per-lane ones), x lanes
 *   model.squashes.<model>  speculative iterations squashed (pdoall/doall)
 *   report.loops_reported   per-loop reports emitted
 * The lane engine counts the tracker.*, model.squashes.* and
 * report.loops_reported metrics of each batch and also puts them in its
 * rt.batch span's args.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "prof/timed_mutex.hpp"

namespace lp::obs {

namespace detail {
extern std::atomic<bool> g_metricsEnabled;
extern std::atomic<unsigned> g_nextLane;
}

/** Are metrics being recorded?  Inlines to one relaxed atomic load. */
inline bool
metricsOn()
{
    return detail::g_metricsEnabled.load(std::memory_order_relaxed);
}

/** Turn recording on/off (LP_METRICS does this from the environment). */
void setMetricsEnabled(bool on);

/**
 * Small dense id of the calling thread, assigned on first use (the main
 * thread is normally lane 0).  Span records carry it as their worker,
 * so Chrome traces show per-worker lanes.
 */
inline unsigned
threadLane()
{
    thread_local const unsigned lane =
        detail::g_nextLane.fetch_add(1, std::memory_order_relaxed);
    return lane;
}

/** Monotonic event count: one relaxed atomic. */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void add(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/**
 * Fixed-bucket histogram: bucket i counts samples <= bounds[i]; one
 * overflow bucket counts the rest.  Bounds are chosen at construction
 * and never change, so record() is a linear scan over a handful of
 * integers followed by three relaxed atomic adds.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<std::uint64_t> bounds);

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    /** Record @p n samples of value @p sample. */
    void record(std::uint64_t sample, std::uint64_t n = 1);

    /** Add every sample of @p other, which has the same bounds. */
    void add(const Histogram &other);

    const std::vector<std::uint64_t> &bounds() const { return bounds_; }
    /** bucketCounts().size() == bounds().size() + 1 (overflow last). */
    std::vector<std::uint64_t> bucketCounts() const;
    std::uint64_t count() const;
    std::uint64_t sum() const;
    double mean() const;
    void reset();

    /** {"bounds": [...], "counts": [...], "count": n, "sum": s,
     *  "mean": m} */
    Json toJson() const;

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<std::atomic<std::uint64_t>> counts_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/**
 * The process-wide registry.  Metrics are created on first lookup and
 * live forever, so references stay valid; resetAll() zeroes values
 * without invalidating them.
 */
class Registry
{
  public:
    static Registry &instance();

    /** Find-or-create. */
    Counter &counter(const std::string &name);
    /** @p bounds only applies on first registration. */
    Histogram &histogram(const std::string &name,
                         std::vector<std::uint64_t> bounds);

    /** Zero every metric (keeps registrations and references). */
    void resetAll();

    /**
     * Snapshot as JSON, names in order:
     *   {"counters": {name: value, ...},
     *    "histograms": {name: Histogram::toJson(), ...}}
     */
    Json toJson() const;

  private:
    Registry() = default;

    mutable prof::TimedMutex mu_{"obs.registry"};
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace lp::obs
