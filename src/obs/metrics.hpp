/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and
 * fixed-bucket histograms.
 *
 * Recording is off by default (`LP_METRICS=1` turns it on).  Hot-path
 * call sites cache the metric pointer once and guard each update with
 * metricsOn(), which inlines to a single relaxed atomic-bool test —
 * with metrics disabled the whole update is one well-predicted branch.
 *
 * Thread-safety (see docs/observability.md): every update path is safe
 * under concurrent use by lp::exec workers.  Counters and histograms
 * shard their state across cache-line-padded atomic cells indexed by
 * threadLane(), so parallel sweeps do not ping-pong one hot line and
 * record() never takes a lock; gauges are single atomics.  The registry
 * itself is sharded by name hash, each shard behind an instrumented
 * prof::TimedMutex ("obs.registry") so lookup contention shows up in
 * profiles instead of hiding (docs/profiling.md).  value()/snapshot
 * reads are exact once the writing threads have been joined (the only
 * time the framework snapshots); concurrent reads see a momentary
 * approximation.  resetAll() and toJson() are quiescent-only by
 * contract, like PhaseTree::reset.
 *
 * Metric name catalog (see docs/observability.md):
 *   interp.instructions     dynamic IR instructions of completed runs
 *   interp.runs             Machine::run() calls (aborted ones too)
 *   tracker.mem_events      load/store events delivered to the lane
 *                           engine (a batch's selected ones), x lanes
 *   tracker.conflicts       cross-iteration conflicts (memory + register)
 *   tracker.loop_instances  dynamic loop instances opened
 *   tracker.trip_count      histogram of per-instance trip counts
 *                           (the lane engine, rt/batch.cpp, bumps every
 *                           tracker.* metric)
 *   plan.loops_analyzed     static loops planned by the compile-time side
 *   model.squashes.<model>  speculative iterations squashed (pdoall/doall)
 *   report.loops_reported   per-loop reports emitted
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
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
 * thread is normally lane 0).  Counters shard by it; span records carry
 * it as their worker, so Chrome traces show per-worker lanes.
 */
inline unsigned
threadLane()
{
    thread_local const unsigned lane =
        detail::g_nextLane.fetch_add(1, std::memory_order_relaxed);
    return lane;
}

/**
 * Monotonic event count, sharded for concurrent add().  value() sums
 * the shards: exact when writers are quiesced (joined), approximate
 * while they run.
 */
class Counter
{
  public:
    Counter() = default;
    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void add(std::uint64_t n = 1)
    {
        shards_[threadLane() & (kShards - 1)].v.fetch_add(
            n, std::memory_order_relaxed);
    }

    std::uint64_t value() const
    {
        std::uint64_t sum = 0;
        for (const Shard &s : shards_)
            sum += s.v.load(std::memory_order_relaxed);
        return sum;
    }

    void reset()
    {
        for (Shard &s : shards_)
            s.v.store(0, std::memory_order_relaxed);
    }

  private:
    static constexpr std::size_t kShards = 8;
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> v{0};
    };
    Shard shards_[kShards];
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double v) { v_.store(v, std::memory_order_relaxed); }
    double value() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> v_{0.0};
};

/**
 * Fixed-bucket histogram: bucket i counts samples <= bounds[i]; one
 * overflow bucket counts the rest.  Bounds are chosen at registration
 * and never change, so record() is a linear scan over a handful of
 * integers followed by three relaxed atomic adds on the calling
 * thread's shard — lock-free, the same sharding discipline Counter
 * uses.  The accessors sum the shards: exact once writers are
 * quiesced, a momentary approximation while they run.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<std::uint64_t> bounds);

    Histogram(const Histogram &) = delete;
    Histogram &operator=(const Histogram &) = delete;

    void record(std::uint64_t sample);

    const std::vector<std::uint64_t> &bounds() const { return bounds_; }
    /** bucketCounts().size() == bounds().size() + 1 (overflow last). */
    std::vector<std::uint64_t> bucketCounts() const;
    std::uint64_t count() const;
    std::uint64_t sum() const;
    double mean() const;
    void reset();

  private:
    static constexpr std::size_t kShards = 8;
    struct alignas(64) Shard
    {
        std::unique_ptr<std::atomic<std::uint64_t>[]> counts;
        std::atomic<std::uint64_t> count{0};
        std::atomic<std::uint64_t> sum{0};
    };

    std::vector<std::uint64_t> bounds_;
    Shard shards_[kShards];
};

/**
 * The process-wide registry.  Metrics are created on first lookup and
 * live forever, so cached pointers stay valid; resetAll() zeroes values
 * without invalidating them.  Lookups hash the name to one of a few
 * independent shards (each behind an instrumented mutex), so concurrent
 * first-lookups of different metrics do not serialize on one lock;
 * updates through cached pointers never lock at all.  toJson() merges
 * the shards back into name order, so its output is independent of the
 * sharding.
 */
class Registry
{
  public:
    static Registry &instance();

    /** Find-or-create. */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    /** @p bounds only applies on first registration. */
    Histogram &histogram(const std::string &name,
                         std::vector<std::uint64_t> bounds);

    /** Zero every metric (keeps registrations and cached pointers). */
    void resetAll();

    /**
     * Snapshot as JSON:
     *   {"counters": {name: value, ...},
     *    "gauges": {name: value, ...},
     *    "histograms": {name: {"bounds": [...], "counts": [...],
     *                          "count": n, "sum": s, "mean": m}}}
     */
    Json toJson() const;

  private:
    static constexpr std::size_t kShards = 8;
    struct Shard
    {
        mutable prof::TimedMutex mu{"obs.registry"};
        std::map<std::string, std::unique_ptr<Counter>> counters;
        std::map<std::string, std::unique_ptr<Gauge>> gauges;
        std::map<std::string, std::unique_ptr<Histogram>> histograms;
    };

    Registry() = default;

    Shard &shardFor(const std::string &name)
    {
        return shards_[std::hash<std::string>{}(name) & (kShards - 1)];
    }

    Shard shards_[kShards];
};

} // namespace lp::obs
