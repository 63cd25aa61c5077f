/**
 * @file
 * Scoped phases and the span log: the one span primitive.
 *
 * Each pipeline layer wraps itself in a ScopedPhase named after the
 * layer ("core.prepare", "ir.build", "rt.batch", ...;
 * docs/profiling.md lists them).  While spans are recorded (spansOn():
 * metrics or a profile are on), a phase appends one record to the span
 * log when it closes: name, worker lane, start, wall, parent span and
 * args, on one clock, obs::clockNs(); obs::instant() adds instants.
 * Otherwise a phase does nothing.  Every other view is computed from
 * the log:
 *
 *  - phasesJson(): the phase tree, spans merged by name under the same
 *    parent with their counts, wall time and instructions (the
 *    "phases" section of reports under LP_METRICS=1);
 *  - chromeTrace(): the Chrome trace_event timeline;
 *  - the profile's tasks, cells and workers (prof/profile.hpp).
 *
 * A json-mode profile also streams every record as it closes, so a
 * killed run keeps its telemetry.
 *
 * Thread-safety: the open span a ScopedPhase moves is thread-local, so
 * every thread nests independently; lp::exec workers start at the
 * root, and a span's parent is always on its own worker.  The span log
 * appends behind one instrumented mutex ("obs.spans").
 * SpanLog::reset/records are quiescent-only by contract.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "prof/timed_mutex.hpp"

namespace lp::obs {

/**
 * Nanoseconds on the obs clock (steady, counted from its first reading
 * in the process): every span's start and wall time.
 */
std::uint64_t clockNs();

/**
 * Are spans being recorded?  While metrics are on (their report
 * carries the phases view) or a profile records.
 */
inline bool
spansOn()
{
    return metricsOn() || prof::profilingOn();
}

/** One record of the span log: a closed span, or an instant. */
struct SpanRecord
{
    std::uint64_t id = 0;     ///< 1-based, in the order spans opened
    std::uint64_t parent = 0; ///< enclosing span on this worker; 0 = none
    std::string name;
    unsigned worker = 0;       ///< obs::threadLane() of its thread
    std::uint64_t startNs = 0; ///< obs::clockNs() when it opened
    std::uint64_t wallNs = 0;  ///< 0 for an instant
    bool instant = false;
    /** Instructions the span attributed to itself with
     *  ScopedPhase::addInstructions (also in args when nonzero); the
     *  phases view sums these. */
    std::uint64_t instructions = 0;
    Json args = Json::object();

    /**
     * {"id", "parent" (null for none), "name", "worker", "start_ns",
     *  "wall_ns", "instant", "args"}
     */
    Json toJson() const;
};

/** The process span log: every record, in the order they closed. */
class SpanLog
{
  public:
    static SpanLog &instance();

    /**
     * Drop every record and, when @p streamPath is non-empty, also
     * write each new record to it (truncated first) as one JSON line,
     * flushed as the record closes.  Returns false when the stream
     * cannot be opened; records are kept either way.  Quiescent-only.
     */
    bool reset(const std::string &streamPath = "");

    /**
     * Flush and close the stream, if any.  Returns false when a line
     * or the close failed to write.
     */
    bool closeStream();

    /** Every record so far, in close order.  Quiescent-only. */
    std::vector<SpanRecord> records() const;

  private:
    friend class ScopedPhase;
    friend void instant(const std::string &name, Json args);
    SpanLog() = default;

    std::uint64_t nextId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }
    void append(SpanRecord rec);

    mutable prof::TimedMutex mu_{"obs.spans"};
    std::vector<SpanRecord> records_;
    std::unique_ptr<std::ofstream> stream_;
    bool streamFailed_ = false; ///< a line could not be written
    std::atomic<std::uint64_t> nextId_{1};
};

/**
 * Record an instant named @p name with @p args in the span log, inside
 * the calling thread's open span.  A no-op unless spansOn().
 */
void instant(const std::string &name, Json args);

/**
 * The Chrome trace_event document of @p records: spans as complete
 * ("X") events and instants as "i" events, one tid per worker lane,
 * microseconds on the obs clock.  Open it in ui.perfetto.dev.
 */
Json chromeTrace(const std::vector<SpanRecord> &records);

/**
 * The phase tree of @p records: every span merged with the spans of
 * the same name under the same parent phase, as an array of the root's
 * children, each {"name", "count", "wall_ns", "instructions",
 * "children": [...]}, siblings in the order they first opened.
 * Instants are left out; a span whose parent is not in @p records is a
 * root.
 */
Json phasesJson(const std::vector<SpanRecord> &records);

/**
 * RAII phase scope: one span-log record while spansOn(), nothing
 * otherwise.  Not movable; construct on the stack only.
 */
class ScopedPhase
{
  public:
    explicit ScopedPhase(const std::string &name);
    ~ScopedPhase();

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

    /**
     * Attribute @p n dynamic instructions to this phase: its record's
     * `instructions` (what the phases view sums) and "instructions"
     * arg, when recorded.
     */
    void addInstructions(std::uint64_t n) { instructions_ += n; }

    /**
     * Set @p key in this span's args.  A no-op unless the span is being
     * recorded.  The span adds "instructions" and "lock_wait_ns" (the
     * contended TimedMutex wait inside it) itself when they are nonzero.
     */
    void set(const std::string &key, Json value)
    {
        if (spanId_ != 0)
            args_.set(key, std::move(value));
    }

  private:
    std::string name_;
    std::uint64_t startNanos_ = 0;
    std::uint64_t instructions_ = 0; ///< added via this scope
    std::uint64_t spanId_ = 0;       ///< 0 = not recorded
    std::uint64_t parentSpan_ = 0;
    std::uint64_t lockWait0_ = 0; ///< prof::threadLockWaitNs() at open
    Json args_;
};

} // namespace lp::obs
