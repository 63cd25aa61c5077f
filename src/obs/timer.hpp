/**
 * @file
 * Scoped phases: the one span primitive.
 *
 * Each pipeline layer wraps itself in a ScopedPhase named after the
 * layer ("core.prepare", "ir.build", "rt.batch", ...;
 * docs/profiling.md lists them).  A phase feeds two views:
 *
 *  - the phase tree.  Nesting follows the call stack, so the process
 *    accumulates a tree like core.prepare -> ir.build with per-phase
 *    wall-clock time, invocation counts, and (where the phase reports
 *    it) dynamic instruction counts.  Repeated phases with the same
 *    name under the same parent merge into one node, so a sweep over
 *    30 programs still produces a readable tree.  It is always on: a
 *    phase is entered a handful of times per program, so two clock
 *    reads are noise next to interpreting it.
 *  - the span log, while a profile is recording (prof::profilingOn()):
 *    one record per phase (name, worker lane, start, wall, parent span,
 *    args), plus the instants obs::instant() adds.  `--profile` renders
 *    it (prof/profile.hpp); json mode also streams every record as it
 *    closes, so a killed run keeps its telemetry.
 *
 * Both read one clock, obs::clockNs().
 *
 * Thread-safety: the open phase and the open span a ScopedPhase moves
 * are thread-local, so every thread nests independently; lp::exec
 * workers start at the root, and a span's parent is always on its own
 * worker.  Node creation takes the tree mutex; count/wall/instruction
 * accumulation is relaxed-atomic; the span log appends behind its own
 * instrumented mutex ("obs.spans").  PhaseTree::reset/toJson and
 * SpanLog::reset/records are quiescent-only by contract.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "prof/timed_mutex.hpp"

namespace lp::obs {

/**
 * Nanoseconds on the obs clock (steady, counted from its first reading
 * in the process): every phase's wall time and every span's start.
 */
std::uint64_t clockNs();

/** One node of the accumulated phase tree. */
struct PhaseNode
{
    std::string name;
    std::atomic<std::uint64_t> count{0};     ///< times the phase completed
    std::atomic<std::uint64_t> wallNanos{0}; ///< total wall-clock inside
    std::atomic<std::uint64_t> instructions{0}; ///< dynamic IR attributed
    std::vector<std::unique_ptr<PhaseNode>> children;

    /**
     * {"name": ..., "count": n, "wall_ns": ns, "instructions": k,
     *  "children": [...]}
     */
    Json toJson() const;
};

/** The process-wide phase tree and the cursor ScopedPhase moves. */
class PhaseTree
{
  public:
    static PhaseTree &instance();

    const PhaseNode &root() const { return root_; }

    /**
     * Drop all accumulated phases (tests, bench baselines).  Call only
     * while no phase is open anywhere — node pointers dangle otherwise.
     */
    void reset();

    /** JSON of the root's children (the root itself is synthetic). */
    Json toJson() const;

  private:
    friend class ScopedPhase;
    PhaseTree() { root_.name = "run"; }

    /** This thread's open phase; root when none is. */
    PhaseNode *current();
    void setCurrent(PhaseNode *node);

    /** Find-or-create @p name under @p parent (takes the tree mutex). */
    PhaseNode *childOf(PhaseNode *parent, const std::string &name);

    PhaseNode root_;
    mutable std::mutex mu_;
};

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

    /** Flush and close the stream, if any. */
    void closeStream();

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
    std::atomic<std::uint64_t> nextId_{1};
};

/**
 * Record an instant named @p name with @p args in the span log, inside
 * the calling thread's open span.  A no-op unless a profile is
 * recording.
 */
void instant(const std::string &name, Json args);

/**
 * The Chrome trace_event document of @p records: spans as complete
 * ("X") events and instants as "i" events, one tid per worker lane,
 * microseconds on the obs clock.  Open it in ui.perfetto.dev.
 */
Json chromeTrace(const std::vector<SpanRecord> &records);

/** RAII phase scope.  Not movable; construct on the stack only. */
class ScopedPhase
{
  public:
    explicit ScopedPhase(const std::string &name);
    ~ScopedPhase();

    ScopedPhase(const ScopedPhase &) = delete;
    ScopedPhase &operator=(const ScopedPhase &) = delete;

    /**
     * Attribute @p n dynamic instructions to this phase (its span's
     * "instructions" arg, when recorded).
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
    PhaseNode *node_;
    PhaseNode *parent_;
    std::uint64_t startNanos_;
    std::uint64_t instructions_ = 0; ///< added via this scope
    std::uint64_t spanId_ = 0;       ///< 0 = not recorded
    std::uint64_t parentSpan_ = 0;
    std::uint64_t lockWait0_ = 0; ///< prof::threadLockWaitNs() at open
    Json args_;
};

} // namespace lp::obs
