/**
 * @file
 * Instrumented lock primitives (`lp::prof`) — the contention half of the
 * profiling subsystem.
 *
 * A TimedMutex is a drop-in std::mutex replacement bound to a named
 * *lock site* ("core.trace_record", "obs.spans", ...).  With profiling
 * off (the default) lock() is a plain std::mutex::lock behind one
 * relaxed atomic-bool test — the same inline guard discipline
 * obs::metricsOn() uses, so adopting a TimedMutex costs nothing until
 * someone asks for a profile.  With profiling on, lock() takes an
 * uncontended try_lock fast path (no clock read); only the *contended*
 * path reads the steady clock around the blocking acquire and records
 * the wait into the site's stats and into a thread-local wait-ns
 * accumulator (obs::ScopedPhase diffs the latter to attribute lock-wait
 * to each span).
 *
 * This header is deliberately free of lp::obs includes: lp::obs itself
 * adopts TimedMutex for its span-log and registry mutexes, so the
 * dependency must point obs -> prof at the header level only
 * (everything here is header-only inline; the profile view lives in
 * prof/profile.hpp and does link against lp_obs).
 *
 * Thread-safety: lock()/try_lock()/unlock() are safe from any thread
 * (it is a mutex).  Site stats are relaxed atomics; snapshots are exact
 * once writers are quiesced.  Site registration
 * (the first TimedMutex constructed per name) takes a private
 * registration mutex — construction is cold by design.
 */

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lp::prof {

namespace detail {

/** Master switch; read inline by every instrumented site. */
inline std::atomic<bool> g_profilingEnabled{false};

/**
 * Lock-wait nanoseconds this thread has accumulated across every
 * contended TimedMutex acquire.  obs::ScopedPhase reads it when a
 * span opens and closes to attribute lock-wait to the span.
 */
inline thread_local std::uint64_t t_lockWaitNs = 0;

} // namespace detail

/** Is contention profiling recording?  One relaxed atomic load. */
inline bool
profilingOn()
{
    return detail::g_profilingEnabled.load(std::memory_order_relaxed);
}

/** Total contended lock-wait ns accumulated by the calling thread. */
inline std::uint64_t
threadLockWaitNs()
{
    return detail::t_lockWaitNs;
}

/** Exact point-in-time totals of one lock site. */
struct LockSiteSnapshot
{
    std::string name;
    std::uint64_t acquisitions = 0; ///< every successful lock/try_lock
    std::uint64_t contended = 0;    ///< acquisitions that had to wait
    std::uint64_t waitNs = 0;       ///< total ns spent waiting
};

/** Per-site counters: relaxed atomics. */
class LockSiteStats
{
  public:
    void addUncontended()
    {
        acquisitions_.fetch_add(1, std::memory_order_relaxed);
    }

    void addContended(std::uint64_t waitNs)
    {
        acquisitions_.fetch_add(1, std::memory_order_relaxed);
        contended_.fetch_add(1, std::memory_order_relaxed);
        waitNs_.fetch_add(waitNs, std::memory_order_relaxed);
    }

    std::uint64_t acquisitions() const
    {
        return acquisitions_.load(std::memory_order_relaxed);
    }
    std::uint64_t contended() const
    {
        return contended_.load(std::memory_order_relaxed);
    }
    std::uint64_t waitNs() const
    {
        return waitNs_.load(std::memory_order_relaxed);
    }

    void reset()
    {
        acquisitions_.store(0, std::memory_order_relaxed);
        contended_.store(0, std::memory_order_relaxed);
        waitNs_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> acquisitions_{0};
    std::atomic<std::uint64_t> contended_{0};
    std::atomic<std::uint64_t> waitNs_{0};
};

/**
 * Process-wide registry of lock sites.  Sites are created on first
 * lookup and live forever (TimedMutex caches the pointer), so the
 * registration mutex is only ever taken at construction time.
 */
class LockSiteTable
{
  public:
    static LockSiteTable &instance()
    {
        static LockSiteTable t;
        return t;
    }

    /** Find-or-create; the returned pointer never moves. */
    LockSiteStats *site(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto &slot = sites_[name];
        if (!slot)
            slot = std::make_unique<LockSiteStats>();
        return slot.get();
    }

    /** All sites by name (sorted), exact once writers are quiesced. */
    std::vector<LockSiteSnapshot> snapshot() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<LockSiteSnapshot> out;
        out.reserve(sites_.size());
        for (const auto &[name, s] : sites_)
            out.push_back({name, s->acquisitions(), s->contended(),
                           s->waitNs()});
        return out;
    }

    /** Zero every site (keeps registrations and cached pointers). */
    void resetAll()
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &[name, s] : sites_)
            s->reset();
    }

  private:
    LockSiteTable() = default;

    mutable std::mutex mu_;
    std::map<std::string, std::unique_ptr<LockSiteStats>> sites_;
};

/**
 * std::mutex with per-site contention telemetry.  Satisfies Lockable,
 * so std::lock_guard / std::unique_lock / condition_variable_any work
 * unchanged.
 */
class TimedMutex
{
  public:
    /** @p site names the lock in profiles; sites may be shared. */
    explicit TimedMutex(const char *site)
        : stats_(LockSiteTable::instance().site(site))
    {
    }

    TimedMutex(const TimedMutex &) = delete;
    TimedMutex &operator=(const TimedMutex &) = delete;

    void lock()
    {
        if (!profilingOn()) {
            mu_.lock();
            return;
        }
        if (mu_.try_lock()) {
            stats_->addUncontended(); // fast path: no clock read
            return;
        }
        const auto t0 = std::chrono::steady_clock::now();
        mu_.lock();
        const auto waited =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - t0)
                .count();
        const std::uint64_t ns = static_cast<std::uint64_t>(waited);
        detail::t_lockWaitNs += ns;
        stats_->addContended(ns);
    }

    bool try_lock()
    {
        if (!mu_.try_lock())
            return false;
        if (profilingOn())
            stats_->addUncontended();
        return true;
    }

    void unlock() { mu_.unlock(); }

    const LockSiteStats &stats() const { return *stats_; }

  private:
    std::mutex mu_;
    LockSiteStats *stats_;
};

} // namespace lp::prof
