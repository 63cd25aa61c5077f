#include "exec/pool.hpp"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <cstdlib>
#include <exception>
#include <string>

#include "obs/log.hpp"
#include "support/error.hpp"

namespace lp::exec {

namespace {

std::atomic<unsigned> g_jobsOverride{0};

/** Parse LP_JOBS once; invalid values warn once and fall back to 1. */
unsigned
jobsFromEnv()
{
    static const unsigned cached = [] {
        const char *env = std::getenv("LP_JOBS");
        if (!env || !*env)
            return 1u;
        std::optional<unsigned> jobs = parseJobs(env);
        if (!jobs) {
            obs::logMessage(obs::Level::Error,
                            std::string("LP_JOBS value not understood: ") +
                                env +
                                " (want a worker count, 0 or 'auto' for "
                                "all hardware threads); running serial",
                            /*force=*/true);
            return 1u;
        }
        return *jobs;
    }();
    return cached;
}

} // namespace

unsigned
resolveJobs(unsigned jobs)
{
    if (jobs != 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

std::optional<unsigned>
parseJobs(const std::string &spec)
{
    if (spec == "0" || spec == "auto")
        return resolveJobs(0);
    // from_chars takes digits only: no sign, no space, and `ptr`
    // stops at any trailing text.
    unsigned v = 0;
    const char *end = spec.data() + spec.size();
    auto [ptr, ec] = std::from_chars(spec.data(), end, v);
    if (ec != std::errc() || ptr != end || v == 0 || v > 4096)
        return std::nullopt;
    return v;
}

unsigned
hardwareThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    unsigned cfg = defaultJobs();
    return std::max({hw, cfg, 1u});
}

unsigned
defaultJobs()
{
    unsigned override = g_jobsOverride.load(std::memory_order_relaxed);
    if (override != 0)
        return override;
    return jobsFromEnv();
}

void
setJobsOverride(unsigned jobs)
{
    g_jobsOverride.store(jobs, std::memory_order_relaxed);
}

ThreadPool::ThreadPool(unsigned workers)
{
    unsigned n = resolveJobs(workers);
    threads_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<prof::TimedMutex> lock(mu_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &t : threads_)
        t.join();
}

void
ThreadPool::post(std::function<void()> task)
{
    {
        std::unique_lock<prof::TimedMutex> lock(mu_);
        panicIf(stop_, "ThreadPool::post after shutdown");
        queue_.push_back(std::move(task));
    }
    workCv_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<prof::TimedMutex> lock(mu_);
    idleCv_.wait(lock,
                 [this] { return queue_.empty() && active_ == 0; });
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<prof::TimedMutex> lock(mu_);
            workCv_.wait(lock,
                         [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        try {
            task();
        } catch (...) {
            panic("ThreadPool task threw (tasks must capture their own "
                  "exceptions)");
        }
        {
            std::unique_lock<prof::TimedMutex> lock(mu_);
            --active_;
            if (queue_.empty() && active_ == 0)
                idleCv_.notify_all();
        }
    }
}

void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &fn,
            unsigned jobs)
{
    if (n == 0)
        return;
    unsigned workers = resolveJobs(jobs);
    if (workers > n)
        workers = static_cast<unsigned>(n);
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // The claim counter and the failure flag sit on the hottest shared
    // cache lines of a sweep; keep each on its own line so claiming an
    // index never invalidates the flag every worker polls (and neither
    // shares a line with the error state below).
    alignas(64) std::atomic<std::size_t> next{0};
    alignas(64) std::atomic<bool> failed{false};
    alignas(64) std::mutex errMu;
    std::exception_ptr firstError;
    std::size_t firstErrorIndex = 0;

    auto drain = [&] {
        for (;;) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n || failed.load(std::memory_order_relaxed))
                return;
            try {
                fn(i);
            } catch (...) {
                std::unique_lock<std::mutex> lock(errMu);
                if (!firstError || i < firstErrorIndex) {
                    firstError = std::current_exception();
                    firstErrorIndex = i;
                }
                failed.store(true, std::memory_order_relaxed);
            }
        }
    };

    {
        ThreadPool pool(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.post(drain);
        pool.wait();
    } // join before rethrow: no task outlives the region

    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace lp::exec
