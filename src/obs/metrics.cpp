#include "obs/metrics.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

namespace lp::obs {

namespace detail {
std::atomic<bool> g_metricsEnabled{false};
std::atomic<unsigned> g_nextLane{0};
}

void
setMetricsEnabled(bool on)
{
    detail::g_metricsEnabled.store(on, std::memory_order_relaxed);
}

namespace {

std::vector<std::uint64_t>
sortedUnique(std::vector<std::uint64_t> bounds)
{
    std::sort(bounds.begin(), bounds.end());
    bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
    return bounds;
}

} // namespace

Histogram::Histogram(std::vector<std::uint64_t> bounds)
    : bounds_(sortedUnique(std::move(bounds))), counts_(bounds_.size() + 1)
{
}

void
Histogram::record(std::uint64_t sample, std::uint64_t n)
{
    std::size_t i = 0;
    while (i < bounds_.size() && sample > bounds_[i])
        ++i;
    counts_[i].fetch_add(n, std::memory_order_relaxed);
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(sample * n, std::memory_order_relaxed);
}

void
Histogram::add(const Histogram &other)
{
    if (other.bounds_ != bounds_)
        throw std::logic_error("histogram bounds differ");
    const std::vector<std::uint64_t> counts = other.bucketCounts();
    for (std::size_t i = 0; i < counts.size(); ++i)
        counts_[i].fetch_add(counts[i], std::memory_order_relaxed);
    count_.fetch_add(other.count(), std::memory_order_relaxed);
    sum_.fetch_add(other.sum(), std::memory_order_relaxed);
}

std::vector<std::uint64_t>
Histogram::bucketCounts() const
{
    std::vector<std::uint64_t> out;
    out.reserve(counts_.size());
    for (const auto &c : counts_)
        out.push_back(c.load(std::memory_order_relaxed));
    return out;
}

std::uint64_t
Histogram::count() const
{
    return count_.load(std::memory_order_relaxed);
}

std::uint64_t
Histogram::sum() const
{
    return sum_.load(std::memory_order_relaxed);
}

double
Histogram::mean() const
{
    const std::uint64_t n = count();
    return n == 0 ? 0.0
                  : static_cast<double>(sum()) / static_cast<double>(n);
}

void
Histogram::reset()
{
    for (auto &c : counts_)
        c.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

Json
Histogram::toJson() const
{
    Json bounds = Json::array();
    for (std::uint64_t b : bounds_)
        bounds.push(b);
    Json counts = Json::array();
    for (std::uint64_t c : bucketCounts())
        counts.push(c);
    Json out = Json::object();
    out.set("bounds", std::move(bounds));
    out.set("counts", std::move(counts));
    out.set("count", count());
    out.set("sum", sum());
    out.set("mean", mean());
    return out;
}

Registry &
Registry::instance()
{
    static Registry r;
    return r;
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Histogram &
Registry::histogram(const std::string &name,
                    std::vector<std::uint64_t> bounds)
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>(std::move(bounds));
    return *slot;
}

void
Registry::resetAll()
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

Json
Registry::toJson() const
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    Json counters = Json::object();
    for (const auto &[name, c] : counters_)
        counters.set(name, c->value());
    Json histograms = Json::object();
    for (const auto &[name, h] : histograms_)
        histograms.set(name, h->toJson());
    Json out = Json::object();
    out.set("counters", std::move(counters));
    out.set("histograms", std::move(histograms));
    return out;
}

} // namespace lp::obs
