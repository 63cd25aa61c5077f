#include "obs/timer.hpp"

#include <algorithm>
#include <chrono>
#include <unordered_map>

namespace lp::obs {

namespace {

/** Id of this thread's innermost recorded span; 0 = none. */
thread_local std::uint64_t t_span = 0;

} // namespace

std::uint64_t
clockNs()
{
    using Clock = std::chrono::steady_clock;
    static const Clock::time_point epoch = Clock::now();
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch)
            .count());
}

// ------------------------------------------------------------ span log

Json
SpanRecord::toJson() const
{
    Json out = Json::object();
    out.set("id", id);
    out.set("parent", parent != 0 ? Json(parent) : Json());
    out.set("name", name);
    out.set("worker", worker);
    out.set("start_ns", startNs);
    out.set("wall_ns", wallNs);
    out.set("instant", instant);
    out.set("args", args);
    return out;
}

SpanLog &
SpanLog::instance()
{
    static SpanLog log;
    return log;
}

bool
SpanLog::reset(const std::string &streamPath)
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    records_.clear();
    stream_.reset();
    streamFailed_ = false;
    nextId_.store(1, std::memory_order_relaxed);
    t_span = 0;
    if (streamPath.empty())
        return true;
    auto stream = std::make_unique<std::ofstream>(streamPath,
                                                  std::ios::trunc);
    if (!*stream)
        return false;
    stream_ = std::move(stream);
    return true;
}

bool
SpanLog::closeStream()
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    if (stream_) {
        stream_->close();
        streamFailed_ |= !*stream_;
    }
    stream_.reset();
    return !streamFailed_;
}

std::vector<SpanRecord>
SpanLog::records() const
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    return records_;
}

void
SpanLog::append(SpanRecord rec)
{
    // Format outside the lock; the critical section is one push and,
    // when streaming, one line written and flushed.
    std::string line;
    if (stream_)
        line = rec.toJson().dump();
    std::lock_guard<prof::TimedMutex> lock(mu_);
    if (stream_ && !(*stream_ << line << '\n' << std::flush))
        streamFailed_ = true;
    records_.push_back(std::move(rec));
}

void
instant(const std::string &name, Json args)
{
    if (!spansOn())
        return;
    SpanLog &log = SpanLog::instance();
    SpanRecord rec;
    rec.id = log.nextId();
    rec.parent = t_span;
    rec.name = name;
    rec.worker = threadLane();
    rec.startNs = clockNs();
    rec.instant = true;
    rec.args = std::move(args);
    log.append(std::move(rec));
}

Json
chromeTrace(const std::vector<SpanRecord> &records)
{
    Json events = Json::array();
    for (const SpanRecord &r : records) {
        Json e = Json::object();
        e.set("name", r.name);
        e.set("ph", r.instant ? "i" : "X");
        e.set("ts", static_cast<double>(r.startNs) / 1000.0);
        if (r.instant)
            e.set("s", "t"); // thread-scoped instant
        else
            e.set("dur", static_cast<double>(r.wallNs) / 1000.0);
        e.set("pid", 1);
        e.set("tid", r.worker);
        e.set("args", r.args);
        events.push(std::move(e));
    }
    Json doc = Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
}

Json
phasesJson(const std::vector<SpanRecord> &records)
{
    struct Phase
    {
        std::string name;
        std::uint64_t count = 0, wallNs = 0, instructions = 0;
        std::vector<std::size_t> children; ///< into phases
    };
    std::vector<Phase> phases(1); // [0]: the synthetic root

    // Sorted by id (open order), every parent comes before its spans.
    std::vector<const SpanRecord *> spans;
    for (const SpanRecord &r : records)
        if (!r.instant)
            spans.push_back(&r);
    std::sort(spans.begin(), spans.end(),
              [](const SpanRecord *a, const SpanRecord *b) {
                  return a->id < b->id;
              });
    std::unordered_map<std::uint64_t, std::size_t> phaseOf; // by span id
    for (const SpanRecord *r : spans) {
        auto p = phaseOf.find(r->parent);
        const std::size_t parent = p == phaseOf.end() ? 0 : p->second;
        std::size_t at = 0;
        for (std::size_t c : phases[parent].children)
            if (phases[c].name == r->name)
                at = c;
        if (at == 0) {
            at = phases.size();
            phases.emplace_back().name = r->name;
            phases[parent].children.push_back(at);
        }
        Phase &ph = phases[at];
        ph.count += 1;
        ph.wallNs += r->wallNs;
        ph.instructions += r->instructions;
        phaseOf.emplace(r->id, at);
    }

    auto toJson = [&](auto &&self, const Phase &ph) -> Json {
        Json kids = Json::array();
        for (std::size_t c : ph.children)
            kids.push(self(self, phases[c]));
        Json out = Json::object();
        out.set("name", ph.name);
        out.set("count", ph.count);
        out.set("wall_ns", ph.wallNs);
        out.set("instructions", ph.instructions);
        out.set("children", std::move(kids));
        return out;
    };
    Json out = Json::array();
    for (std::size_t c : phases[0].children)
        out.push(toJson(toJson, phases[c]));
    return out;
}

// ---------------------------------------------------------- ScopedPhase

ScopedPhase::ScopedPhase(const std::string &name)
{
    if (!spansOn())
        return;
    name_ = name;
    spanId_ = SpanLog::instance().nextId();
    parentSpan_ = t_span;
    t_span = spanId_;
    lockWait0_ = prof::threadLockWaitNs();
    args_ = Json::object();
    startNanos_ = clockNs();
}

ScopedPhase::~ScopedPhase()
{
    if (spanId_ == 0)
        return;
    const std::uint64_t elapsed = clockNs() - startNanos_;
    t_span = parentSpan_;
    if (instructions_ != 0)
        args_.set("instructions", instructions_);
    const std::uint64_t lockWait = prof::threadLockWaitNs() - lockWait0_;
    if (lockWait != 0)
        args_.set("lock_wait_ns", lockWait);
    SpanRecord rec;
    rec.id = spanId_;
    rec.parent = parentSpan_;
    rec.name = std::move(name_);
    rec.worker = threadLane();
    rec.startNs = startNanos_;
    rec.wallNs = elapsed;
    rec.instructions = instructions_;
    rec.args = std::move(args_);
    SpanLog::instance().append(std::move(rec));
}

} // namespace lp::obs
