#include "obs/timer.hpp"

#include <chrono>

#include "obs/metrics.hpp"

namespace lp::obs {

namespace {

/** Open phase of this thread; null means "at the root". */
thread_local PhaseNode *t_cur = nullptr;

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

Json
PhaseNode::toJson() const
{
    Json out = Json::object();
    out.set("name", name);
    out.set("count", count.load(std::memory_order_relaxed));
    out.set("wall_ns", wallNanos.load(std::memory_order_relaxed));
    out.set("instructions",
            instructions.load(std::memory_order_relaxed));
    Json kids = Json::array();
    for (const auto &c : children)
        kids.push(c->toJson());
    out.set("children", std::move(kids));
    return out;
}

PhaseTree &
PhaseTree::instance()
{
    static PhaseTree t;
    return t;
}

void
PhaseTree::reset()
{
    std::lock_guard<std::mutex> lock(mu_);
    root_.children.clear();
    root_.count.store(0, std::memory_order_relaxed);
    root_.wallNanos.store(0, std::memory_order_relaxed);
    root_.instructions.store(0, std::memory_order_relaxed);
    t_cur = nullptr;
}

Json
PhaseTree::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    Json out = Json::array();
    for (const auto &c : root_.children)
        out.push(c->toJson());
    return out;
}

PhaseNode *
PhaseTree::current()
{
    return t_cur ? t_cur : &root_;
}

void
PhaseTree::setCurrent(PhaseNode *node)
{
    t_cur = node == &root_ ? nullptr : node;
}

PhaseNode *
PhaseTree::childOf(PhaseNode *parent, const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &c : parent->children)
        if (c->name == name)
            return c.get();
    parent->children.push_back(std::make_unique<PhaseNode>());
    parent->children.back()->name = name;
    return parent->children.back().get();
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

void
SpanLog::closeStream()
{
    std::lock_guard<prof::TimedMutex> lock(mu_);
    stream_.reset();
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
    if (stream_)
        *stream_ << line << '\n' << std::flush;
    records_.push_back(std::move(rec));
}

void
instant(const std::string &name, Json args)
{
    if (!prof::profilingOn())
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

// ---------------------------------------------------------- ScopedPhase

ScopedPhase::ScopedPhase(const std::string &name)
{
    PhaseTree &tree = PhaseTree::instance();
    parent_ = tree.current();
    node_ = tree.childOf(parent_, name);
    tree.setCurrent(node_);
    if (prof::profilingOn()) {
        spanId_ = SpanLog::instance().nextId();
        parentSpan_ = t_span;
        t_span = spanId_;
        lockWait0_ = prof::threadLockWaitNs();
        args_ = Json::object();
    }
    startNanos_ = clockNs();
}

ScopedPhase::~ScopedPhase()
{
    const std::uint64_t elapsed = clockNs() - startNanos_;
    node_->count.fetch_add(1, std::memory_order_relaxed);
    node_->wallNanos.fetch_add(elapsed, std::memory_order_relaxed);
    node_->instructions.fetch_add(instructions_,
                                  std::memory_order_relaxed);
    PhaseTree::instance().setCurrent(parent_);
    if (spanId_ == 0)
        return;

    t_span = parentSpan_;
    if (instructions_ != 0)
        args_.set("instructions", instructions_);
    const std::uint64_t lockWait = prof::threadLockWaitNs() - lockWait0_;
    if (lockWait != 0)
        args_.set("lock_wait_ns", lockWait);
    SpanRecord rec;
    rec.id = spanId_;
    rec.parent = parentSpan_;
    rec.name = node_->name;
    rec.worker = threadLane();
    rec.startNs = startNanos_;
    rec.wallNs = elapsed;
    rec.args = std::move(args_);
    SpanLog::instance().append(std::move(rec));
}

} // namespace lp::obs
