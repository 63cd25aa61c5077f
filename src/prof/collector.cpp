#include "prof/collector.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <tuple>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/sink.hpp"
#include "support/text.hpp"

namespace lp::prof {

namespace {

std::uint64_t
steadyNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

obs::Json
cellToJson(const CellRecord &rec)
{
    obs::Json j = obs::Json::object();
    j.set("program", rec.program);
    j.set("suite", rec.suite);
    j.set("config", rec.config);
    j.set("task", rec.task >= 0 ? obs::Json(rec.task) : obs::Json());
    j.set("worker", rec.worker);
    j.set("start_ns", rec.startNs);
    j.set("wall_ns", rec.wallNs);
    j.set("instructions", rec.instructions);
    j.set("attempts", rec.attempts);
    j.set("status", rec.status);
    return j;
}

} // namespace

Collector::Collector() : epochNanos_(steadyNanos()) {}

Collector &
Collector::instance()
{
    static Collector c;
    return c;
}

std::uint64_t
Collector::nowNs() const
{
    return steadyNanos() - epochNanos_;
}

bool
Collector::configure(const std::string &spec)
{
    std::string modeName = spec;
    std::string path;
    std::size_t colon = spec.find(':');
    if (colon != std::string::npos) {
        modeName = spec.substr(0, colon);
        path = spec.substr(colon + 1);
    }

    if (modeName.empty() || modeName == "off") {
        mode_ = Mode::Off;
        path_.clear();
        setEnabled(false);
        return true;
    }
    if (modeName == "json" || modeName == "1" || modeName == "on")
        mode_ = Mode::Json;
    else if (modeName == "chrome")
        mode_ = Mode::Chrome;
    else {
        mode_ = Mode::Off;
        path_.clear();
        setEnabled(false);
        return false;
    }

    path_ = !path.empty()
                ? path
                : (mode_ == Mode::Json ? "lp_profile.json"
                                       : "lp_profile.trace.json");
    reset();
    if (mode_ == Mode::Json) {
        auto stream = std::make_unique<std::ofstream>(
            path_ + ".cells.jsonl", std::ios::trunc);
        if (!*stream)
            obs::logMessage(obs::Level::Warn,
                            "cannot open cell telemetry stream " + path_ +
                                ".cells.jsonl; cells are only rolled "
                                "into the final profile",
                            /*force=*/true);
        else
            cellStream_ = std::move(stream);
    }
    setEnabled(true);
    return true;
}

void
Collector::setEnabled(bool on)
{
    detail::g_profilingEnabled.store(on, std::memory_order_relaxed);
}

void
Collector::reset()
{
    {
        std::lock_guard<TimedMutex> lock(cellMu_);
        tasks_.clear();
        cells_.clear();
        cellStream_.reset();
    }
    regionStartNs_.store(0, std::memory_order_relaxed);
    regionWallNs_.store(0, std::memory_order_relaxed);
    LockSiteTable::instance().resetAll();
}

void
Collector::beginRegion()
{
    regionStartNs_.store(nowNs(), std::memory_order_relaxed);
}

void
Collector::endRegion()
{
    std::uint64_t start = regionStartNs_.load(std::memory_order_relaxed);
    if (start == 0)
        return;
    regionWallNs_.fetch_add(nowNs() - start, std::memory_order_relaxed);
    regionStartNs_.store(0, std::memory_order_relaxed);
}

void
Collector::recordUnrunCell(const std::string &program,
                           const std::string &suite,
                           const std::string &config,
                           const std::string &status)
{
    if (!profilingOn())
        return;
    CellRecord rec;
    rec.program = program;
    rec.suite = suite;
    rec.config = config;
    rec.worker = obs::threadLane();
    rec.startNs = nowNs();
    rec.status = status;
    std::lock_guard<TimedMutex> lock(cellMu_);
    appendCells({std::move(rec)});
}

void
Collector::recordTask(TaskRecord task,
                      const std::vector<std::string> &configs,
                      std::uint64_t instructions)
{
    // Each cell gets an equal lane share of the task's wall time (the
    // remainder spread over the first lanes), laid end to end from the
    // task's start, so the shares sum to the wall exactly.
    std::vector<CellRecord> cells(configs.size());
    const std::uint64_t n = std::max<std::uint64_t>(configs.size(), 1);
    std::uint64_t at = task.startNs;
    for (std::size_t l = 0; l < cells.size(); ++l) {
        CellRecord &c = cells[l];
        c.program = task.program;
        c.suite = task.suite;
        c.config = configs[l];
        c.worker = task.worker;
        c.startNs = at;
        c.wallNs = task.wallNs / n + (l < task.wallNs % n ? 1 : 0);
        c.instructions = instructions;
        c.attempts = task.attempts;
        c.status = task.status;
        at += c.wallNs;
    }
    task.lanes = static_cast<unsigned>(configs.size());

    std::lock_guard<TimedMutex> lock(cellMu_);
    task.firstCell = cells_.size();
    for (CellRecord &c : cells)
        c.task = static_cast<std::int64_t>(tasks_.size());
    tasks_.push_back(std::move(task));
    appendCells(std::move(cells));
}

void
Collector::appendCells(std::vector<CellRecord> cells)
{
    // Rows are formatted under the lock because they carry the task
    // index it assigns; one task's rows cost microseconds against a
    // task of milliseconds.
    for (CellRecord &c : cells) {
        if (cellStream_)
            *cellStream_ << cellToJson(c).dump() << '\n';
        cells_.push_back(std::move(c));
    }
    if (cellStream_)
        cellStream_->flush();
}

std::vector<std::uint64_t>
Collector::queueWaits() const
{
    // Walk each worker's tasks in start order: a task waited from the
    // end of the worker's previous task in the same region (or the
    // region start, for its first) to its own start.  One worker's gaps
    // are disjoint, so they sum to at most the region wall.
    std::vector<std::size_t> order(tasks_.size());
    for (std::size_t k = 0; k < order.size(); ++k)
        order[k] = k;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return std::tie(tasks_[a].worker, tasks_[a].startNs) <
               std::tie(tasks_[b].worker, tasks_[b].startNs);
    });
    std::vector<std::uint64_t> waits(tasks_.size(), 0);
    const TaskRecord *prev = nullptr;
    for (std::size_t k : order) {
        const TaskRecord &t = tasks_[k];
        std::uint64_t from = t.regionStartNs;
        if (prev && prev->worker == t.worker &&
            prev->regionStartNs == t.regionStartNs)
            from = std::max(from, prev->startNs + prev->wallNs);
        if (t.regionStartNs != 0 && t.startNs > from)
            waits[k] = t.startNs - from;
        prev = &t;
    }
    return waits;
}

obs::Json
Collector::contentionJson() const
{
    std::vector<LockSiteSnapshot> sites =
        LockSiteTable::instance().snapshot();
    // Most waited-on first; name breaks ties so output is deterministic.
    std::sort(sites.begin(), sites.end(),
              [](const LockSiteSnapshot &a, const LockSiteSnapshot &b) {
                  if (a.waitNs != b.waitNs)
                      return a.waitNs > b.waitNs;
                  return a.name < b.name;
              });

    std::uint64_t totalWait = 0, totalAcq = 0, totalContended = 0;
    obs::Json arr = obs::Json::array();
    for (const LockSiteSnapshot &s : sites) {
        totalWait += s.waitNs;
        totalAcq += s.acquisitions;
        totalContended += s.contended;
        if (s.acquisitions == 0)
            continue; // never touched while profiling: noise
        obs::Json one = obs::Json::object();
        one.set("site", s.name);
        one.set("acquisitions", s.acquisitions);
        one.set("contended", s.contended);
        one.set("wait_ns", s.waitNs);
        arr.push(std::move(one));
    }
    obs::Json out = obs::Json::object();
    out.set("total_lock_wait_ns", totalWait);
    out.set("total_acquisitions", totalAcq);
    out.set("total_contended", totalContended);
    out.set("sites", std::move(arr));
    return out;
}

obs::Json
Collector::workersJson() const
{
    struct Worker
    {
        std::uint64_t tasks = 0;
        std::uint64_t cells = 0;
        std::uint64_t busyNs = 0;
        std::uint64_t queueWaitNs = 0;
        std::uint64_t lockWaitNs = 0;
        std::uint64_t instructions = 0;
    };
    std::map<unsigned, Worker> workers;
    {
        std::lock_guard<TimedMutex> lock(cellMu_);
        const std::vector<std::uint64_t> waits = queueWaits();
        for (std::size_t k = 0; k < tasks_.size(); ++k) {
            const TaskRecord &t = tasks_[k];
            Worker &w = workers[t.worker];
            w.tasks += 1;
            w.cells += t.lanes;
            w.busyNs += t.wallNs;
            w.queueWaitNs += waits[k];
            w.lockWaitNs += t.lockWaitNs;
            for (std::size_t c = 0; c < t.lanes; ++c)
                w.instructions += cells_[t.firstCell + c].instructions;
        }
    }
    const std::uint64_t regionWall =
        regionWallNs_.load(std::memory_order_relaxed);

    obs::Json arr = obs::Json::array();
    std::uint64_t maxBusy = 0, sumBusy = 0;
    double sumUtil = 0.0;
    for (const auto &[lane, w] : workers) {
        maxBusy = std::max(maxBusy, w.busyNs);
        sumBusy += w.busyNs;
        double util = regionWall > 0 ? static_cast<double>(w.busyNs) /
                                           static_cast<double>(regionWall)
                                     : 0.0;
        sumUtil += util;

        obs::Json one = obs::Json::object();
        one.set("worker", lane);
        one.set("tasks", w.tasks);
        one.set("cells", w.cells);
        one.set("busy_ns", w.busyNs);
        one.set("idle_ns",
                regionWall > w.busyNs ? regionWall - w.busyNs : 0);
        one.set("queue_wait_ns", w.queueWaitNs);
        one.set("lock_wait_ns", w.lockWaitNs);
        one.set("instructions", w.instructions);
        one.set("utilization", util);
        arr.push(std::move(one));
    }

    const std::size_t n = workers.size();
    const double meanBusy =
        n > 0 ? static_cast<double>(sumBusy) / static_cast<double>(n)
              : 0.0;
    obs::Json out = obs::Json::object();
    out.set("region_wall_ns", regionWall);
    out.set("workers", std::move(arr));
    out.set("utilization_mean",
            n > 0 ? sumUtil / static_cast<double>(n) : 0.0);
    // 1.0 = perfectly balanced; >1 = the slowest lane carried that many
    // times the mean load.
    out.set("load_imbalance",
            meanBusy > 0.0 ? static_cast<double>(maxBusy) / meanBusy
                           : 1.0);
    return out;
}

obs::Json
Collector::tasksJson() const
{
    std::lock_guard<TimedMutex> lock(cellMu_);
    const std::vector<std::uint64_t> waits = queueWaits();
    obs::Json arr = obs::Json::array();
    for (std::size_t k = 0; k < tasks_.size(); ++k) {
        const TaskRecord &t = tasks_[k];
        obs::Json j = obs::Json::object();
        j.set("task", static_cast<std::uint64_t>(k));
        j.set("program", t.program);
        j.set("suite", t.suite);
        j.set("lanes", t.lanes);
        j.set("worker", t.worker);
        j.set("start_ns", t.startNs);
        j.set("wall_ns", t.wallNs);
        j.set("queue_wait_ns", waits[k]);
        j.set("lock_wait_ns", t.lockWaitNs);
        j.set("attempts", t.attempts);
        j.set("status", t.status);
        arr.push(std::move(j));
    }
    return arr;
}

obs::Json
Collector::cellsJson() const
{
    std::lock_guard<TimedMutex> lock(cellMu_);
    obs::Json arr = obs::Json::array();
    for (const CellRecord &c : cells_)
        arr.push(cellToJson(c));
    return arr;
}

std::size_t
Collector::cellCount() const
{
    std::lock_guard<TimedMutex> lock(cellMu_);
    return cells_.size();
}

obs::Json
Collector::toJson() const
{
    obs::Json doc = obs::Json::object();
    doc.set("profile", "lp_prof");
    doc.set("v", 2);
    doc.set("contention", contentionJson());
    doc.set("workers", workersJson());
    doc.set("tasks", tasksJson());
    doc.set("cells", cellsJson());
    return doc;
}

obs::Json
Collector::chromeDocument() const
{
    // One span per task on its worker's lane, timestamps in
    // microseconds against the collector's epoch; contention and
    // utilization ride along as the lp_prof.summary event.
    obs::ChromeTraceSink sink(path_);
    const obs::Json tasks = tasksJson();
    {
        std::lock_guard<TimedMutex> lock(cellMu_);
        for (std::size_t k = 0; k < tasks_.size(); ++k) {
            const TaskRecord &t = tasks_[k];
            const obs::Json &row = tasks.at(k);
            obs::Json args = obs::Json::object();
            for (const char *key : {"suite", "lanes", "queue_wait_ns",
                                    "lock_wait_ns", "attempts", "status"})
                args.set(key, row.at(key));
            const std::string what =
                t.lanes == 1 ? cells_[t.firstCell].config
                             : std::to_string(t.lanes) + " lanes";
            sink.span(t.program + " [" + what + "]",
                      static_cast<double>(t.startNs) / 1000.0,
                      static_cast<double>(t.wallNs) / 1000.0,
                      std::move(args), t.worker);
        }
    }
    obs::Json summary = obs::Json::object();
    summary.set("contention", contentionJson());
    summary.set("workers", workersJson());
    sink.event("lp_prof.summary", std::move(summary));
    return sink.document();
}

bool
Collector::finish()
{
    if (mode_ == Mode::Off)
        return true;
    setEnabled(false);
    {
        std::lock_guard<TimedMutex> lock(cellMu_);
        if (cellStream_) {
            cellStream_->flush();
            cellStream_.reset();
        }
    }
    obs::Json doc = mode_ == Mode::Json ? toJson() : chromeDocument();
    std::ofstream out(path_, std::ios::trunc);
    if (!out) {
        obs::logMessage(obs::Level::Error,
                        "cannot write profile to " + path_,
                        /*force=*/true);
        mode_ = Mode::Off;
        return false;
    }
    out << doc.dump(2) << '\n';
    LP_LOG_INFO("wrote %s profile to %s",
                mode_ == Mode::Json ? "json" : "chrome", path_.c_str());
    mode_ = Mode::Off;
    return true;
}

// ------------------------------------------------------------ TaskScope

TaskScope::TaskScope(const std::string &program, const std::string &suite)
    : active_(profilingOn())
{
    if (!active_)
        return;
    Collector &c = Collector::instance();
    rec_.program = program;
    rec_.suite = suite;
    rec_.worker = obs::threadLane();
    rec_.regionStartNs = c.regionStartNs_.load(std::memory_order_relaxed);
    rec_.startNs = c.nowNs();
    rec_.status = "failed"; // an unwound scope records a failed task
    lockWait0_ = threadLockWaitNs();
}

TaskScope::~TaskScope()
{
    if (!active_)
        return;
    Collector &c = Collector::instance();
    rec_.wallNs = c.nowNs() - rec_.startNs;
    rec_.lockWaitNs = threadLockWaitNs() - lockWait0_;
    c.recordTask(std::move(rec_), configs_, instructions_);
}

void
TaskScope::addCell(const std::string &config)
{
    if (active_)
        configs_.push_back(config);
}

void
TaskScope::setInstructions(std::uint64_t n)
{
    if (active_)
        instructions_ = n;
}

void
TaskScope::setAttempts(unsigned n)
{
    if (active_)
        rec_.attempts = n;
}

void
TaskScope::setStatus(const std::string &status)
{
    if (active_)
        rec_.status = status;
}

} // namespace lp::prof
