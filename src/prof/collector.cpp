#include "prof/collector.hpp"

#include <algorithm>
#include <chrono>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
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

const char *
epochKindName(std::size_t k)
{
    switch (k) {
      case 0: return "interp";
      case 1: return "record";
      case 2: return "replay_batch";
    }
    return "?";
}

obs::Json
cellToJson(const CellRecord &rec)
{
    obs::Json j = obs::Json::object();
    j.set("program", rec.program);
    j.set("suite", rec.suite);
    j.set("config", rec.config);
    j.set("worker", rec.worker);
    j.set("start_ns", rec.startNs);
    j.set("wall_ns", rec.wallNs);
    j.set("queue_wait_ns", rec.queueWaitNs);
    j.set("lock_wait_ns", rec.lockWaitNs);
    j.set("instructions", rec.instructions);
    j.set("attempts", rec.attempts);
    j.set("status", rec.status);
    return j;
}

} // namespace

Collector::Collector() : epochNanos_(steadyNanos())
{
    for (std::atomic<std::uint64_t> &lane : laneIdleSinceNs_)
        lane.store(0, std::memory_order_relaxed);
    for (EpochSlot &slot : epochs_)
        for (std::size_t k = 0; k < kEpochKinds; ++k) {
            slot.instructions[k].store(0, std::memory_order_relaxed);
            slot.wallNs[k].store(0, std::memory_order_relaxed);
        }
}

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
        cells_.clear();
        cellStream_.reset();
    }
    regionStartNs_.store(0, std::memory_order_relaxed);
    regionWallNs_.store(0, std::memory_order_relaxed);
    for (std::atomic<std::uint64_t> &lane : laneIdleSinceNs_)
        lane.store(0, std::memory_order_relaxed);
    for (EpochSlot &slot : epochs_)
        for (std::size_t k = 0; k < kEpochKinds; ++k) {
            slot.instructions[k].store(0, std::memory_order_relaxed);
            slot.wallNs[k].store(0, std::memory_order_relaxed);
        }
    LockSiteTable::instance().resetAll();
}

void
Collector::beginRegion()
{
    // A new region means every lane is idle-since-region-start: clear
    // the per-lane markers so the first cell on each lane measures its
    // gap from the region start, not from some previous region's cell.
    for (std::atomic<std::uint64_t> &lane : laneIdleSinceNs_)
        lane.store(0, std::memory_order_relaxed);
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
Collector::recordCell(const CellRecord &rec)
{
    // Format outside the lock (the same discipline obs::JsonlSink
    // follows): the critical section is one vector append and one
    // preformatted line write.
    std::string line;
    {
        // Streaming only happens in json mode; skip the dump otherwise.
        if (cellStream_)
            line = cellToJson(rec).dump();
    }
    std::lock_guard<TimedMutex> lock(cellMu_);
    cells_.push_back(rec);
    if (cellStream_) {
        *cellStream_ << line << '\n';
        cellStream_->flush();
    }
}

void
Collector::addEpoch(EpochKind kind, std::uint64_t instructions,
                    std::uint64_t wallNs)
{
    EpochSlot &slot =
        epochs_[obs::threadLane() & (kMaxLanes - 1)];
    const std::size_t k = static_cast<std::size_t>(kind);
    slot.instructions[k].fetch_add(instructions,
                                   std::memory_order_relaxed);
    slot.wallNs[k].fetch_add(wallNs, std::memory_order_relaxed);
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
        std::uint64_t cells = 0;
        std::uint64_t busyNs = 0;
        std::uint64_t queueWaitNs = 0;
        std::uint64_t lockWaitNs = 0;
        std::uint64_t instructions = 0;
    };
    std::map<unsigned, Worker> workers;
    {
        std::lock_guard<TimedMutex> lock(cellMu_);
        for (const CellRecord &c : cells_) {
            Worker &w = workers[c.worker];
            w.cells += 1;
            w.busyNs += c.wallNs;
            w.queueWaitNs += c.queueWaitNs;
            w.lockWaitNs += c.lockWaitNs;
            w.instructions += c.instructions;
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
        one.set("cells", w.cells);
        one.set("busy_ns", w.busyNs);
        one.set("idle_ns",
                regionWall > w.busyNs ? regionWall - w.busyNs : 0);
        // Per-cell gaps on one lane are disjoint, so this sum cannot
        // logically exceed the region wall; the clamp guards against
        // clock skew between the region edges and the cell scopes ever
        // resurrecting the impossible 23s-wait-in-a-1.6s-region reports.
        one.set("queue_wait_ns", std::min(w.queueWaitNs, regionWall));
        one.set("lock_wait_ns", w.lockWaitNs);
        one.set("instructions", w.instructions);
        one.set("utilization", util);
        // Epoch attribution for this lane, if any was collected.
        const EpochSlot &slot = epochs_[lane & (kMaxLanes - 1)];
        obs::Json ep = obs::Json::object();
        for (std::size_t k = 0; k < kEpochKinds; ++k) {
            std::uint64_t instr =
                slot.instructions[k].load(std::memory_order_relaxed);
            std::uint64_t ns =
                slot.wallNs[k].load(std::memory_order_relaxed);
            if (instr == 0 && ns == 0)
                continue;
            obs::Json kind = obs::Json::object();
            kind.set("instructions", instr);
            kind.set("wall_ns", ns);
            ep.set(epochKindName(k), std::move(kind));
        }
        one.set("epochs", std::move(ep));
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
    doc.set("v", 1);
    doc.set("contention", contentionJson());
    doc.set("workers", workersJson());
    doc.set("cells", cellsJson());
    return doc;
}

obs::Json
Collector::chromeDocument() const
{
    // Reuse the Chrome trace_event shape the obs sink emits: one "X"
    // (complete) span per sweep cell on its worker's lane, timestamps
    // in microseconds against the collector's epoch.
    obs::Json events = obs::Json::array();
    {
        std::lock_guard<TimedMutex> lock(cellMu_);
        for (const CellRecord &c : cells_) {
            obs::Json args = obs::Json::object();
            args.set("suite", c.suite);
            args.set("queue_wait_ns", c.queueWaitNs);
            args.set("lock_wait_ns", c.lockWaitNs);
            args.set("instructions", c.instructions);
            args.set("attempts", c.attempts);
            args.set("status", c.status);

            obs::Json e = obs::Json::object();
            e.set("name", c.program + " [" + c.config + "]");
            e.set("cat", "cell");
            e.set("ph", "X");
            e.set("ts", static_cast<double>(c.startNs) / 1000.0);
            e.set("dur", static_cast<double>(c.wallNs) / 1000.0);
            e.set("pid", 1);
            e.set("tid", c.worker);
            e.set("args", std::move(args));
            events.push(std::move(e));
        }
    }
    // Contention and utilization ride along as process-scoped metadata.
    obs::Json meta = obs::Json::object();
    meta.set("name", "lp_prof.summary");
    meta.set("ph", "i");
    meta.set("ts", 0.0);
    meta.set("pid", 1);
    meta.set("tid", 0);
    meta.set("s", "p");
    obs::Json args = obs::Json::object();
    args.set("contention", contentionJson());
    args.set("workers", workersJson());
    meta.set("args", std::move(args));
    events.push(std::move(meta));

    obs::Json doc = obs::Json::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc;
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

// ------------------------------------------------------------ CellScope

CellScope::CellScope(const std::string &program, const std::string &suite,
                     const std::string &config)
    : active_(profilingOn())
{
    if (!active_)
        return;
    Collector &c = Collector::instance();
    rec_.program = program;
    rec_.suite = suite;
    rec_.config = config;
    rec_.worker = obs::threadLane();
    rec_.startNs = c.nowNs();
    // Queue-wait is the lane's idle gap before this cell: from its
    // previous cell's end — or the region start, for the lane's first
    // cell — to now.  Time the lane spent busy on earlier cells is
    // work, not waiting; billing it here is what once summed a 1.6 s
    // region's queue-wait to 23 s.
    std::uint64_t region =
        c.regionStartNs_.load(std::memory_order_relaxed);
    std::uint64_t idleSince =
        c.laneIdleSinceNs_[rec_.worker & (Collector::kMaxLanes - 1)].load(
            std::memory_order_relaxed);
    std::uint64_t waitBase = idleSince != 0 ? idleSince : region;
    rec_.queueWaitNs = region != 0 && rec_.startNs > waitBase
                           ? rec_.startNs - waitBase
                           : 0;
    rec_.status = "failed"; // an unwound scope records a failed cell
    lockWait0_ = threadLockWaitNs();
}

CellScope::~CellScope()
{
    if (!active_)
        return;
    Collector &c = Collector::instance();
    std::uint64_t end = c.nowNs();
    rec_.wallNs = end - rec_.startNs;
    rec_.lockWaitNs = threadLockWaitNs() - lockWait0_;
    c.laneIdleSinceNs_[rec_.worker & (Collector::kMaxLanes - 1)].store(
        end, std::memory_order_relaxed);
    c.recordCell(rec_);
}

void
CellScope::setInstructions(std::uint64_t n)
{
    if (active_)
        rec_.instructions = n;
}

void
CellScope::setAttempts(unsigned n)
{
    if (active_)
        rec_.attempts = n;
}

void
CellScope::setStatus(const std::string &status)
{
    if (active_)
        rec_.status = status;
}

} // namespace lp::prof
