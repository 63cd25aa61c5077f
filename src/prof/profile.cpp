#include "prof/profile.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <tuple>

#include "obs/log.hpp"
#include "prof/timed_mutex.hpp"
#include "support/text.hpp"

namespace lp::prof {

namespace {

Mode g_mode = Mode::Off;
std::string g_path;

std::uint64_t
argU64(const obs::SpanRecord &r, const char *key)
{
    return r.args.contains(key) ? r.args.at(key).asU64() : 0;
}

std::string
argString(const obs::SpanRecord &r, const char *key)
{
    return r.args.contains(key) ? r.args.at(key).asString()
                                : std::string();
}

/** A `core.task` span and what the views derive from it. */
struct Task
{
    const obs::SpanRecord *span;
    std::size_t lanes = 0; ///< its cells
    std::uint64_t queueWaitNs = 0;
};

/** Every `core.task` span in log order, with its queue wait. */
std::vector<Task>
tasksOf(const std::vector<obs::SpanRecord> &spans)
{
    std::vector<const obs::SpanRecord *> regions;
    std::vector<Task> tasks;
    for (const obs::SpanRecord &r : spans) {
        if (r.name == "exec.region")
            regions.push_back(&r);
        else if (r.name == "core.task")
            tasks.push_back({&r, r.args.contains("cells")
                                     ? r.args.at("cells").size()
                                     : 0});
    }
    // A task ran in the dispatch span that contains it.
    auto regionOf = [&](const obs::SpanRecord &t) {
        for (const obs::SpanRecord *g : regions)
            if (g->startNs <= t.startNs &&
                t.startNs + t.wallNs <= g->startNs + g->wallNs)
                return g;
        return static_cast<const obs::SpanRecord *>(nullptr);
    };

    // Walk each worker's tasks in start order: a task waited from the
    // end of the worker's previous task in the same region (or the
    // region start, for its first) to its own start.  One worker's gaps
    // are disjoint, so they sum to at most the region wall.
    std::vector<Task *> order;
    for (Task &t : tasks)
        order.push_back(&t);
    std::sort(order.begin(), order.end(), [](const Task *a, const Task *b) {
        return std::tie(a->span->worker, a->span->startNs) <
               std::tie(b->span->worker, b->span->startNs);
    });
    const obs::SpanRecord *prev = nullptr;
    const obs::SpanRecord *prevRegion = nullptr;
    for (Task *t : order) {
        const obs::SpanRecord &s = *t->span;
        const obs::SpanRecord *region = regionOf(s);
        if (region) {
            std::uint64_t from = region->startNs;
            if (prev && prev->worker == s.worker && prevRegion == region)
                from = std::max(from, prev->startNs + prev->wallNs);
            if (s.startNs > from)
                t->queueWaitNs = s.startNs - from;
        }
        prev = &s;
        prevRegion = region;
    }
    return tasks;
}

/** One cells row of span @p r (a task or a `core.cell` instant). */
obs::Json
cellRow(const obs::SpanRecord &r, const std::string &config, obs::Json task,
        std::uint64_t startNs, std::uint64_t wallNs)
{
    obs::Json j = obs::Json::object();
    j.set("program", argString(r, "program"));
    j.set("suite", argString(r, "suite"));
    j.set("config", config);
    j.set("task", std::move(task));
    j.set("worker", r.worker);
    j.set("start_ns", startNs);
    j.set("wall_ns", wallNs);
    j.set("instructions", argU64(r, "instructions"));
    j.set("attempts", argU64(r, "attempts"));
    j.set("status", argString(r, "status"));
    return j;
}

} // namespace

bool
configure(const std::string &spec)
{
    const std::size_t colon = spec.find(':');
    const std::string modeName = spec.substr(0, colon);
    const std::string path =
        colon == std::string::npos ? "" : spec.substr(colon + 1);
    if (modeName == "json")
        g_mode = Mode::Json;
    else if (modeName == "chrome")
        g_mode = Mode::Chrome;
    else {
        g_mode = Mode::Off;
        g_path.clear();
        setEnabled(false);
        return spec == "off";
    }

    g_path = !path.empty() ? path
             : g_mode == Mode::Json ? "lp_profile.json"
                                    : "lp_profile.trace.json";
    LockSiteTable::instance().resetAll();
    const std::string stream =
        g_mode == Mode::Json ? g_path + ".spans.jsonl" : "";
    if (!obs::SpanLog::instance().reset(stream))
        obs::logMessage(obs::Level::Warn,
                        "cannot open span stream " + stream +
                            "; spans are only rolled into the final "
                            "profile",
                        /*force=*/true);
    setEnabled(true);
    return true;
}

Mode
mode()
{
    return g_mode;
}

const std::string &
outputPath()
{
    return g_path;
}

void
setEnabled(bool on)
{
    detail::g_profilingEnabled.store(on, std::memory_order_relaxed);
}

void
reset()
{
    obs::SpanLog::instance().reset();
    LockSiteTable::instance().resetAll();
}

obs::Json
contentionJson()
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
workersJson(const std::vector<obs::SpanRecord> &spans)
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
    for (const Task &t : tasksOf(spans)) {
        Worker &w = workers[t.span->worker];
        w.tasks += 1;
        w.cells += t.lanes;
        w.busyNs += t.span->wallNs;
        w.queueWaitNs += t.queueWaitNs;
        w.lockWaitNs += argU64(*t.span, "lock_wait_ns");
        w.instructions += t.lanes * argU64(*t.span, "instructions");
    }
    std::uint64_t regionWall = 0;
    for (const obs::SpanRecord &r : spans)
        if (r.name == "exec.region")
            regionWall += r.wallNs;

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
tasksJson(const std::vector<obs::SpanRecord> &spans)
{
    const std::vector<Task> tasks = tasksOf(spans);
    obs::Json arr = obs::Json::array();
    for (std::size_t k = 0; k < tasks.size(); ++k) {
        const obs::SpanRecord &t = *tasks[k].span;
        obs::Json j = obs::Json::object();
        j.set("task", static_cast<std::uint64_t>(k));
        j.set("program", argString(t, "program"));
        j.set("suite", argString(t, "suite"));
        j.set("lanes", static_cast<std::uint64_t>(tasks[k].lanes));
        j.set("worker", t.worker);
        j.set("start_ns", t.startNs);
        j.set("wall_ns", t.wallNs);
        j.set("queue_wait_ns", tasks[k].queueWaitNs);
        j.set("lock_wait_ns", argU64(t, "lock_wait_ns"));
        j.set("attempts", argU64(t, "attempts"));
        j.set("status", argString(t, "status"));
        arr.push(std::move(j));
    }
    return arr;
}

obs::Json
cellsJson(const std::vector<obs::SpanRecord> &spans)
{
    obs::Json arr = obs::Json::array();
    std::uint64_t task = 0;
    for (const obs::SpanRecord &r : spans) {
        if (r.name == "core.cell") {
            arr.push(cellRow(r, argString(r, "config"), obs::Json(),
                             r.startNs, 0));
            continue;
        }
        if (r.name != "core.task")
            continue;
        // Each cell gets an equal lane share of the task's wall time
        // (the remainder spread over the first lanes), laid end to end
        // from the task's start, so the shares sum to the wall exactly.
        const obs::Json configs =
            r.args.contains("cells") ? r.args.at("cells")
                                     : obs::Json::array();
        const std::uint64_t n =
            std::max<std::uint64_t>(configs.size(), 1);
        std::uint64_t at = r.startNs;
        for (std::size_t l = 0; l < configs.size(); ++l) {
            const std::uint64_t share =
                r.wallNs / n + (l < r.wallNs % n ? 1 : 0);
            arr.push(cellRow(r, configs.at(l).asString(), task, at, share));
            at += share;
        }
        ++task;
    }
    return arr;
}

obs::Json
profileJson(const std::vector<obs::SpanRecord> &spans)
{
    obs::Json all = obs::Json::array();
    for (const obs::SpanRecord &r : spans)
        all.push(r.toJson());
    obs::Json doc = obs::Json::object();
    doc.set("profile", "lp_prof");
    doc.set("v", 3);
    doc.set("contention", contentionJson());
    doc.set("workers", workersJson(spans));
    doc.set("tasks", tasksJson(spans));
    doc.set("cells", cellsJson(spans));
    doc.set("spans", std::move(all));
    return doc;
}

obs::Json
chromeProfile(const std::vector<obs::SpanRecord> &spans)
{
    obs::SpanRecord summary;
    summary.name = "lp_prof.summary";
    summary.instant = true;
    for (const obs::SpanRecord &r : spans)
        summary.startNs = std::max(summary.startNs, r.startNs + r.wallNs);
    summary.args.set("contention", contentionJson());
    summary.args.set("workers", workersJson(spans));
    std::vector<obs::SpanRecord> all = spans;
    all.push_back(std::move(summary));
    return obs::chromeTrace(all);
}

bool
finish()
{
    if (g_mode == Mode::Off)
        return true;
    const Mode m = g_mode;
    g_mode = Mode::Off;
    setEnabled(false);
    obs::SpanLog &log = obs::SpanLog::instance();
    const bool streamOk = log.closeStream();
    if (!streamOk)
        obs::logMessage(obs::Level::Error,
                        "cannot write span stream " + g_path + ".spans.jsonl",
                        /*force=*/true);
    const std::vector<obs::SpanRecord> spans = log.records();
    const obs::Json doc =
        m == Mode::Json ? profileJson(spans) : chromeProfile(spans);
    std::ofstream out(g_path, std::ios::trunc);
    if (out)
        out << doc.dump(2) << '\n' << std::flush;
    if (!out) {
        obs::logMessage(obs::Level::Error,
                        "cannot write profile to " + g_path,
                        /*force=*/true);
        return false;
    }
    LP_LOG_INFO("wrote %s profile to %s",
                m == Mode::Json ? "json" : "chrome", g_path.c_str());
    return streamOk;
}

} // namespace lp::prof
