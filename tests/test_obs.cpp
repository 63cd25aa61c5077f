/**
 * @file
 * Tests of the lp::obs observability layer: JSON round-trips, metric
 * arithmetic, the span log and its phases and Chrome views, and LP_LOG
 * filtering.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "prof/profile.hpp"
#include "support/text.hpp" // strf, used by the LP_LOG_* macros

namespace lp::obs {
namespace {

/** RAII: force metrics on and clean up global obs state afterwards. */
class ObsSandbox
{
  public:
    ObsSandbox()
        : savedLevel_(logLevel()), savedMetrics_(metricsOn())
    {
        Registry::instance().resetAll();
        SpanLog::instance().reset();
        setMetricsEnabled(true);
    }
    ~ObsSandbox()
    {
        setMetricsEnabled(savedMetrics_);
        setLogLevel(savedLevel_);
        setLogStream(nullptr);
        Registry::instance().resetAll();
        SpanLog::instance().reset();
    }

  private:
    Level savedLevel_;
    bool savedMetrics_;
};

// ----------------------------------------------------------------- JSON

TEST(Json, DumpAndParseRoundTrip)
{
    Json doc = Json::object();
    doc.set("int", std::int64_t{-42});
    doc.set("big", std::uint64_t{1'234'567'890'123ULL});
    doc.set("dbl", 2.5);
    doc.set("str", "quote \" backslash \\ newline \n tab \t");
    doc.set("flag", true);
    doc.set("nothing", Json());
    Json arr = Json::array();
    arr.push(1).push("two").push(3.0);
    doc.set("arr", std::move(arr));
    Json inner = Json::object();
    inner.set("k", "v");
    doc.set("obj", std::move(inner));

    for (int indent : {-1, 2}) {
        std::string err;
        Json back = Json::parse(doc.dump(indent), &err);
        ASSERT_TRUE(err.empty()) << err;
        EXPECT_EQ(back.at("int").asInt(), -42);
        EXPECT_EQ(back.at("big").asU64(), 1'234'567'890'123ULL);
        EXPECT_DOUBLE_EQ(back.at("dbl").asDouble(), 2.5);
        EXPECT_EQ(back.at("str").asString(),
                  "quote \" backslash \\ newline \n tab \t");
        EXPECT_TRUE(back.at("flag").asBool());
        EXPECT_TRUE(back.at("nothing").isNull());
        EXPECT_EQ(back.at("arr").size(), 3u);
        EXPECT_EQ(back.at("arr").at(1).asString(), "two");
        EXPECT_EQ(back.at("obj").at("k").asString(), "v");
    }
}

TEST(Json, ParseRejectsMalformedInput)
{
    for (const char *bad :
         {"{", "[1,]", "{\"a\":}", "tru", "{\"a\" 1}", "[1 2]", "\"x"}) {
        std::string err;
        Json v = Json::parse(bad, &err);
        EXPECT_FALSE(err.empty()) << "accepted: " << bad;
    }
}

TEST(Json, PreservesKeyInsertionOrder)
{
    Json doc = Json::object();
    doc.set("zebra", 1);
    doc.set("alpha", 2);
    doc.set("zebra", 3); // overwrite keeps the original position
    EXPECT_EQ(doc.dump(), "{\"zebra\":3,\"alpha\":2}");
    EXPECT_EQ(doc.keys(), (std::vector<std::string>{"zebra", "alpha"}));

    // A parsed object with a repeated key: its first place, its last value.
    const Json parsed = Json::parse("{\"a\":1,\"b\":2,\"a\":3}");
    EXPECT_EQ(parsed.dump(), "{\"a\":3,\"b\":2}");
}

TEST(Json, NumbersPrintAsPrintfDoes)
{
    // dump() formats a double with std::to_chars(general, 17), which is
    // specified to match %.17g, and an integer as PRId64 does.
    const double doubles[] = {0.1,
                              1.0 / 3,
                              5e-324,
                              2.2250738585072014e-308,
                              1e21,
                              1e-7,
                              1.2345678901234568e17,
                              -0.0,
                              std::numeric_limits<double>::max()};
    for (double d : doubles) {
        char want[40];
        std::snprintf(want, sizeof(want), "%.17g", d);
        const std::string text = Json(d).dump();
        EXPECT_EQ(text, want);
        std::string err;
        const Json back = Json::parse(text, &err);
        ASSERT_TRUE(err.empty()) << text << ": " << err;
        if (d == 0.0 && std::signbit(d)) {
            // "-0" reads back as the integer 0: the sign is lost.
            EXPECT_EQ(back.kind(), Json::Kind::Int) << text;
            continue;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(back.asDouble()),
                  std::bit_cast<std::uint64_t>(d))
            << text;
    }
    for (std::int64_t i : {INT64_MIN, INT64_MAX}) {
        char want[32];
        std::snprintf(want, sizeof(want), "%" PRId64, i);
        EXPECT_EQ(Json(i).dump(), want);
        EXPECT_EQ(Json::parse(want).asInt(), i);
    }
    for (double d : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity()})
        EXPECT_EQ(Json(d).dump(), "null") << d;
}

// -------------------------------------------------------------- metrics

TEST(Metrics, CounterArithmetic)
{
    ObsSandbox sandbox;
    Counter &c = Registry::instance().counter("test.ctr");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    // Same name yields the same counter.
    EXPECT_EQ(&Registry::instance().counter("test.ctr"), &c);
    Registry::instance().resetAll();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, HistogramBuckets)
{
    ObsSandbox sandbox;
    Histogram h({10, 100, 1000});
    for (std::uint64_t v : {0ULL, 10ULL, 11ULL, 100ULL, 5000ULL})
        h.record(v);
    // bucket 0: <=10 (0, 10), bucket 1: <=100 (11, 100),
    // bucket 2: <=1000 (none), overflow: 5000.
    ASSERT_EQ(h.bucketCounts().size(), 4u);
    EXPECT_EQ(h.bucketCounts()[0], 2u);
    EXPECT_EQ(h.bucketCounts()[1], 2u);
    EXPECT_EQ(h.bucketCounts()[2], 0u);
    EXPECT_EQ(h.bucketCounts()[3], 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 5121u);
    EXPECT_DOUBLE_EQ(h.mean(), 5121.0 / 5.0);

    // Weighted samples and a merged histogram land where single
    // records would.
    Histogram w({10, 100, 1000});
    w.record(11, 3);
    w.add(h);
    EXPECT_EQ(w.bucketCounts(),
              (std::vector<std::uint64_t>{2, 5, 0, 1}));
    EXPECT_EQ(w.count(), 8u);
    EXPECT_EQ(w.sum(), 5121u + 33u);
    EXPECT_THROW(w.add(Histogram({10, 100})), std::logic_error);
}

TEST(Metrics, SnapshotIsValidJson)
{
    ObsSandbox sandbox;
    Registry &reg = Registry::instance();
    reg.counter("snap.ctr").add(7);
    reg.histogram("snap.hist", {1, 2, 4}).record(3);

    std::string err;
    Json back = Json::parse(reg.toJson().dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    EXPECT_EQ(back.at("counters").at("snap.ctr").asU64(), 7u);
    EXPECT_EQ(back.at("histograms").at("snap.hist").at("count").asU64(),
              1u);
    EXPECT_EQ(back.at("histograms").at("snap.hist").at("counts").size(),
              4u);
    EXPECT_EQ(back.size(), 2u); // counters and histograms, nothing else
}

// --------------------------------------------------------------- phases

TEST(Phases, NestingBuildsATree)
{
    ObsSandbox sandbox; // metrics on: spans are recorded
    {
        ScopedPhase outer("outer");
        {
            ScopedPhase inner("inner");
            inner.addInstructions(100);
        }
        {
            ScopedPhase inner("inner"); // merges with the node above
        }
        ScopedPhase sibling("sibling");
    }
    {
        ScopedPhase outer("outer"); // second completion of the same node
    }

    std::string err;
    const Json tree = Json::parse(
        phasesJson(SpanLog::instance().records()).dump(), &err);
    ASSERT_TRUE(err.empty()) << err;
    ASSERT_EQ(tree.size(), 1u);
    const Json &outer = tree.at(0);
    EXPECT_EQ(outer.at("name").asString(), "outer");
    EXPECT_EQ(outer.at("count").asU64(), 2u);
    ASSERT_EQ(outer.at("children").size(), 2u);
    const Json &inner = outer.at("children").at(0);
    EXPECT_EQ(inner.at("name").asString(), "inner");
    EXPECT_EQ(inner.at("count").asU64(), 2u);
    EXPECT_EQ(inner.at("instructions").asU64(), 100u);
    EXPECT_EQ(inner.at("children").size(), 0u);
    EXPECT_EQ(outer.at("children").at(1).at("name").asString(), "sibling");
    EXPECT_EQ(outer.at("instructions").asU64(), 0u);
}

TEST(Phases, CountOnlyAddedInstructionsAndSkipInstants)
{
    SpanRecord task;
    task.id = 1;
    task.name = "core.task";
    task.wallNs = 10;
    task.args.set("instructions", 99); // a label, not attributed work
    SpanRecord batch;
    batch.id = 2;
    batch.parent = 1;
    batch.name = "rt.batch";
    batch.wallNs = 4;
    batch.instructions = 42;
    SpanRecord mark;
    mark.id = 3;
    mark.parent = 2;
    mark.name = "core.cell";
    mark.instant = true;
    SpanRecord orphan; // its parent never made the log: a root
    orphan.id = 5;
    orphan.parent = 4;
    orphan.name = "rt.batch";
    orphan.instructions = 1;

    // Close order: children before parents.
    const Json tree = phasesJson({mark, batch, task, orphan});
    ASSERT_EQ(tree.size(), 2u);
    EXPECT_EQ(tree.at(0).at("name").asString(), "core.task");
    EXPECT_EQ(tree.at(0).at("wall_ns").asU64(), 10u);
    EXPECT_EQ(tree.at(0).at("instructions").asU64(), 0u);
    const Json &kids = tree.at(0).at("children");
    ASSERT_EQ(kids.size(), 1u);
    EXPECT_EQ(kids.at(0).at("instructions").asU64(), 42u);
    EXPECT_EQ(kids.at(0).at("children").size(), 0u);
    EXPECT_EQ(tree.at(1).at("name").asString(), "rt.batch");
    EXPECT_EQ(tree.at(1).at("instructions").asU64(), 1u);
}

// ------------------------------------------------------------- span log

/** RAII: record spans into an emptied log; stop and empty it after. */
class SpanSandbox
{
  public:
    SpanSandbox()
    {
        SpanLog::instance().reset();
        prof::setEnabled(true);
    }
    ~SpanSandbox()
    {
        prof::setEnabled(false);
        SpanLog::instance().reset();
    }
};

const SpanRecord &
named(const std::vector<SpanRecord> &records, const std::string &name)
{
    for (const SpanRecord &r : records)
        if (r.name == name)
            return r;
    ADD_FAILURE() << "no span named " << name;
    return records.front();
}

TEST(Spans, PhasesRecordNestedSpansOnOneClock)
{
    ObsSandbox sandbox;
    SpanSandbox spans;
    {
        ScopedPhase outer("outer");
        outer.set("program", "p");
        {
            ScopedPhase inner("inner");
            inner.addInstructions(7);
            instant("mark", Json::object().set("k", 1));
        }
    }
    const std::vector<SpanRecord> records = SpanLog::instance().records();
    ASSERT_EQ(records.size(), 3u);
    // Close order: the instant, then the inner span, then the outer.
    EXPECT_EQ(records[0].name, "mark");
    EXPECT_EQ(records[1].name, "inner");
    EXPECT_EQ(records[2].name, "outer");

    const SpanRecord &outer = records[2], &inner = records[1],
                     &mark = records[0];
    EXPECT_EQ(outer.parent, 0u);
    EXPECT_EQ(inner.parent, outer.id);
    EXPECT_EQ(mark.parent, inner.id);
    EXPECT_LT(outer.id, inner.id); // ids follow open order
    for (const SpanRecord &r : records)
        EXPECT_EQ(r.worker, threadLane());

    // A child lies inside its parent on the one clock.
    EXPECT_LE(outer.startNs, inner.startNs);
    EXPECT_LE(inner.startNs + inner.wallNs, outer.startNs + outer.wallNs);
    EXPECT_LE(inner.startNs, mark.startNs);
    EXPECT_LE(mark.startNs, inner.startNs + inner.wallNs);
    EXPECT_TRUE(mark.instant);
    EXPECT_EQ(mark.wallNs, 0u);
    EXPECT_FALSE(inner.instant);

    EXPECT_EQ(outer.args.at("program").asString(), "p");
    EXPECT_EQ(inner.args.at("instructions").asU64(), 7u);
    EXPECT_EQ(mark.args.at("k").asInt(), 1);
    EXPECT_TRUE(outer.toJson().at("parent").isNull());
    EXPECT_EQ(inner.toJson().at("parent").asU64(), outer.id);
    EXPECT_EQ(inner.instructions, 7u);
}

TEST(Spans, NothingIsRecordedWhileMetricsAndProfileAreOff)
{
    ObsSandbox sandbox;
    setMetricsEnabled(false);
    ASSERT_FALSE(spansOn());
    {
        ScopedPhase phase("unrecorded");
        phase.set("ignored", 1); // a no-op, not an error
        phase.addInstructions(3);
        instant("unrecorded.instant", Json::object());
    }
    EXPECT_TRUE(SpanLog::instance().records().empty());

    // Metrics alone record spans: their report carries the phases.
    setMetricsEnabled(true);
    {
        ScopedPhase phase("recorded");
        instant("recorded.instant", Json::object());
    }
    EXPECT_EQ(SpanLog::instance().records().size(), 2u);
}

TEST(Spans, WorkersNestOnTheirOwnLanes)
{
    ObsSandbox sandbox;
    SpanSandbox spans;
    auto work = [] {
        ScopedPhase task("task");
        ScopedPhase batch("batch");
    };
    {
        ScopedPhase region("region");
        std::thread a(work), b(work);
        a.join();
        b.join();
    }
    const std::vector<SpanRecord> records = SpanLog::instance().records();
    ASSERT_EQ(records.size(), 5u);
    std::set<unsigned> taskWorkers;
    for (const SpanRecord &r : records) {
        if (r.name == "task") {
            // A worker's spans root at its own top level, never under
            // the span another thread has open.
            EXPECT_EQ(r.parent, 0u);
            EXPECT_NE(r.worker, named(records, "region").worker);
            taskWorkers.insert(r.worker);
        }
        if (r.name != "batch")
            continue;
        bool found = false;
        for (const SpanRecord &p : records)
            if (p.id == r.parent) {
                found = true;
                EXPECT_EQ(p.name, "task");
                EXPECT_EQ(p.worker, r.worker);
            }
        EXPECT_TRUE(found);
    }
    EXPECT_EQ(taskWorkers.size(), 2u);
}

TEST(Spans, StreamCarriesOneLinePerRecord)
{
    ObsSandbox sandbox;
    SpanSandbox spans;
    const std::string path = testing::TempDir() + "lp_obs_spans.jsonl";
    ASSERT_TRUE(SpanLog::instance().reset(path));
    {
        ScopedPhase a("a");
        ScopedPhase b("b");
    }
    instant("c", Json::object());
    EXPECT_TRUE(SpanLog::instance().closeStream());

    const std::vector<SpanRecord> records = SpanLog::instance().records();
    std::ifstream in(path);
    std::string line;
    std::size_t n = 0;
    while (std::getline(in, line)) {
        std::string err;
        Json rec = Json::parse(line, &err);
        ASSERT_TRUE(err.empty()) << err << " in line: " << line;
        ASSERT_LT(n, records.size());
        EXPECT_EQ(rec.dump(), records[n].toJson().dump());
        ++n;
    }
    EXPECT_EQ(n, 3u);
    std::remove(path.c_str());
}

TEST(Spans, ChromeTraceDocumentShape)
{
    SpanRecord span;
    span.name = "rt.batch";
    span.worker = 3;
    span.startNs = 5000;
    span.wallNs = 100000;
    span.args.set("lanes", 14);
    SpanRecord mark;
    mark.name = "core.cell";
    mark.startNs = 7000;
    mark.instant = true;

    Json doc = chromeTrace({span, mark});
    std::string err;
    Json back = Json::parse(doc.dump(2), &err);
    ASSERT_TRUE(err.empty()) << err;
    const Json &events = back.at("traceEvents");
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events.at(0).at("name").asString(), "rt.batch");
    EXPECT_EQ(events.at(0).at("ph").asString(), "X");
    EXPECT_EQ(events.at(0).at("tid").asU64(), 3u);
    EXPECT_DOUBLE_EQ(events.at(0).at("ts").asDouble(), 5.0);
    EXPECT_DOUBLE_EQ(events.at(0).at("dur").asDouble(), 100.0);
    EXPECT_EQ(events.at(0).at("args").at("lanes").asU64(), 14u);
    EXPECT_EQ(events.at(1).at("ph").asString(), "i");
    EXPECT_FALSE(events.at(1).contains("dur"));
}

// -------------------------------------------------------------- logging

TEST(Log, LevelParsingAndNames)
{
    EXPECT_EQ(parseLevel("off"), Level::Off);
    EXPECT_EQ(parseLevel("error"), Level::Error);
    EXPECT_EQ(parseLevel("info"), Level::Info);
    EXPECT_EQ(parseLevel("debug"), Level::Debug);
    EXPECT_EQ(parseLevel("nonsense"), Level::Off);
    EXPECT_STREQ(levelName(Level::Debug), "debug");
}

TEST(Log, LevelFiltersMessages)
{
    ObsSandbox sandbox;
    std::ostringstream captured;
    setLogStream(&captured);

    setLogLevel(Level::Info);
    LP_LOG_ERROR("e1");
    LP_LOG_INFO("i1");
    LP_LOG_DEBUG("d1"); // suppressed
    setLogLevel(Level::Off);
    LP_LOG_ERROR("e2"); // suppressed
    logMessage(Level::Error, "forced", /*force=*/true);

    std::string out = captured.str();
    EXPECT_NE(out.find("[lp:error] e1"), std::string::npos);
    EXPECT_NE(out.find("[lp:info] i1"), std::string::npos);
    EXPECT_EQ(out.find("d1"), std::string::npos);
    EXPECT_EQ(out.find("e2"), std::string::npos);
    EXPECT_NE(out.find("forced"), std::string::npos);
}

} // namespace
} // namespace lp::obs
