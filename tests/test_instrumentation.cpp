/**
 * @file
 * The compiled instrumentation: a Machine built with an
 * interp::Instrumentation fires loop events on classified CFG edges,
 * and a batch's Machine compiles in only the events its lanes can use.
 *
 *  - The edge classification agrees, event for event and clock sample
 *    for clock sample, with the loop events the block-stream rule
 *    derives from the unfiltered listener stream (Loop::contains on
 *    every block entry, the plan's header table): over the fixture
 *    shapes, the 30 suite programs, fuzz seeds 0-63 and the loop-edge
 *    fixtures (tests/loop_edges), with every event selected and with
 *    the lane engine's own selection (whose calls into loop-free
 *    leaves run inline).  Each load's and store's clock is checked
 *    against its IR position, so fused lowered ops and inlined calls
 *    must keep preciseCost() exact.
 *  - The per-batch selection (rt::selectEvents) drops what no lane can
 *    use and keeps what one can.
 *  - The counts of the all-suite default and --lint sweeps are pinned,
 *    and the rt.batch spans carry them.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <ostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/driver.hpp"
#include "core/sweep.hpp"
#include "exec/pool.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/spec.hpp"
#include "helpers.hpp"
#include "interp/execute.hpp"
#include "ir/parser.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "prof/profile.hpp"
#include "suites/registry.hpp"

namespace lp {
namespace {

/** One event of the stream the lane engine sees, with its samples. */
struct Event
{
    /**
     * x: loops exited (arg = k); e: loop entered (arg = ordinal);
     * i: iteration; r: function return (arg = loops it leaves open);
     * w: def-watch block entered (arg = block id); p: phi (arg = phi
     * id); l / s: load / store (arg = memory-op id).
     */
    char kind;
    std::uint64_t arg;
    std::uint64_t clock; ///< the sink's clock sample, or a phi's value
    std::uint64_t aux;   ///< stack pointer or address, where sampled

    bool operator==(const Event &) const = default;
};

std::ostream &
operator<<(std::ostream &os, const Event &e)
{
    return os << e.kind << '(' << e.arg << ") @" << e.clock << " aux "
              << e.aux;
}

/** Does block @p b have def watches? */
bool
watched(const rt::ProgramTables &t, std::size_t b)
{
    return t.watches[b] != nullptr;
}

/**
 * The compiled side: what a Machine built with an Instrumentation
 * fires, with the samples the lane engine takes.  Each frame's open
 * loop count is tracked so a return's implicit closes show too.
 */
struct CompiledLog
{
    const interp::Machine *m = nullptr;
    std::vector<Event> events;
    std::vector<std::uint64_t> open; ///< loops open per frame

    void functionEnter(const ir::Function *) { open.push_back(0); }
    void
    functionExit(const ir::Function *)
    {
        events.push_back({'r', open.back(), m->cost(), 0});
        open.pop_back();
    }
    void
    loopExit(std::uint32_t k)
    {
        events.push_back({'x', k, m->blockEntryCost(), 0});
        open.back() -= k;
    }
    void
    loopEnter(std::uint32_t ord)
    {
        events.push_back({'e', ord, m->blockEntryCost(), m->stackPointer()});
        open.back() += 1;
    }
    void
    loopIterate()
    {
        events.push_back({'i', 0, m->blockEntryCost(), m->stackPointer()});
    }
    void
    blockEnter(std::uint32_t b)
    {
        events.push_back({'w', b, m->blockEntryCost(), 0});
    }
    void
    phiResolved(std::uint32_t phi, std::uint64_t bits)
    {
        events.push_back({'p', phi, bits, 0});
    }
    void
    load(std::uint32_t i, std::uint64_t addr)
    {
        events.push_back({'l', i, m->preciseCost(), addr});
    }
    void
    store(std::uint32_t i, std::uint64_t addr)
    {
        events.push_back({'s', i, m->preciseCost(), addr});
    }
    void callSite(const ir::Instruction *) {}
};

/**
 * The reference side: the same events derived from the unfiltered
 * listener stream by the rule the lane engine applied to every block
 * entry before the lowering classified edges: close each open loop of
 * this frame that does not contain the block, then at a header iterate
 * its loop if it is open on top, else enter it.  Of the other events it
 * keeps those @p sel selects (main's returns always).
 */
class BlockRule final : public interp::ExecListener
{
  public:
    BlockRule(const rt::ModulePlan &plan, const rt::ProgramTables &tables,
              const interp::Instrumentation &sel)
        : plan_(plan), sel_(sel)
    {
        for (const auto &fn : plan.module().functions())
            announced_.emplace(fn.get(),
                               sel.functions[announced_.size()] ||
                                   fn.get() == plan.module().mainFunction());
        for (std::uint32_t b = 0; b < tables.ids.blocks.size(); ++b)
            blockId_.emplace(tables.ids.blocks[b], b);
        for (std::uint32_t p = 0; p < tables.ids.phis.size(); ++p)
            instrId_.emplace(tables.ids.phis[p], p);
        for (std::uint32_t i = 0; i < tables.ids.memOps.size(); ++i)
            instrId_.emplace(tables.ids.memOps[i], i);
        for (const ir::Instruction *i : tables.ids.memOps) {
            const auto &instrs = i->parent()->instructions();
            for (std::uint64_t ip = 0; ip < instrs.size(); ++ip)
                if (instrs[ip].get() == i)
                    position_.emplace(i, ip);
        }
    }

    const interp::Machine *m = nullptr;
    std::vector<Event> events;

    void
    onFunctionEnter(const ir::Function *) override
    {
        frames_.push_back(open_.size());
    }
    void
    onFunctionExit(const ir::Function *fn) override
    {
        if (announced_.at(fn))
            events.push_back(
                {'r', open_.size() - frames_.back(), m->cost(), 0});
        open_.resize(frames_.back());
        frames_.pop_back();
    }
    void
    onBlockEnter(const ir::BasicBlock *bb) override
    {
        const std::uint64_t now = m->blockEntryCost();
        const std::size_t lo = frames_.back();
        std::uint64_t closed = 0;
        while (open_.size() > lo &&
               !plan_.loopByOrdinal(open_.back()).loop->contains(bb)) {
            open_.pop_back();
            ++closed;
        }
        if (closed)
            events.push_back({'x', closed, now, 0});
        const int ord = plan_.headerOrdinal(bb);
        if (ord >= 0) {
            const auto o = static_cast<unsigned>(ord);
            if (open_.size() > lo && open_.back() == o) {
                events.push_back({'i', 0, now, m->stackPointer()});
            } else {
                open_.push_back(o);
                events.push_back({'e', o, now, m->stackPointer()});
            }
        }
        const std::uint32_t b = blockId_.at(bb);
        if (sel_.blocks[b])
            events.push_back({'w', b, now, 0});
    }
    void
    onPhiResolved(const ir::Instruction *phi, std::uint64_t bits) override
    {
        if (sel_.phis[instrId_.at(phi)])
            events.push_back({'p', instrId_.at(phi), bits, 0});
    }
    void
    onLoad(const ir::Instruction *i, std::uint64_t addr) override
    {
        if (sel_.memOps[instrId_.at(i)])
            events.push_back({'l', instrId_.at(i), clockAt(i), addr});
    }
    void
    onStore(const ir::Instruction *i, std::uint64_t addr) override
    {
        if (sel_.memOps[instrId_.at(i)])
            events.push_back({'s', instrId_.at(i), clockAt(i), addr});
    }

  private:
    /**
     * The instruction-resolution clock at @p i by its definition: the
     * block's entry clock plus the instructions of the block up to and
     * including @p i, counted in the IR (not the Machine's preciseCost(),
     * which the compiled side samples).
     */
    std::uint64_t
    clockAt(const ir::Instruction *i) const
    {
        return m->blockEntryCost() + position_.at(i) + 1;
    }

    const rt::ModulePlan &plan_;
    const interp::Instrumentation &sel_;
    /** Does a return from the function fire? */
    std::unordered_map<const ir::Function *, bool> announced_;
    std::unordered_map<const ir::BasicBlock *, std::uint32_t> blockId_;
    std::unordered_map<const ir::Instruction *, std::uint32_t> instrId_;
    /** Each load's and store's index in its block. */
    std::unordered_map<const ir::Instruction *, std::uint64_t> position_;
    std::vector<std::size_t> frames_;
    std::vector<unsigned> open_;
};

/**
 * Run @p mod compiled with the loop forest and @p sel, and through a
 * listener under the block rule; the two streams must be equal.
 */
void
expectClassificationMatches(const ir::Module &mod, const core::Loopapalooza &lp,
                            const rt::ProgramTables &tables,
                            const interp::Instrumentation &sel,
                            const std::string &what)
{
    interp::Machine compiled(mod, sel);
    CompiledLog log;
    log.m = &compiled;
    const std::uint64_t result = compiled.run(log);

    BlockRule rule(lp.plan(), tables, sel);
    interp::Machine reference(mod, &rule);
    rule.m = &reference;
    EXPECT_EQ(reference.run(), result) << what;
    EXPECT_EQ(compiled.cost(), reference.cost()) << what;

    const std::vector<Event> &got = log.events, &want = rule.events;
    const std::size_t n = std::min(got.size(), want.size());
    std::size_t i = 0;
    while (i < n && got[i] == want[i])
        ++i;
    if (i < n)
        ADD_FAILURE() << what << ": event " << i << " is " << got[i]
                      << ", the block rule gives " << want[i];
    EXPECT_EQ(got.size(), want.size()) << what;
    EXPECT_NE(std::count_if(got.begin(), got.end(),
                            [](const Event &e) { return e.kind == 'e'; }),
              0)
        << what << " enters no loop";
}

/**
 * expectClassificationMatches under two selections: every function,
 * def-watch block, phi, load and store, and the lane engine's own for
 * the full configuration grid (fewer functions and accesses, so calls
 * into loop-free leaves run inline).
 */
void
expectClassificationMatches(const ir::Module &mod, const std::string &what)
{
    core::Loopapalooza lp(mod);
    const rt::ProgramTables tables(lp.plan());
    interp::Instrumentation all;
    all.loops = &tables.forest;
    all.functions.assign(mod.functions().size(), true);
    for (std::size_t b = 0; b < tables.ids.blocks.size(); ++b)
        all.blocks.push_back(watched(tables, b));
    all.phis.assign(tables.ids.phis.size(), true);
    all.memOps.assign(tables.ids.memOps.size(), true);
    expectClassificationMatches(mod, lp, tables, all, what);
    expectClassificationMatches(
        mod, lp, tables,
        rt::selectEvents(lp.plan(), tables, test::fullGrid(), false),
        what + " (lane selection)");
}

std::unique_ptr<ir::Module>
parseFixture(const std::string &relPath)
{
    std::ifstream in(std::string(LP_SOURCE_DIR) + "/" + relPath);
    EXPECT_TRUE(in.good()) << "cannot open " << relPath;
    std::stringstream buf;
    buf << in.rdbuf();
    return ir::parseModule(buf.str(), interp::stdlibImplFor);
}

const char *const kLoopEdgeFixtures[] = {
    "tests/loop_edges/nest_edges.lir",
    "tests/loop_edges/recursion_entry_header.lir",
};

TEST(EdgeClassification, FixtureShapes)
{
    for (auto &[name, mod] : test::allShapes())
        expectClassificationMatches(*mod, name);
}

TEST(EdgeClassification, SuitePrograms)
{
    for (const core::BenchProgram &prog : suites::allPrograms()) {
        auto mod = prog.build();
        expectClassificationMatches(*mod, prog.suite + "/" + prog.name);
    }
}

TEST(EdgeClassification, FuzzSeeds)
{
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        auto mod = fuzz::generateProgram(seed);
        expectClassificationMatches(*mod, "seed " + std::to_string(seed));
    }
}

TEST(EdgeClassification, LoopEdgeFixtures)
{
    for (const char *path : kLoopEdgeFixtures)
        expectClassificationMatches(*parseFixture(path), path);
}

/**
 * With nothing selected only loop events fire, and nest_edges' two
 * multi-loop edges compile to exit-then-iterate and exit-two.
 */
TEST(EdgeClassification, InnerLoopToOuterHeaderExitsThenIterates)
{
    auto mod = parseFixture(kLoopEdgeFixtures[0]);
    core::Loopapalooza lp(*mod);
    const rt::ProgramTables tables(lp.plan());
    interp::Instrumentation none;
    none.loops = &tables.forest;
    none.functions.assign(mod->functions().size(), true);
    none.blocks.assign(tables.ids.blocks.size(), false);
    none.phis.assign(tables.ids.phis.size(), false);
    none.memOps.assign(tables.ids.memOps.size(), false);
    interp::Machine compiled(*mod, none);
    CompiledLog log;
    log.m = &compiled;
    compiled.run(log);
    // @scan's i.cont -> o.hdr: one loop closes and the outer loop
    // iterates at the same clock; @scan's leave: two loops close, and
    // its return then finds none open.
    bool exitThenIterate = false, exitTwoThenReturn = false;
    for (const Event &e : log.events)
        EXPECT_TRUE(e.kind == 'x' || e.kind == 'e' || e.kind == 'i' ||
                    e.kind == 'r')
            << e;
    for (std::size_t i = 0; i + 1 < log.events.size(); ++i) {
        const Event &a = log.events[i], &b = log.events[i + 1];
        exitThenIterate |= a.kind == 'x' && a.arg == 1 && b.kind == 'i' &&
                           a.clock == b.clock;
        exitTwoThenReturn |= a.kind == 'x' && a.arg == 2 &&
                             b.kind == 'r' && b.arg == 0;
    }
    EXPECT_TRUE(exitThenIterate);
    EXPECT_TRUE(exitTwoThenReturn);
}

/** Counts of selected events by kind. */
struct Selected
{
    std::size_t blocks = 0, phis = 0, memOps = 0;
};

Selected
countSelected(const interp::Instrumentation &ev)
{
    return {static_cast<std::size_t>(
                std::count(ev.blocks.begin(), ev.blocks.end(), true)),
            static_cast<std::size_t>(
                std::count(ev.phis.begin(), ev.phis.end(), true)),
            static_cast<std::size_t>(
                std::count(ev.memOps.begin(), ev.memOps.end(), true))};
}

/** RAII: metrics on, zeroed and with an empty span log; restored and
 *  emptied afterwards. */
class MetricsOn
{
  public:
    MetricsOn() : saved_(obs::metricsOn())
    {
        obs::Registry::instance().resetAll();
        obs::SpanLog::instance().reset();
        obs::setMetricsEnabled(true);
    }
    ~MetricsOn()
    {
        obs::setMetricsEnabled(saved_);
        obs::Registry::instance().resetAll();
        obs::SpanLog::instance().reset();
    }
    static std::uint64_t
    count(const std::string &name)
    {
        return obs::Registry::instance().counter(name).value();
    }

  private:
    bool saved_;
};

rt::LPConfig
config(int reduc, int dep, int fn, rt::ExecModel model)
{
    rt::LPConfig c;
    c.reduc = reduc;
    c.dep = dep;
    c.fn = fn;
    c.model = model;
    return c;
}

/**
 * Every loop carries a non-computable register LCD (x *= 3 feeds an
 * address, so it is no reduction) or makes a call.
 */
const char *const kNoEligibleLoop = R"(module no_eligible_loop
global @a [512 bytes]
global @b [64 bytes]

func i64 @bump(i64 %i) {
  entry:
    %o = mul i64 %i, 8
    %p = ptradd ptr @b, %o
    %v = load i64 %p
    %v1 = add i64 %v, 1
    store %v1, %p
    ret %v1
}

func i64 @main() {
  entry:
    jmp label l.hdr
  l.hdr:
    %i = phi i64 [0, entry], [%i.next, l.latch]
    %x = phi i64 [1, entry], [%x.next, l.latch]
    %c = icmp.lt i64 %i, 8
    br %c, label l.body, label l.exit
  l.body:
    %k = and i64 %x, 63
    %o = mul i64 %k, 8
    %p = ptradd ptr @a, %o
    %v = load i64 %p
    %v1 = add i64 %v, %i
    store %v1, %p
    %x.next = mul i64 %x, 3
    jmp label l.latch
  l.latch:
    %i.next = add i64 %i, 1
    jmp label l.hdr
  l.exit:
    jmp label c.hdr
  c.hdr:
    %j = phi i64 [0, l.exit], [%j.next, c.latch]
    %cc = icmp.lt i64 %j, 8
    br %cc, label c.body, label c.exit
  c.body:
    %r = call i64 @bump %j
    jmp label c.latch
  c.latch:
    %j.next = add i64 %j, 1
    jmp label c.hdr
  c.exit:
    ret %x
}
)";

TEST(EventSelection, NoEligibleLoopReceivesNoMemoryEvents)
{
    auto mod = ir::parseModule(kNoEligibleLoop, interp::stdlibImplFor);
    core::Loopapalooza lp(*mod);
    const rt::ProgramTables tables(lp.plan());
    ASSERT_FALSE(tables.ids.memOps.empty());

    const rt::LPConfig none = config(0, 0, 0, rt::ExecModel::PartialDoAll);
    const rt::ProgramReport rep = [&] {
        MetricsOn metrics;
        rt::ProgramReport r = lp.run(none);
        EXPECT_EQ(MetricsOn::count("tracker.mem_events"), 0u);
        EXPECT_EQ(MetricsOn::count("tracker.loop_instances"), 2u);
        return r;
    }();
    for (const rt::LoopReport &row : rep.loops)
        EXPECT_NE(row.staticReason, rt::SerialReason::None) << row.label;
    EXPECT_EQ(countSelected(rt::selectEvents(lp.plan(), tables, {none},
                                             /*withOracle=*/false))
                  .memOps,
              0u);

    // Both loops are eligible under reduc1-dep2-fn3: every access is
    // delivered again.
    const rt::LPConfig all = config(1, 2, 3, rt::ExecModel::PartialDoAll);
    EXPECT_EQ(countSelected(rt::selectEvents(lp.plan(), tables, {all},
                                             /*withOracle=*/false))
                  .memOps,
              tables.ids.memOps.size());
    MetricsOn metrics;
    lp.run(all);
    EXPECT_GT(MetricsOn::count("tracker.mem_events"), 0u);
}

/**
 * The store the next iteration's load reads back is in a callee with no
 * loop of its own (test::buildCalleeStore), with and without a store of
 * the loop's own to @a: the impure call alone keeps the static filter
 * from treating @a as read-only in the loop.
 */
TEST(EventSelection, CalleeStoreReachedFromAnEligibleLoopConflicts)
{
    for (bool loopStore : {true, false}) {
        SCOPED_TRACE(loopStore ? "with the loop's own store"
                               : "callee store only");
        auto mod = test::buildCalleeStore(loopStore);
        core::Loopapalooza lp(*mod);
        const rt::ProgramTables tables(lp.plan());
        std::uint32_t storeId = 0;
        while (tables.ids.memOps[storeId]->opcode() != ir::Opcode::Store)
            ++storeId;
        ASSERT_EQ(tables.memLoop[storeId], -1); // @put has no loop

        const fuzz::SpecEvaluator spec(lp.plan());
        for (const rt::LPConfig &cfg :
             {config(1, 2, 3, rt::ExecModel::PartialDoAll),
              config(1, 2, 3, rt::ExecModel::Helix),
              config(1, 0, 2, rt::ExecModel::DoAll)}) {
            EXPECT_TRUE(rt::selectEvents(lp.plan(), tables, {cfg}, false)
                            .memOps[storeId])
                << cfg.str();
            const rt::ProgramReport rep = lp.run(cfg);
            ASSERT_EQ(rep.loops.size(), 1u);
            EXPECT_EQ(rep.loops[0].staticReason, rt::SerialReason::None);
            EXPECT_EQ(rep.loops[0].memConflicts, 10u) << cfg.str();
            EXPECT_TRUE(fuzz::specDifferences(
                            rep.toJson(),
                            spec.evaluate(cfg, rep.program).toJson())
                            .empty())
                << cfg.str();
        }
        // fn0 serializes the loop for its call: nothing watches @put.
        EXPECT_FALSE(rt::selectEvents(lp.plan(), tables,
                                      {config(1, 0, 0, rt::ExecModel::DoAll)},
                                      false)
                         .memOps[storeId]);
    }
}

TEST(EventSelection, OracleOnlyPhiFiresOnlyUnderTheOracle)
{
    auto mod = test::buildSaxpy(32);
    core::Loopapalooza lp(*mod);
    const rt::ProgramTables tables(lp.plan());
    // Every saxpy loop's only header phi is its affine IV: computable,
    // so no lane ever tracks it, and the oracle watches it.
    std::vector<std::uint32_t> ivs;
    for (std::uint32_t p = 0; p < tables.ids.phis.size(); ++p) {
        if (tables.phiLoop[p] < 0)
            continue;
        EXPECT_EQ(tables.phiTracked[p], -1);
        ivs.push_back(p);
    }
    ASSERT_FALSE(ivs.empty());

    const std::vector<rt::LPConfig> grid = test::fullGrid();
    const interp::Instrumentation plain =
        rt::selectEvents(lp.plan(), tables, grid, false);
    const interp::Instrumentation linted =
        rt::selectEvents(lp.plan(), tables, grid, true);
    for (std::uint32_t p : ivs) {
        EXPECT_FALSE(plain.phis[p]) << tables.ids.phis[p]->name();
        EXPECT_TRUE(linted.phis[p]) << tables.ids.phis[p]->name();
    }

    // Under the oracle the run delivers them: every watch samples.
    rt::OracleCapture cap;
    lp.run(grid.front(), cap);
    ASSERT_EQ(cap.watches().size(), ivs.size());
    for (unsigned w = 0; w < cap.watches().size(); ++w)
        EXPECT_GT(cap.stats(w).samples, 0u) << cap.watches()[w].phiName;
}

/** Every nonzero counter of the registry's snapshot. */
std::map<std::string, std::uint64_t>
nonzeroCounters(const obs::Json &snapshot)
{
    std::map<std::string, std::uint64_t> out;
    const obs::Json &counters = snapshot.at("counters");
    for (const std::string &name : counters.keys())
        if (counters.at(name).asU64() != 0)
            out.emplace(name, counters.at(name).asU64());
    return out;
}

std::vector<std::uint64_t>
u64s(const obs::Json &array)
{
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < array.size(); ++i)
        out.push_back(array.at(i).asU64());
    return out;
}

/**
 * The counts of the all-suite default and --lint sweeps (run_study
 * --json under LP_METRICS=1), exact: every counter and the trip-count
 * histogram, at --jobs 1 and 4, with profiling off and on.  Each
 * rt.batch span carries its batch's counts, and they sum to the
 * snapshot's.  A change that moves a count says why.
 *
 * interp.instructions, tracker.conflicts and tracker.loop_instances are
 * as before the lowering compiled the instrumentation.
 * tracker.mem_events counts the loads and stores the lane engine
 * receives (times the lanes): 38,913,966 when every access reached it,
 * 22,209,642 once each batch compiled in only the accesses some lane
 * can track, 22,498,042 once the static filter stopped filtering a
 * loop's accesses to objects an impure callee may store to, and
 * 22,370,642 since the filter is the RAW-free components of the loop
 * PDG's memory relation: 177.mesa-like -134,400 (the scanline loop's
 * @frame store is untracked, as no load of that loop reads @frame) and
 * 464.h264ref-like +7,000 (the @mv store is tracked, as the read-only
 * callee sad16 may read it).  tracker.conflicts and every report stayed
 * each time.  tracker.child_saving_iterations counts the
 * iteration boundaries that paid per-lane work: 13,600 of the sweep's
 * 1,078,924 boundaries (the trip-count sum over the 14 lanes), times
 * the lanes.  tracker.lane_restart_iterations counts, times the lanes,
 * the iterations whose PDOALL phase restarts paid per-lane work: 4,982
 * of the 469,194 that restart a phase in some lane.  The other 464,212
 * restart one or both of the instance's two restart groups, an update
 * of the instance alone (73,764 restart every eligible PDOALL lane).
 * tracker.frames counts, times the lanes, the frames the lane engine
 * opened: the 30 mains and the 1,324 calls into functions that hold a
 * loop, of the sweep's 100,897 function entries (1,412,558 when every
 * call opened one).
 */
TEST(TrackerCounts, SweepCountsArePinned)
{
    const std::map<std::string, std::uint64_t> sweep = {
        {"interp.instructions", 27'857'061},
        {"interp.runs", 30},
        {"model.squashes.doall", 118},
        {"model.squashes.pdoall", 1'499'722},
        {"plan.loops_analyzed", 206},
        {"report.loops_reported", 2'884},
        {"tracker.child_saving_iterations", 190'400},
        {"tracker.conflicts", 12'430'683},
        {"tracker.frames", 18'956},
        {"tracker.lane_restart_iterations", 69'748},
        {"tracker.loop_instances", 204'722},
        {"tracker.mem_events", 22'370'642},
    };
    std::map<std::string, std::uint64_t> linted = sweep;
    linted.insert({{"analysis.loop_pdgs", 206},
                   {"lint.findings", 28},
                   {"lint.modules_linted", 30},
                   {"oracle.phis_checked", 3'668},
                   {"oracle.verdicts_checked", 2'884}});
    const std::vector<std::uint64_t> tripBuckets = {
        0, 0, 0, 181'496, 15'526, 4'634, 644, 1'820, 490, 112, 0, 0, 0};

    for (int lint : {0, 1}) {
        for (unsigned jobs : {1u, 4u}) {
            for (bool profile : {false, true}) {
                SCOPED_TRACE(std::string(lint ? "--lint" : "default") +
                             " --jobs " + std::to_string(jobs) +
                             (profile ? " profiled" : ""));
                MetricsOn metrics;
                prof::setEnabled(profile);
                exec::setJobsOverride(jobs);
                core::SweepRequest req;
                req.lintMode = lint;
                std::ostream discard(nullptr);
                const core::SweepResult res =
                    core::runSweep(suites::allPrograms(), req, discard);
                exec::setJobsOverride(0);
                prof::setEnabled(false);
                ASSERT_EQ(res.exitCode, 0);

                const obs::Json snap = obs::Registry::instance().toJson();
                const std::map<std::string, std::uint64_t> counters =
                    nonzeroCounters(snap);
                EXPECT_EQ(counters, lint ? linted : sweep);
                if (lint) {
                    EXPECT_EQ(snap.at("counters")
                                  .at("oracle.mismatches")
                                  .asU64(),
                              0u);
                    EXPECT_EQ(snap.at("counters")
                                  .at("oracle.verdict_contradictions")
                                  .asU64(),
                              0u);
                }
                const obs::Json &trips =
                    snap.at("histograms").at("tracker.trip_count");
                EXPECT_EQ(trips.at("count").asU64(), 204'722u);
                EXPECT_EQ(trips.at("sum").asU64(), 15'104'936u);
                EXPECT_EQ(u64s(trips.at("counts")), tripBuckets);

                // The rt.batch spans' args add up to the snapshot.
                const char *const batchCounters[] = {
                    "tracker.mem_events",    "tracker.conflicts",
                    "tracker.loop_instances", "model.squashes.doall",
                    "model.squashes.pdoall", "report.loops_reported",
                    "tracker.child_saving_iterations",
                    "tracker.lane_restart_iterations", "tracker.frames"};
                std::map<std::string, std::uint64_t> spanSums;
                std::uint64_t tripCount = 0, tripSum = 0;
                std::vector<std::uint64_t> spanBuckets(tripBuckets.size());
                std::size_t batches = 0;
                for (const obs::SpanRecord &r :
                     obs::SpanLog::instance().records()) {
                    if (r.name != "rt.batch")
                        continue;
                    ++batches;
                    for (const char *name : batchCounters)
                        spanSums[name] += r.args.at(name).asU64();
                    const obs::Json &h = r.args.at("tracker.trip_count");
                    tripCount += h.at("count").asU64();
                    tripSum += h.at("sum").asU64();
                    const std::vector<std::uint64_t> b = u64s(h.at("counts"));
                    ASSERT_EQ(b.size(), spanBuckets.size());
                    for (std::size_t i = 0; i < b.size(); ++i)
                        spanBuckets[i] += b[i];
                }
                EXPECT_EQ(batches, 30u);
                for (const char *name : batchCounters)
                    EXPECT_EQ(spanSums[name], counters.at(name)) << name;
                EXPECT_EQ(tripCount, 204'722u);
                EXPECT_EQ(tripSum, 15'104'936u);
                EXPECT_EQ(spanBuckets, tripBuckets);
            }
        }
    }
}

} // namespace
} // namespace lp
