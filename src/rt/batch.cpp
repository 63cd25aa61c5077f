/**
 * @file
 * The lane engine: one interpretation, N configuration lanes.
 *
 * BatchReplayer is the interpreter's sink for every limit-study run
 * (rt/batch.hpp).  It maintains the shared dynamic structure — frame
 * stack, loop-instance stack, iteration counters, register-def
 * timestamps, one shadow write-map per instance — exactly once, while
 * the per-lane model state (savings, covered lengths, slowest-iteration
 * accumulators, conflict flags, HELIX deltas) lives in parallel arrays
 * indexed [instanceSlot * L + lane].  Each event is one direct call
 * from the interpreter loop.  What every eligible lane of an instance
 * updates identically is kept once on the instance and folded into a
 * lane's own state only where lanes diverge (a child region's savings,
 * a PDOALL restart that splits a restart group, the close), so a call
 * whose frame no closed region landed on, an iteration boundary without
 * child savings, a dep1 HELIX sync, a restart of a restart group and a
 * memory RAW's HELIX bounds cost O(1) in the lane count; the per-lane
 * work triggers at child-saving boundaries, group-splitting restarts,
 * phi mispredictions and closes.  What a lane's report is
 * assembled from — its per-loop rows, predictor statistics, savings and
 * covered totals — is the plain Lane struct below; what the batch did is
 * counted in the plain BatchCounts, published once per batch.
 *
 * The model semantics (DESIGN.md §3 and §6) are written once, here.
 * The reference they are checked against is the spec evaluator
 * (src/fuzz/spec.*): a naive evaluator written from the same text that
 * must agree with every lane field by field (tests/test_spec.cpp, fuzz
 * pair spec-vs-engine).  A lane's report does not depend on the other
 * lanes of its batch (tests/test_batch.cpp).
 *
 * Shared-state soundness argument (why one copy suffices):
 *  - frame/instance structure, entry/iteration timestamps, curIter and
 *    the stack-pointer samples depend only on the event stream;
 *  - register def timestamps are written under per-lane gates, but the
 *    written *values* are config-independent and lanes that fail the
 *    gate never read the slot, so one unconditional write serves all;
 *  - shadow-map contents only matter to eligible lanes, and every
 *    eligible lane would write identical records;
 *  - the hybrid predictor for a phi sees the identical resolution
 *    sequence in every lane where dep2 tracks it, so one shared
 *    predictor (keyed by phi) trains for the whole active-lane set;
 *  - the consistency oracle watches every loop whatever a lane's
 *    verdict, so its per-instance difference states depend only on the
 *    stream and one capture, filled once, serves every lane.
 *
 * Per-frame soundness argument: a frame's savings and covered rows
 * change only where a closed region lands on the frame rather than on
 * an instance (addToContext), which sets the frame's touched flag.  An
 * untouched frame's rows are still zero at its exit, so handing them to
 * the caller would change nothing; a touched frame hands them up and
 * re-zeroes them, so every dead frame's rows are zero and a call fills
 * nothing at entry.  Only the functions that hold a loop get a frame
 * (chooseEvents; main always does).  A loop-free function opens no
 * instance and has no def watches, so no region lands on its frame and
 * a return from it closes nothing; its loads and stores read only the
 * instance stack.  A region that closes in one of its callees lands on
 * the nearest opened frame or instance instead: the context the skipped
 * frame would have handed it to at its exit, and that context's loop
 * cannot iterate in between.  The sums commute, and childSavings is set
 * in the same iteration.
 *
 * Per-instance soundness argument (why one scalar serves every lane):
 *  - in an iteration no child region handed savings to (the instance's
 *    childSavings flag is clear), every lane's adjusted cost is the
 *    serial cost, so cleanSlow, the slowest such iteration, is part of
 *    every lane's slowest iteration: a DOALL or HELIX lane's is the
 *    larger of its own slow_ (the child-saving iterations) and
 *    cleanSlow;
 *  - cleanPhase is the same maximum since the slot's last PDOALL phase
 *    restart in any lane.  A per-lane restart folds it into every
 *    eligible PDOALL lane's slow_ before any lane restarts and then
 *    clears it, so a PDOALL lane's current phase is the larger of its
 *    slow_ and cleanPhase at any time;
 *  - a restart depends only on which lanes a conflict hit in the
 *    iteration, and nothing reads a lane's phase state before the
 *    iteration's cost is folded in at its boundary.  So a conflict only
 *    marks its PDOALL lanes (conflictedM_), and restartPhases applies
 *    the marks once at the boundary, before the fold, and at the close
 *    for the trailing iteration;
 *  - until a child-saving boundary or a restart of lanes that are
 *    neither restart group nor both (laneSlow), the eligible PDOALL
 *    lanes form two groups, and every lane of a group has taken the
 *    same restarts at the same iterations.  So a lane's phase state is
 *    its group's: the group's slowest iteration since its last restart
 *    beyond cleanPhase (PhaseGroup::slow) and the phases and restarts it
 *    took (owedPhases, owedRestarts), which the close or the group's end
 *    pays into each lane's slow_, pAccum_ and cIters_: sums commute.
 *    The groups start as all the lanes and none; the first subset to
 *    restart splits them, and a per-lane restart of every lane joins
 *    them again;
 *  - every memory RAW of an instance syncs exactly its eligible HELIX
 *    lanes (eligMask & helixMask), so the largest delta, the largest
 *    producer offset and the smallest consumer offset of its RAWs are
 *    per-instance scalars, folded into each such lane's register-sync
 *    bounds at the close;
 *  - a dep1 HELIX lane syncs every register of its tracked prefix at
 *    every boundary, and its prefix is either the non-computable
 *    registers (reduc1) or all tracked ones (reduc0).  So the largest
 *    producer offset over each prefix (dep1NcMax, dep1AllMax) is a
 *    per-instance scalar; max commutes, and nothing reads a lane's
 *    sync bounds before the close folds them in;
 *  - ciSavings_ is zero in every lane unless childSavings is set, and
 *    only those boundaries run the per-lane loop that clears it.
 */

#include "rt/batch.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <unordered_map>

#include "guard/fault.hpp"
#include "interp/execute.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "predict/predictor.hpp"
#include "rt/shadow.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace lp::rt {

using ir::Instruction;

namespace {

/**
 * One configuration lane: everything its report is assembled from.
 * The engine writes the per-loop rows as instances close and the
 * totals and register-LCD counts when the run returns; report() then
 * builds the lane's ProgramReport.
 */
struct Lane
{
    Lane(const ModulePlan &plan, const LPConfig &config);

    /** The lane's report, once the run that fed it returned. */
    ProgramReport report(const ModulePlan &plan, const std::string &name,
                         std::uint64_t serialCost) const;

    LPConfig cfg;
    /** Per static loop, by LoopPlan::ordinal; staticReason is the
     *  configuration's static verdict (None = eligible). */
    std::vector<LoopReport> loops;
    /** The (un)predictable register-LCD counts of the census. */
    Census regLcds;
    std::uint64_t savings = 0; ///< whole-program parallel savings
    std::uint64_t covered = 0; ///< instructions in parallelized instances
};

Lane::Lane(const ModulePlan &plan, const LPConfig &config) : cfg(config)
{
    cfg.validate();
    loops.resize(plan.numLoops());
    for (const auto &fp : plan.functionPlans()) {
        for (const LoopPlan &lplan : fp->loopPlans) {
            LoopReport &lr = loops[lplan.ordinal];
            lr.label = lplan.loop ? lplan.loop->label() : "<?>";
            lr.depth = lplan.loop ? lplan.loop->depth() : 0;
            lr.staticReason = staticVerdict(lplan, *fp, plan, cfg);
        }
    }
}

ProgramReport
Lane::report(const ModulePlan &plan, const std::string &name,
             std::uint64_t serialCost) const
{
    ProgramReport rep;
    rep.program = name;
    rep.config = cfg;
    rep.serialCost = serialCost;
    rep.parallelCost = serialCost - savings;
    rep.coverage = serialCost == 0 ? 0.0
                                   : static_cast<double>(covered) /
                                         static_cast<double>(serialCost);

    Census &c = rep.census;
    c = regLcds;
    for (unsigned ord = 0; ord < plan.numLoops(); ++ord) {
        const LoopPlan &lplan = plan.loopByOrdinal(ord);
        if (!lplan.loop)
            continue;
        c.staticLoops += 1;
        if (lplan.loop->isCanonical())
            c.canonicalLoops += 1;
        c.computableIvs += lplan.computablePhis.size();
        c.reductions += lplan.reductions.size();
        if (lplan.hasCalls())
            c.loopsWithCalls += 1;

        const LoopReport &lr = loops[ord];
        if (lr.memConflicts > 0 && lr.iterations > 0) {
            double frac = static_cast<double>(lr.conflictIterations) /
                          static_cast<double>(lr.iterations);
            if (frac > 0.05)
                c.frequentMemLcdLoops += 1;
            else
                c.infrequentMemLcdLoops += 1;
        }
    }

    // Per-loop reports (only loops that actually executed).
    for (const LoopReport &lr : loops)
        if (lr.instances > 0)
            rep.loops.push_back(lr);
    std::sort(rep.loops.begin(), rep.loops.end(),
              [](const LoopReport &a, const LoopReport &b) {
                  return a.serialCost > b.serialCost;
              });
    return rep;
}

/** Roughly geometric trip-count buckets: tight loops vs. long streams. */
const std::vector<std::uint64_t> kTripCountBounds = {
    0, 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1048576};

/**
 * What a batch did, counted in plain integers as it ran, each under the
 * name of the metric it becomes.  A count that concerns lanes counts
 * every lane: one instance opened under 14 lanes is 14 loop instances.
 */
struct BatchCounts
{
    std::uint64_t memEvents = 0;      ///< tracker.mem_events
    std::uint64_t conflicts = 0;      ///< tracker.conflicts
    std::uint64_t loopInstances = 0;  ///< tracker.loop_instances
    std::uint64_t frames = 0;         ///< tracker.frames
    std::uint64_t doallSquashes = 0;  ///< model.squashes.doall
    std::uint64_t pdoallSquashes = 0; ///< model.squashes.pdoall
    std::uint64_t loopsReported = 0;  ///< report.loops_reported
    /** tracker.child_saving_iterations: the iteration boundaries that
     *  paid per-lane work because a child region handed savings. */
    std::uint64_t childSavingIterations = 0;
    /** tracker.lane_restart_iterations: the iterations whose PDOALL
     *  phase restarts paid per-lane work (the restarting lanes split a
     *  restart group, or the lanes kept their phase state per lane). */
    std::uint64_t laneRestartIterations = 0;
    /** tracker.trip_count: each closed instance's trip count, once per
     *  lane (a batch-local tally; obs keeps the bucket rule). */
    obs::Histogram tripCounts{kTripCountBounds};

    /** Hand the counts to @p span's args and, when metrics are on, to
     *  obs::Registry. */
    void
    publish(obs::ScopedPhase &span) const
    {
        const std::pair<const char *, std::uint64_t> counters[] = {
            {"tracker.mem_events", memEvents},
            {"tracker.conflicts", conflicts},
            {"tracker.loop_instances", loopInstances},
            {"tracker.frames", frames},
            {"model.squashes.doall", doallSquashes},
            {"model.squashes.pdoall", pdoallSquashes},
            {"report.loops_reported", loopsReported},
            {"tracker.child_saving_iterations", childSavingIterations},
            {"tracker.lane_restart_iterations", laneRestartIterations},
        };
        const bool metrics = obs::metricsOn();
        obs::Registry &reg = obs::Registry::instance();
        for (const auto &[name, n] : counters) {
            span.set(name, n);
            if (metrics)
                reg.counter(name).add(n);
        }
        span.set("tracker.trip_count", tripCounts.toJson());
        if (metrics)
            reg.histogram("tracker.trip_count", kTripCountBounds)
                .add(tripCounts);
    }
};

/** The consistency-oracle watches of one loop's header phis. */
struct LoopOracleWatches
{
    struct Slot
    {
        unsigned watch; ///< OracleCapture watch index
        unsigned depth; ///< difference order - 1
    };
    std::vector<Slot> slots;
    /** Phi -> index into slots. */
    std::unordered_map<const ir::Instruction *, unsigned> index;
};

/**
 * Register the oracle watches of every loop of @p plan with @p cap and
 * seal it: each SCEV-claimed phi at its claimed AddRec depth, and each
 * tracked LCD at depth 1 (unclaimed unless OracleCapture::forceClaim
 * named it, so the oracle can also spot *missed* IVs).  The claims are
 * config-independent, so every lane shares the watches.
 * @return each loop's watches, indexed by LoopPlan::ordinal
 */
std::vector<LoopOracleWatches>
watchOraclePhis(const ModulePlan &plan, OracleCapture &cap)
{
    std::vector<LoopOracleWatches> out(plan.numLoops());
    for (unsigned ord = 0; ord < plan.numLoops(); ++ord) {
        const LoopPlan &lplan = plan.loopByOrdinal(ord);
        if (!lplan.loop)
            continue;
        LoopOracleWatches &lw = out[ord];
        auto watch = [&](const Instruction *phi, unsigned depth,
                         bool claimed) {
            if (phi->type() != ir::Type::I64 &&
                phi->type() != ir::Type::Ptr)
                return; // differencing f64 bits is meaningless
            unsigned w = cap.addWatch(
                {phi, lplan.loop->label(), phi->name(), depth, claimed});
            lw.index[phi] = static_cast<unsigned>(lw.slots.size());
            lw.slots.push_back({w, depth});
        };
        for (unsigned i = 0; i < lplan.computablePhis.size(); ++i)
            watch(lplan.computablePhis[i], lplan.computableDepths[i], true);
        for (const TrackedPhi &tp : lplan.nonComputable)
            watch(tp.phi, 1, cap.isForcedClaim(tp.phi));
    }
    cap.seal();
    return out;
}

/**
 * Applies one interpretation's events to up to 64 lanes: the
 * interp::Machine::run sink of a batch, reading the clock and
 * stack-pointer samples from the machine it is attached to.  Its
 * events() are what that machine compiles in: the loop events, and
 * only the block entries, phis, loads and stores some lane can use.
 */
class BatchReplayer
{
  public:
    BatchReplayer(const ModulePlan &plan, const ProgramTables &tables,
                  std::vector<Lane> &lanes, OracleCapture *oracle,
                  BatchCounts &counts)
        : plan_(plan), tables_(tables), lanes_(lanes), L_(lanes.size()),
          oracle_(oracle), counts_(counts)
    {
        panicIf(L_ == 0 || L_ > 64, "batch lane count out of range");
        if (oracle_)
            oracleWatches_ = watchOraclePhis(plan, *oracle_);

        const std::size_t numLoops = plan.numLoops();
        eligMask_.assign(numLoops, 0);
        dep1Lanes_.assign(numLoops, 0);
        ncCount_.resize(numLoops);
        trackedAllCount_.resize(numLoops);
        for (std::size_t ord = 0; ord < numLoops; ++ord) {
            const LoopPlan &lp = plan.loopByOrdinal(
                static_cast<unsigned>(ord));
            ncCount_[ord] =
                static_cast<unsigned>(lp.nonComputable.size());
            trackedAllCount_[ord] =
                static_cast<unsigned>(lp.trackedAll.size());
        }
        reportPtr_.resize(numLoops * L_);
        laneModel_.resize(L_);
        lanePdoallThr_.resize(L_);
        for (std::size_t l = 0; l < L_; ++l) {
            const LPConfig &cfg = lanes_[l].cfg;
            const std::uint64_t bit = std::uint64_t{1} << l;
            laneModel_[l] = cfg.model;
            lanePdoallThr_[l] = cfg.pdoallSerialThreshold;
            switch (cfg.model) {
              case ExecModel::DoAll:        doallMask_ |= bit; break;
              case ExecModel::PartialDoAll: pdoallMask_ |= bit; break;
              case ExecModel::Helix:        helixMask_ |= bit; break;
            }
            if (cfg.dep == 2)
                dep2Mask_ |= bit;
            if (cfg.reduc == 0)
                reduc0Mask_ |= bit;
            if (cfg.singleSyncDoacross)
                singleSyncMask_ |= bit;
            for (std::size_t ord = 0; ord < numLoops; ++ord) {
                LoopReport &row = lanes_[l].loops[ord];
                if (row.staticReason == SerialReason::None)
                    eligMask_[ord] |= bit;
                // Reductions join the tracked LCDs only under reduc0.
                const unsigned tracked =
                    cfg.reduc == 0 ? trackedAllCount_[ord] : ncCount_[ord];
                if (cfg.dep == 1 && tracked != 0 &&
                    row.staticReason == SerialReason::None)
                    dep1Lanes_[ord] |= bit;
                reportPtr_[ord * L_ + l] = &row;
            }
        }
        savingUp_.resize(L_);
        coveredUp_.resize(L_);

        // The shared state of every header phi, by phi id: the lanes
        // tracking it under dep2 and its oracle slot.
        phiStates_.resize(tables_.phiLoop.size());
        for (std::size_t p = 0; p < phiStates_.size(); ++p) {
            if (tables_.phiLoop[p] < 0)
                continue;
            PhiState &st = phiStates_[p];
            st.ord = static_cast<unsigned>(tables_.phiLoop[p]);
            if (tables_.phiTracked[p] >= 0) {
                st.idx = static_cast<unsigned>(tables_.phiTracked[p]);
                st.activeMask = eligMask_[st.ord] & dep2Mask_;
                if (st.idx >= ncCount_[st.ord])
                    st.activeMask &= reduc0Mask_;
            }
            if (oracle_) {
                const LoopOracleWatches &lw = oracleWatches_[st.ord];
                auto oi = lw.index.find(tables_.ids.phis[p]);
                if (oi != lw.index.end())
                    st.oracleSlot = static_cast<int>(oi->second);
            }
        }
        chooseEvents();
    }

    /** The events this batch's Machine compiles in. */
    const interp::Instrumentation &events() const { return events_; }

    /** Bind the machine built from events(), before it runs. */
    void attach(const interp::Machine &machine) { m_ = &machine; }

    /// @name Sink interface of interp::Machine::run
    /// The event bodies with per-lane work are kept out of line: inlined
    /// into every threaded handler and edge that fires them, they bloat
    /// the interpreter loop and cost more than the call
    /// (docs/performance.md).
    /// @{
    void
    functionEnter(const ir::Function *)
    {
        // Reuse dead frames above the live prefix: their rows are zero.
        if (frameDepth_ == eframes_.size())
            eframes_.emplace_back();
        EFrame &f = eframes_[frameDepth_++];
        f.loopLo = instStack_.size();
        f.savingsBase = (frameDepth_ - 1) * L_;
        f.touched = false;
        if (frameSavings_.size() < frameDepth_ * L_) {
            frameSavings_.resize(frameDepth_ * L_);
            frameCovered_.resize(frameDepth_ * L_);
        }
        counts_.frames += L_;
    }

    [[gnu::noinline]] void
    functionExit(const ir::Function *)
    {
        // Close instances an early return left open, then hand the
        // frame's savings and covered length to the caller's context.
        const std::uint64_t now = m_->cost();
        EFrame &f = eframes_[frameDepth_ - 1];
        while (instStack_.size() > f.loopLo)
            closeTop(now);
        const std::size_t sb = f.savingsBase;
        --frameDepth_;
        if (frameDepth_ == 0) {
            for (std::size_t l = 0; l < L_; ++l) {
                lanes_[l].savings = frameSavings_[sb + l];
                lanes_[l].covered = frameCovered_[sb + l];
            }
        } else if (f.touched) {
            // An untouched frame's rows are zero: nothing to hand up.
            addToContext(&frameSavings_[sb], &frameCovered_[sb]);
            const auto at = static_cast<std::ptrdiff_t>(sb);
            std::fill_n(frameSavings_.begin() + at, L_, std::uint64_t{0});
            std::fill_n(frameCovered_.begin() + at, L_, std::uint64_t{0});
        }
    }

    [[gnu::noinline]] void
    loopExit(std::uint32_t k)
    {
        const std::uint64_t now = m_->blockEntryCost();
        for (; k > 0; --k)
            closeTop(now);
    }

    [[gnu::noinline]] void
    loopEnter(std::uint32_t ord)
    {
        openInstance(ord, m_->blockEntryCost(), m_->stackPointer());
    }

    [[gnu::noinline]] void
    loopIterate()
    {
        iterationBoundary(m_->blockEntryCost(), m_->stackPointer());
    }

    /** Entering a block with def watches. */
    [[gnu::noinline]] void
    blockEnter(std::uint32_t block)
    {
        const std::uint64_t now = m_->blockEntryCost();
        EFrame &f = eframes_[frameDepth_ - 1];
        for (const PlannedDefWatch &def : *tables_.watches[block]) {
            // The written value is config-independent and lanes failing
            // the gate never read the slot, so one write serves every
            // passing lane.
            if (!watchLanes(def))
                continue;
            for (std::size_t i = instStack_.size(); i > f.loopLo;) {
                BInst &inst = instStack_[--i];
                if (inst.ord == def.loopOrdinal) {
                    regLastDef_[inst.regsBase + def.regIndex] =
                        now + def.offsetInBlock;
                    regDefSeen_[inst.regsBase + def.regIndex] = 1;
                    break;
                }
            }
        }
    }

    [[gnu::noinline]] void
    phiResolved(std::uint32_t phi, std::uint64_t bits)
    {
        // A selected phi heads a loop, so its block's entry just opened
        // or iterated that loop's instance: the top of the stack.
        PhiState &st = phiStates_[phi];
        BInst &inst = instStack_.back();
        if (st.oracleSlot >= 0) {
            const auto slot = static_cast<std::size_t>(st.oracleSlot);
            OracleCapture::observe(
                oracleStates_[inst.oracleBase + slot],
                oracleWatches_[st.ord].slots[slot].depth, bits);
        }
        if (!st.activeMask)
            return;
        if (!st.pred)
            st.pred = std::make_unique<predict::HybridPredictor>();

        const bool carried = inst.curIter >= 1;
        predict::HybridOutcome out = st.pred->predictAndTrain(bits);
        if (!carried)
            return; // first resolution is the pre-loop initial value
        st.predictions += 1;
        if (out.anyCorrect)
            return;
        st.mispredicts += 1;

        const std::size_t B = inst.base;
        std::uint64_t hm = st.activeMask & helixMask_;
        if (hm) {
            const std::uint64_t off =
                regPrevOff_[inst.regsBase + st.idx];
            for (std::uint64_t m = hm; m; m &= m - 1) {
                const unsigned l =
                    static_cast<unsigned>(std::countr_zero(m));
                dLargest_[B + l] = std::max(dLargest_[B + l], off);
                maxProd_[B + l] = std::max(maxProd_[B + l], off);
                minCons_[B + l] = 0; // the phi consumes at the top
            }
            anySyncM_[inst.slot] |= hm;
        }
        registerConflicts(inst, st.activeMask & ~helixMask_);
    }

    [[gnu::noinline]] void
    load(std::uint32_t mem, std::uint64_t addr)
    {
        const std::uint64_t preciseNow = m_->preciseCost();
        counts_.memEvents += L_;
        const std::uint64_t granule = addr >> 3;
        const bool isStack = interp::Memory::isStackAddress(addr);
        for (BInst &inst : instStack_) {
            if (!inst.eligMask)
                continue; // no lane tracks this loop
            if (isStack && addr >= inst.spAtIterStart)
                continue; // iteration-private frame (cactus stack)
            if (tables_.untracked(mem, inst.ord))
                continue; // statically proven conflict-free
            const WriteRec *rec = inst.shadow->lookup(granule);
            if (rec && rec->iter < inst.curIter)
                noteMemConflict(inst, *rec,
                                preciseNow - inst.iterStartTs);
        }
    }

    [[gnu::noinline]] void
    store(std::uint32_t mem, std::uint64_t addr)
    {
        const std::uint64_t preciseNow = m_->preciseCost();
        counts_.memEvents += L_;
        const std::uint64_t granule = addr >> 3;
        const bool isStack = interp::Memory::isStackAddress(addr);
        for (BInst &inst : instStack_) {
            if (!inst.eligMask)
                continue;
            if (isStack && addr >= inst.spAtIterStart)
                continue;
            if (tables_.untracked(mem, inst.ord))
                continue;
            inst.shadow->record(granule, inst.curIter,
                                preciseNow - inst.iterStartTs);
        }
    }

    /** Calls need nothing: a callee's blocks carry its cost. */
    void callSite(const Instruction *) {}
    /// @}

    /**
     * Hand each lane its tracked phis' prediction counters (loop rows
     * and census); call after the machine's run returned, before the
     * lanes' report().
     */
    void
    finish()
    {
        for (const PhiState &st : phiStates_) {
            if (st.predictions == 0)
                continue; // a phi counts once it carried a value
            const double hit = 1.0 - static_cast<double>(st.mispredicts) /
                                         static_cast<double>(st.predictions);
            for (std::uint64_t m = st.activeMask; m; m &= m - 1) {
                Lane &lane = lanes_[static_cast<unsigned>(std::countr_zero(m))];
                LoopReport &row = lane.loops[st.ord];
                row.regPredictions += st.predictions;
                row.regMispredicts += st.mispredicts;
                if (hit >= lane.cfg.predictableThreshold)
                    lane.regLcds.predictableRegLcds += 1;
                else
                    lane.regLcds.unpredictableRegLcds += 1;
            }
        }
    }

  private:
    struct EFrame
    {
        std::size_t loopLo = 0;      ///< instStack_ depth at entry
        std::size_t savingsBase = 0; ///< into frameSavings_/frameCovered_
        /** A closed region landed on the frame's rows. */
        bool touched = false;
    };

    /** The phase state every lane of a restart group shares. */
    struct PhaseGroup
    {
        /** The slowest iteration since the group's last restart,
         *  beyond the instance's cleanPhase. */
        std::uint64_t slow = 0;
        /** Phases and restarts owed to each lane's pAccum_, cIters_. */
        std::uint64_t owedPhases = 0;
        std::uint64_t owedRestarts = 0;
    };

    /** One dynamic loop instance (shared across lanes), with the model
     *  state every eligible lane updates identically (see the file
     *  comment's per-instance soundness argument). */
    struct BInst
    {
        unsigned ord = 0;
        /** Some lane's child region handed savings to this iteration. */
        bool childSavings = false;
        std::uint64_t entryTs = 0;
        std::uint64_t iterStartTs = 0;
        std::uint64_t spAtIterStart = 0;
        std::uint64_t curIter = 0;
        std::uint64_t memConflicts = 0; ///< same for every eligible lane
        /** The slowest iteration without child savings: overall, and
         *  since the slot's last PDOALL phase restart. */
        std::uint64_t cleanSlow = 0;
        std::uint64_t cleanPhase = 0;
        /** The memory RAWs' HELIX sync bounds: the largest delta, the
         *  largest producer and the smallest consumer offset. */
        std::uint64_t memDelta = 0;
        std::uint64_t memMaxProd = 0;
        std::uint64_t memMinCons = ~std::uint64_t{0};
        /** The largest producer offset a dep1 HELIX sync saw: over the
         *  non-computable registers, and over every tracked one. */
        std::uint64_t dep1NcMax = 0;
        std::uint64_t dep1AllMax = 0;
        /** While laneSlow is clear, the eligible PDOALL lanes form two
         *  restart groups, restartGroup's lanes and the rest. */
        std::uint64_t restartGroup = 0;
        PhaseGroup group[2];
        /** The eligible PDOALL lanes keep their phase state per lane: a
         *  child region handed savings, or a restart split a group. */
        bool laneSlow = false;
        ShadowWriteMap *shadow = nullptr; ///< null when eligMask == 0
        std::uint64_t eligMask = 0;
        std::size_t slot = 0;     ///< stack depth (reused LIFO)
        std::size_t base = 0;     ///< slot * L_, into the SoA arrays
        std::size_t regsBase = 0; ///< into the reg arenas
        std::uint32_t nRegs = 0;  ///< trackedAll.size()
        std::size_t oracleBase = 0; ///< into oracleStates_
    };

    /** Shared predictor + counters for one header phi. */
    struct PhiState
    {
        std::uint64_t activeMask = 0; ///< dep2 ∩ eligible ∩ in-prefix
        unsigned ord = 0; ///< the header's loop
        unsigned idx = 0; ///< index into trackedAll / the reg arena
        int oracleSlot = -1; ///< into the loop's oracle watches, or -1
        /** Made at an active phi's first resolution: a predictor's FCM
         *  table is 64 KiB. */
        std::unique_ptr<predict::HybridPredictor> pred;
        std::uint64_t predictions = 0;
        std::uint64_t mispredicts = 0;
    };

    /** The lanes whose gate @p w passes: its loop is eligible and its
     *  slot inside the lane's tracked prefix. */
    std::uint64_t
    watchLanes(const PlannedDefWatch &w) const
    {
        std::uint64_t m = eligMask_[w.loopOrdinal];
        if (w.regIndex >= ncCount_[w.loopOrdinal])
            m &= reduc0Mask_;
        return w.regIndex < trackedAllCount_[w.loopOrdinal] ? m : 0;
    }

    /**
     * Fill events_: the functions that hold a loop (see the per-frame
     * soundness argument), the def-watch blocks some watch gate passes,
     * the header phis some lane tracks or the oracle watches, and the
     * loads and stores some open instance could track.  An access is
     * tracked by the instances of its own function's loops that hold
     * it, unless the loop filters it, and by every instance in a
     * caller's frame.
     */
    void
    chooseEvents()
    {
        const interp::LoopForest &forest = tables_.forest;
        events_.loops = &forest;
        // A loop's header is a block of the function holding it: the
        // last function whose first block id is not above the header's.
        const std::vector<std::uint32_t> &base = tables_.ids.blockBase;
        events_.functions.assign(base.size(), false);
        for (const std::uint32_t header : forest.header)
            events_.functions[static_cast<std::size_t>(
                std::upper_bound(base.begin(), base.end(), header) -
                base.begin() - 1)] = true;
        events_.blocks.assign(tables_.watches.size(), false);
        for (std::size_t b = 0; b < tables_.watches.size(); ++b)
            if (const auto *ws = tables_.watches[b])
                for (const PlannedDefWatch &w : *ws)
                    if (watchLanes(w))
                        events_.blocks[b] = true;

        events_.phis.resize(phiStates_.size());
        for (std::size_t p = 0; p < phiStates_.size(); ++p)
            events_.phis[p] =
                phiStates_[p].activeMask || phiStates_[p].oracleSlot >= 0;

        const std::size_t numMem = tables_.memFunction.size();
        events_.memOps.resize(numMem);
        for (std::uint32_t m = 0; m < numMem; ++m) {
            bool use = false;
            for (std::uint32_t l : tables_.callerLoops[tables_.memFunction[m]])
                use |= eligMask_[l] != 0;
            for (std::int32_t l = tables_.memLoop[m]; !use && l >= 0;
                 l = forest.parent[static_cast<std::size_t>(l)])
                use = eligMask_[static_cast<std::size_t>(l)] &&
                      !tables_.untracked(m, static_cast<unsigned>(l));
            events_.memOps[m] = use;
        }
    }

    ShadowWriteMap *
    acquireShadow()
    {
        if (!shadowFree_.empty()) {
            ShadowWriteMap *s = shadowFree_.back();
            shadowFree_.pop_back();
            s->reset();
            return s;
        }
        shadowPool_.push_back(std::make_unique<ShadowWriteMap>());
        return shadowPool_.back().get();
    }

    /**
     * A closed region's per-lane savings and covered lengths land on
     * the innermost open context: the current iteration of the top
     * instance in this frame, else the frame itself.  Resolved once,
     * applied per lane.  Savings handed to an iteration flag it for the
     * per-lane boundary work.
     */
    void
    addToContext(const std::uint64_t *savings, const std::uint64_t *covered)
    {
        EFrame &f = eframes_[frameDepth_ - 1];
        const bool inLoop = instStack_.size() > f.loopLo;
        const std::size_t at =
            inLoop ? instStack_.back().base : f.savingsBase;
        std::uint64_t *sDst = inLoop ? &ciSavings_[at] : &frameSavings_[at];
        std::uint64_t *cDst = inLoop ? &ciCovered_[at] : &frameCovered_[at];
        std::uint64_t any = 0;
        for (std::size_t l = 0; l < L_; ++l) {
            sDst[l] += savings[l];
            cDst[l] += covered[l];
            any |= savings[l];
        }
        if (!inLoop)
            f.touched = true;
        else if (any)
            instStack_.back().childSavings = true;
    }

    void
    openInstance(unsigned ord, std::uint64_t now, std::uint64_t sp)
    {
        // Unconditional: even loops every lane deems sequential get
        // instance/iteration accounting.
        const LoopPlan &lp = plan_.loopByOrdinal(ord);
        const std::size_t slot = instStack_.size();
        if ((slot + 1) * L_ > ciSavings_.size()) {
            const std::size_t n = (slot + 1) * L_;
            ciSavings_.resize(n);
            tcSavings_.resize(n);
            ciCovered_.resize(n);
            slow_.resize(n);
            pAccum_.resize(n);
            dLargest_.resize(n);
            maxProd_.resize(n);
            minCons_.resize(n);
            cIters_.resize(n);
            anyConflictM_.resize(slot + 1);
            conflictedM_.resize(slot + 1);
            anySyncM_.resize(slot + 1);
        }

        BInst inst;
        inst.ord = ord;
        inst.entryTs = now;
        inst.iterStartTs = now;
        inst.spAtIterStart = sp;
        inst.eligMask = eligMask_[ord];
        inst.restartGroup = inst.eligMask & pdoallMask_;
        inst.slot = slot;
        inst.base = slot * L_;
        inst.nRegs = static_cast<std::uint32_t>(lp.trackedAll.size());
        inst.regsBase = regsTop_;
        regsTop_ += inst.nRegs;
        if (regLastDef_.size() < regsTop_) {
            regLastDef_.resize(regsTop_);
            regPrevOff_.resize(regsTop_);
            regDefSeen_.resize(regsTop_);
        }
        for (std::size_t r = inst.regsBase; r < regsTop_; ++r) {
            regLastDef_[r] = 0;
            regPrevOff_[r] = 0;
            regDefSeen_[r] = 0;
        }
        if (oracle_) {
            // Per-instance difference states, stacked like the regs.
            inst.oracleBase = oracleTop_;
            oracleTop_ += oracleWatches_[ord].slots.size();
            if (oracleStates_.size() < oracleTop_)
                oracleStates_.resize(oracleTop_);
            std::fill(oracleStates_.begin() +
                          static_cast<std::ptrdiff_t>(inst.oracleBase),
                      oracleStates_.begin() +
                          static_cast<std::ptrdiff_t>(oracleTop_),
                      OracleCapture::State{});
        }
        // A shadow map only matters to eligible lanes; every eligible
        // lane would write identical records, so one map serves them.
        inst.shadow = inst.eligMask ? acquireShadow() : nullptr;

        const std::size_t B = inst.base;
        for (std::size_t l = 0; l < L_; ++l) {
            ciSavings_[B + l] = 0;
            tcSavings_[B + l] = 0;
            ciCovered_[B + l] = 0;
            slow_[B + l] = 0;
            pAccum_[B + l] = 0;
            dLargest_[B + l] = 0;
            maxProd_[B + l] = 0;
            minCons_[B + l] = ~std::uint64_t{0};
            cIters_[B + l] = 0;
        }
        anyConflictM_[slot] = 0;
        conflictedM_[slot] = 0;
        anySyncM_[slot] = 0;
        instStack_.push_back(inst);

        const std::size_t ro = static_cast<std::size_t>(ord) * L_;
        for (std::size_t l = 0; l < L_; ++l)
            reportPtr_[ro + l]->instances += 1;
        counts_.loopInstances += L_;
    }

    /**
     * PDOALL restarts a phase in each lane a conflict hit in the
     * iteration that just ended (conflictedM_), before that iteration's
     * cost is folded in: the phase so far joins the lane's accumulated
     * phases.  When the restarting lanes are one or both restart groups
     * (the first subset to restart splits the one group in two), each
     * group's phase is the larger of its slow and cleanPhase, so
     * the restart is owed on the instance.  Otherwise the lanes leave
     * their groups, cleanPhase is folded into each lane's slow_ before
     * the lanes restart, then cleared; a restart of every lane makes
     * them one group again.
     */
    void
    restartPhases(BInst &inst)
    {
        const std::uint64_t todo = conflictedM_[inst.slot];
        if (!todo)
            return;
        const std::uint64_t all = inst.eligMask & pdoallMask_;
        if (!inst.laneSlow) {
            if (inst.restartGroup == all) {
                inst.restartGroup = todo;
                inst.group[1] = inst.group[0];
            }
            const std::uint64_t lanes[2] = {inst.restartGroup,
                                            all ^ inst.restartGroup};
            if (todo == all || todo == lanes[0] || todo == lanes[1]) {
                for (int g = 0; g < 2; ++g) {
                    PhaseGroup &grp = inst.group[g];
                    grp.slow = std::max(grp.slow, inst.cleanPhase);
                    if (todo & lanes[g]) {
                        grp.owedPhases += grp.slow;
                        grp.owedRestarts += 1;
                        grp.slow = 0;
                    }
                }
                inst.cleanPhase = 0;
                return;
            }
            groupsToLanes(inst);
        }
        counts_.laneRestartIterations += L_;
        const std::size_t B = inst.base;
        if (inst.cleanPhase) {
            for (std::uint64_t m = all; m; m &= m - 1) {
                const std::size_t i =
                    B + static_cast<unsigned>(std::countr_zero(m));
                slow_[i] = std::max(slow_[i], inst.cleanPhase);
            }
            inst.cleanPhase = 0;
        }
        for (std::uint64_t m = todo; m; m &= m - 1) {
            const std::size_t i =
                B + static_cast<unsigned>(std::countr_zero(m));
            pAccum_[i] += slow_[i];
            slow_[i] = 0;
            cIters_[i] += 1;
        }
        if (todo == all) {
            inst.laneSlow = false;
            inst.restartGroup = all;
        }
    }

    /** Fold each restart group's state into its lanes' own and keep
     *  the phase state per lane from here on. */
    void
    groupsToLanes(BInst &inst)
    {
        const std::size_t B = inst.base;
        for (std::uint64_t m = inst.eligMask & pdoallMask_; m; m &= m - 1) {
            const unsigned l = static_cast<unsigned>(std::countr_zero(m));
            const PhaseGroup &grp =
                inst.group[(inst.restartGroup >> l) & 1 ? 0 : 1];
            slow_[B + l] = std::max(slow_[B + l], grp.slow);
            pAccum_[B + l] += grp.owedPhases;
            cIters_[B + l] += grp.owedRestarts;
        }
        inst.group[0] = inst.group[1] = PhaseGroup{};
        inst.laneSlow = true;
    }

    /** A register LCD manifests in @p lanes' current iteration: PDOALL
     *  restarts a phase in each of them at the iteration's end. */
    void
    registerConflicts(BInst &inst, std::uint64_t lanes)
    {
        anyConflictM_[inst.slot] |= lanes;
        counts_.conflicts += static_cast<std::uint64_t>(std::popcount(lanes));
        conflictedM_[inst.slot] |= lanes & pdoallMask_;
    }

    /** A cross-iteration memory RAW, fanned out over the eligible
     *  lanes: PDOALL restarts a phase, HELIX records a sync (on the
     *  instance: every RAW syncs the same eligible HELIX lanes). */
    void
    noteMemConflict(BInst &inst, const WriteRec &rec,
                    std::uint64_t consumerOffset)
    {
        inst.memConflicts += 1;
        anyConflictM_[inst.slot] |= inst.eligMask;
        conflictedM_[inst.slot] |= inst.eligMask & pdoallMask_;
        const std::uint64_t hm = inst.eligMask & helixMask_;
        if (!hm)
            return;
        const std::uint64_t dist = inst.curIter - rec.iter;
        if (rec.offset > consumerOffset)
            inst.memDelta =
                std::max(inst.memDelta,
                         (rec.offset - consumerOffset + dist - 1) / dist);
        inst.memMaxProd = std::max(inst.memMaxProd, rec.offset);
        inst.memMinCons = std::min(inst.memMinCons, consumerOffset);
        anySyncM_[inst.slot] |= hm;
    }

    /** Close the top-of-stack instance's iteration, open the next. */
    void
    iterationBoundary(std::uint64_t now, std::uint64_t sp)
    {
        BInst &inst = instStack_.back();
        const std::size_t B = inst.base;
        const std::uint64_t serialIterCost = now - inst.iterStartTs;
        restartPhases(inst);
        if (inst.childSavings) {
            // Lanes diverge: each lane's adjusted cost is its own.
            if (!inst.laneSlow)
                groupsToLanes(inst);
            for (std::size_t l = 0; l < L_; ++l) {
                const std::uint64_t savings =
                    std::min(ciSavings_[B + l], serialIterCost);
                tcSavings_[B + l] += savings;
                slow_[B + l] =
                    std::max(slow_[B + l], serialIterCost - savings);
                ciSavings_[B + l] = 0;
            }
            inst.childSavings = false;
            counts_.childSavingIterations += L_;
        } else {
            inst.cleanSlow = std::max(inst.cleanSlow, serialIterCost);
            inst.cleanPhase = std::max(inst.cleanPhase, serialIterCost);
        }

        if (inst.eligMask && inst.nRegs) {
            // Producer offsets of the iteration that just ended; the
            // values are config-independent, each lane reads only its
            // own tracked prefix.  A dep1 HELIX lane syncs every
            // register of its prefix, so only the prefix maxima matter.
            const unsigned nc = ncCount_[inst.ord];
            std::uint64_t ncMax = 0, allMax = 0;
            for (std::uint32_t r = 0; r < inst.nRegs; ++r) {
                const std::size_t ri = inst.regsBase + r;
                const std::uint64_t off =
                    regDefSeen_[ri] ? regLastDef_[ri] - inst.iterStartTs : 0;
                regPrevOff_[ri] = off;
                allMax = std::max(allMax, off);
                if (r + 1 == nc)
                    ncMax = allMax;
            }
            inst.dep1NcMax = std::max(inst.dep1NcMax, ncMax);
            inst.dep1AllMax = std::max(inst.dep1AllMax, allMax);
        }

        inst.curIter += 1;
        inst.iterStartTs = now;
        inst.spAtIterStart = sp;
        conflictedM_[inst.slot] = 0;

        // dep1 under a speculative model: the lowered LCD conflicts at
        // the top of every iteration after the first.
        if (const std::uint64_t cm = dep1Lanes_[inst.ord] & ~helixMask_)
            registerConflicts(inst, cm);
    }

    /**
     * Close the top-of-stack instance: apply each lane's model, fold
     * the instance into the lane's loop row, and hand the parent
     * context the lane's saving and covered length (pop first, so they
     * reach the parent).
     */
    void
    closeTop(std::uint64_t now)
    {
        BInst inst = instStack_.back();
        instStack_.pop_back();
        const std::size_t B = inst.base;
        // The trailing iteration's restarts, then what the restart
        // groups owe their lanes.
        restartPhases(inst);
        if (!inst.laneSlow)
            groupsToLanes(inst);
        if (inst.curIter > 0) {
            // dep1 under HELIX: every boundary synced each register of
            // the lane's tracked prefix; the phi consumes at the top.
            const std::uint64_t hm = dep1Lanes_[inst.ord] & helixMask_;
            for (std::uint64_t m = hm; m; m &= m - 1) {
                const unsigned l =
                    static_cast<unsigned>(std::countr_zero(m));
                const std::uint64_t off = (reduc0Mask_ >> l) & 1
                                              ? inst.dep1AllMax
                                              : inst.dep1NcMax;
                dLargest_[B + l] = std::max(dLargest_[B + l], off);
                maxProd_[B + l] = std::max(maxProd_[B + l], off);
                minCons_[B + l] = 0;
            }
            anySyncM_[inst.slot] |= hm;
        }
        regsTop_ = inst.regsBase;
        if (oracle_) {
            const auto &slots = oracleWatches_[inst.ord].slots;
            for (std::size_t i = 0; i < slots.size(); ++i)
                oracle_->recordInstance(slots[i].watch,
                                        oracleStates_[inst.oracleBase + i],
                                        slots[i].depth);
            oracleTop_ = inst.oracleBase;
        }

        const std::uint64_t tailSerial = now - inst.iterStartTs;
        const std::uint64_t rawSerial = now - inst.entryTs;
        if (inst.shadow)
            shadowFree_.push_back(inst.shadow);

        counts_.tripCounts.record(inst.curIter, L_);
        // Every eligible lane saw each of the instance's memory RAWs.
        counts_.conflicts +=
            inst.memConflicts *
            static_cast<std::uint64_t>(std::popcount(inst.eligMask));
        // DOALL is all-or-nothing speculation: any conflict discards
        // the whole instance's parallel execution.
        counts_.doallSquashes += static_cast<std::uint64_t>(std::popcount(
            inst.eligMask & doallMask_ & anyConflictM_[inst.slot]));
        // PDOALL squashes a phase at each conflicting iteration.
        std::uint64_t pdoallSquashes = 0;

        const std::size_t ro = static_cast<std::size_t>(inst.ord) * L_;
        for (std::size_t l = 0; l < L_; ++l) {
            const std::uint64_t bit = std::uint64_t{1} << l;
            const std::uint64_t tailSavings =
                std::min(ciSavings_[B + l], tailSerial);
            const std::uint64_t tailAdj = tailSerial - tailSavings;
            const std::uint64_t totalChild =
                tcSavings_[B + l] + tailSavings;
            const std::uint64_t adjSerial = rawSerial - totalChild;

            bool parallelized = false;
            std::uint64_t parallel = adjSerial;
            if ((inst.eligMask & bit) && inst.curIter > 0) {
                switch (laneModel_[l]) {
                  case ExecModel::DoAll:
                    if (!(anyConflictM_[inst.slot] & bit)) {
                        parallel =
                            std::max(slow_[B + l], inst.cleanSlow) + tailAdj;
                        parallelized = true;
                    }
                    break;
                  case ExecModel::PartialDoAll: {
                    double conflictFrac =
                        static_cast<double>(cIters_[B + l]) /
                        static_cast<double>(inst.curIter);
                    if (conflictFrac <= lanePdoallThr_[l]) {
                        parallel = pAccum_[B + l] +
                                   std::max(slow_[B + l], inst.cleanPhase) +
                                   tailAdj;
                        parallelized = true;
                    }
                    break;
                  }
                  case ExecModel::Helix: {
                    std::uint64_t delta =
                        std::max(dLargest_[B + l], inst.memDelta);
                    if (singleSyncMask_ & bit) {
                        const std::uint64_t maxProd =
                            std::max(maxProd_[B + l], inst.memMaxProd);
                        const std::uint64_t minCons =
                            std::min(minCons_[B + l], inst.memMinCons);
                        delta = 0;
                        if ((anySyncM_[inst.slot] & bit) && maxProd > minCons)
                            delta = maxProd - minCons;
                    }
                    std::uint64_t t = std::max(slow_[B + l], inst.cleanSlow) +
                                      delta * inst.curIter + tailAdj;
                    if (t <= adjSerial) {
                        parallel = t;
                        parallelized = true;
                    }
                    break;
                  }
                }
            }
            if (parallel > adjSerial) {
                parallel = adjSerial;
                parallelized = false;
            }

            LoopReport &rep = *reportPtr_[ro + l];
            rep.iterations += inst.curIter;
            rep.serialCost += rawSerial;
            rep.adjustedCost += adjSerial;
            rep.parallelCost += parallel;
            rep.memConflicts +=
                (inst.eligMask & bit) ? inst.memConflicts : 0;
            rep.conflictIterations += cIters_[B + l];
            pdoallSquashes += cIters_[B + l]; // zero but in PDOALL lanes
            if (!parallelized)
                rep.serializedInstances += 1;

            // Everything saved inside this region, plus the model's own
            // saving, flows to the enclosing context; so does its
            // covered length: the whole extent when parallelized, else
            // what its children covered.
            savingUp_[l] = rawSerial - parallel;
            coveredUp_[l] = parallelized ? rawSerial : ciCovered_[B + l];
        }
        counts_.pdoallSquashes += pdoallSquashes;
        addToContext(savingUp_.data(), coveredUp_.data());
    }

    const ModulePlan &plan_;
    const ProgramTables &tables_;
    std::vector<Lane> &lanes_;
    const interp::Machine *m_ = nullptr;
    const std::size_t L_;
    OracleCapture *const oracle_; ///< null = no consistency oracle
    BatchCounts &counts_;
    std::vector<LoopOracleWatches> oracleWatches_; ///< by ordinal

    // Per-ordinal lane facts (flat, [ord * L_ + lane]).
    std::vector<std::uint64_t> eligMask_;
    /** The eligible dep1 lanes with a non-empty tracked prefix: under
     *  HELIX they sync every iteration, otherwise they conflict. */
    std::vector<std::uint64_t> dep1Lanes_;
    std::vector<unsigned> ncCount_;
    std::vector<unsigned> trackedAllCount_;
    std::vector<LoopReport *> reportPtr_;

    // Per-lane configuration facts.
    std::vector<ExecModel> laneModel_;
    std::vector<double> lanePdoallThr_;
    std::uint64_t doallMask_ = 0;
    std::uint64_t pdoallMask_ = 0;
    std::uint64_t helixMask_ = 0;
    std::uint64_t dep2Mask_ = 0;
    std::uint64_t reduc0Mask_ = 0;
    std::uint64_t singleSyncMask_ = 0;

    interp::Instrumentation events_;

    // Shared dynamic structure.
    std::vector<EFrame> eframes_;
    std::size_t frameDepth_ = 0;
    std::vector<BInst> instStack_;
    std::vector<std::uint64_t> frameSavings_; ///< [frame * L_ + lane]
    std::vector<std::uint64_t> frameCovered_; ///< [frame * L_ + lane]
    std::vector<std::uint64_t> savingUp_;  ///< scratch, one per lane
    std::vector<std::uint64_t> coveredUp_; ///< scratch, one per lane

    // Per-instance-slot, per-lane model state ([slot * L_ + lane]).
    std::vector<std::uint64_t> ciSavings_; ///< curIterSavings
    std::vector<std::uint64_t> tcSavings_; ///< totalChildSavings
    /** Covered by the instance's closed children, all iterations. */
    std::vector<std::uint64_t> ciCovered_;
    /** The slowest iteration in DOALL and HELIX lanes, that of the
     *  current phase in PDOALL lanes; the instance's cleanSlow and
     *  cleanPhase hold the rest. */
    std::vector<std::uint64_t> slow_;
    std::vector<std::uint64_t> pAccum_;
    std::vector<std::uint64_t> dLargest_;
    std::vector<std::uint64_t> maxProd_;
    std::vector<std::uint64_t> minCons_;
    std::vector<std::uint64_t> cIters_;
    // Per-instance-slot lane-bit flags.
    std::vector<std::uint64_t> anyConflictM_;
    std::vector<std::uint64_t> conflictedM_;
    std::vector<std::uint64_t> anySyncM_;

    // Shared register-def arenas (stacked per open instance).
    std::vector<std::uint64_t> regLastDef_;
    std::vector<std::uint64_t> regPrevOff_;
    std::vector<std::uint8_t> regDefSeen_;
    std::size_t regsTop_ = 0;

    // Oracle difference states, stacked per open instance like regs.
    std::vector<OracleCapture::State> oracleStates_;
    std::size_t oracleTop_ = 0;

    std::vector<std::unique_ptr<ShadowWriteMap>> shadowPool_;
    std::vector<ShadowWriteMap *> shadowFree_;

    std::vector<PhiState> phiStates_; ///< by phi id
};

} // namespace

ProgramTables::ProgramTables(const ModulePlan &plan)
    : ids(plan.module()), numLoops_(plan.numLoops())
{
    const ir::Module &mod = plan.module();
    std::unordered_map<const ir::Function *, std::uint32_t> fnIndex;
    for (const auto &fn : mod.functions())
        fnIndex.emplace(fn.get(), static_cast<std::uint32_t>(fnIndex.size()));
    auto blockId = [&](const ir::BasicBlock *bb) {
        return ids.blockBase[fnIndex.at(bb->parent())] + bb->index();
    };

    forest.blockLoop.assign(ids.blocks.size(), -1);
    forest.parent.assign(numLoops_, -1);
    forest.depth.assign(numLoops_, 0);
    forest.header.assign(numLoops_, 0);
    for (const auto &fp : plan.functionPlans()) {
        for (const LoopPlan &lplan : fp->loopPlans) {
            if (!lplan.loop)
                continue;
            const unsigned ord = lplan.ordinal;
            if (const analysis::Loop *outer = lplan.loop->parent())
                forest.parent[ord] = static_cast<std::int32_t>(
                    fp->loopPlans[outer->id()].ordinal);
            forest.depth[ord] = lplan.loop->depth();
            forest.header[ord] = blockId(lplan.loop->header());
            // Each block keeps the deepest loop holding it.
            for (const ir::BasicBlock *bb : lplan.loop->blocks()) {
                std::int32_t &inner = forest.blockLoop[blockId(bb)];
                if (inner < 0 || forest.depth[inner] < forest.depth[ord])
                    inner = static_cast<std::int32_t>(ord);
            }
        }
    }

    std::vector<std::vector<std::uint32_t>> callees(fnIndex.size());
    for (const auto &fn : mod.functions())
        for (const auto &bb : fn->blocks())
            for (const auto &instr : bb->instructions())
                if (instr->opcode() == ir::Opcode::Call)
                    callees[fnIndex.at(fn.get())].push_back(
                        fnIndex.at(instr->callee()));
    callerLoops.resize(fnIndex.size());
    for (unsigned ord = 0; ord < numLoops_; ++ord) {
        std::vector<std::uint32_t> work;
        for (const Instruction *call : plan.loopByOrdinal(ord).callSites)
            if (call->opcode() == ir::Opcode::Call)
                work.push_back(fnIndex.at(call->callee()));
        std::vector<bool> seen(work.empty() ? 0 : fnIndex.size());
        while (!work.empty()) {
            const std::uint32_t fn = work.back();
            work.pop_back();
            if (seen[fn])
                continue;
            seen[fn] = true;
            callerLoops[fn].push_back(ord);
            work.insert(work.end(), callees[fn].begin(), callees[fn].end());
        }
    }

    watches.assign(ids.blocks.size(), nullptr);
    for (const auto &[bb, ws] : plan.defWatchPlan())
        watches[blockId(bb)] = &ws;

    phiLoop.assign(ids.phis.size(), -1);
    phiTracked.assign(ids.phis.size(), -1);
    for (std::size_t p = 0; p < ids.phis.size(); ++p) {
        const int ord = plan.headerOrdinal(ids.phis[p]->parent());
        if (ord < 0)
            continue;
        phiLoop[p] = ord;
        const LoopPlan &lplan = plan.loopByOrdinal(static_cast<unsigned>(ord));
        auto t = lplan.trackedIndex.find(ids.phis[p]);
        if (t != lplan.trackedIndex.end())
            phiTracked[p] = static_cast<std::int32_t>(t->second);
    }

    // A loop filters only accesses in its own blocks: those of the
    // loops holding the access's block.
    memFunction.resize(ids.memOps.size());
    memLoop.resize(ids.memOps.size());
    untracked_.assign((ids.memOps.size() * numLoops_ + 63) / 64, 0);
    for (std::uint32_t m = 0; m < ids.memOps.size(); ++m) {
        const ir::BasicBlock *bb = ids.memOps[m]->parent();
        memFunction[m] = fnIndex.at(bb->parent());
        memLoop[m] = forest.blockLoop[blockId(bb)];
        for (std::int32_t l = memLoop[m]; l >= 0; l = forest.parent[l]) {
            const auto ord = static_cast<unsigned>(l);
            if (!plan.loopByOrdinal(ord).untrackedMem.count(ids.memOps[m]))
                continue;
            const std::size_t bit = std::size_t{m} * numLoops_ + ord;
            untracked_[bit >> 6] |= std::uint64_t{1} << (bit & 63);
        }
    }
}

interp::Instrumentation
selectEvents(const ModulePlan &plan, const ProgramTables &tables,
             const std::vector<LPConfig> &cfgs, bool withOracle)
{
    std::vector<Lane> lanes;
    for (const LPConfig &cfg : cfgs)
        lanes.emplace_back(plan, cfg);
    OracleCapture cap;
    BatchCounts unused;
    return BatchReplayer(plan, tables, lanes, withOracle ? &cap : nullptr,
                         unused)
        .events();
}

std::vector<ProgramReport>
runLimitStudyBatched(const ModulePlan &plan, const ProgramTables &tables,
                     const std::vector<LPConfig> &cfgs,
                     const std::string &name, OracleCapture *oracle)
{
    guard::faultPoint("replay");
    obs::ScopedPhase phase("rt.batch");
    phase.set("lanes", cfgs.size());

    std::vector<ProgramReport> reports;
    reports.reserve(cfgs.size());
    BatchCounts counts;
    for (std::size_t lo = 0; lo < cfgs.size(); lo += 64) {
        const std::size_t n = std::min<std::size_t>(64, cfgs.size() - lo);
        std::vector<Lane> lanes;
        lanes.reserve(n);
        for (std::size_t i = 0; i < n; ++i)
            lanes.emplace_back(plan, cfgs[lo + i]);
        // The evidence is config-independent: the first chunk's run
        // fills the capture for every chunk.
        BatchReplayer engine(plan, tables, lanes, lo == 0 ? oracle : nullptr,
                             counts);
        interp::Machine machine(plan.module(), engine.events());
        engine.attach(machine);
        machine.run(engine);
        engine.finish();
        const std::uint64_t cost = machine.cost();
        phase.addInstructions(cost * static_cast<std::uint64_t>(n));
        for (const Lane &lane : lanes) {
            reports.push_back(lane.report(plan, name, cost));
            counts.loopsReported += reports.back().loops.size();
        }
    }
    counts.publish(phase);
    LP_LOG_INFO("%s (fused batch): %zu lane(s), %zu interpretation(s)",
                name.c_str(), cfgs.size(), (cfgs.size() + 63) / 64);
    return reports;
}

} // namespace lp::rt
