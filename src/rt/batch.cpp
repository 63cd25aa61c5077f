/**
 * @file
 * The lane engine of fused batches: one interpretation, N lanes.
 *
 * BatchReplayer is the interpreter's sink for a fused batch
 * (rt/batch.hpp).  It maintains the shared dynamic structure — frame
 * stack, loop-instance stack, iteration counters, register-def
 * timestamps, one shadow write-map per instance — exactly once, while
 * the per-lane model state (savings, slowest-iteration accumulators,
 * conflict flags, HELIX deltas) lives in parallel arrays indexed
 * [instanceSlot * L + lane].  Each event is one direct call from the
 * interpreter loop; the per-lane work only triggers at boundaries,
 * conflicts and phi resolutions.
 *
 * Byte-identity contract: for every lane, the per-loop reports, covered
 * intervals, predictor statistics and total savings written here are
 * exactly what the live LoopRuntime (runLimitStudy) produces for that
 * configuration, and an attached OracleCapture receives exactly the
 * evidence the live runtime would gather (tests/test_batch.cpp proves
 * it across the whole grid; fuzz differential pairs 1 and 7 torture
 * it).  Comments of the form "mirrors <member>" tie each step to the
 * live code in tracker.cpp; any change there needs a matching change
 * here.
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
 */

#include "rt/batch.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <unordered_map>

#include "guard/fault.hpp"
#include "interp/execute.hpp"
#include "obs/log.hpp"
#include "obs/timer.hpp"
#include "rt/tracker.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace lp::rt {

using ir::Instruction;

/**
 * Applies one interpretation's events to up to 64 LoopRuntime lanes:
 * the interp::Machine::run sink of a fused batch, reading the clock and
 * stack-pointer samples from the machine it is attached to.
 */
class BatchReplayer
{
  public:
    BatchReplayer(const ModulePlan &plan, const BlockFacts &facts,
                  std::vector<std::unique_ptr<LoopRuntime>> &lanes,
                  OracleCapture *oracle, const interp::Machine &machine)
        : plan_(plan), facts_(facts), lanes_(lanes), m_(machine),
          L_(lanes.size()), metrics_(lanes[0]->metrics_), oracle_(oracle)
    {
        panicIf(L_ == 0 || L_ > 64, "batch lane count out of range");
        if (oracle_)
            oracleWatches_ = watchOraclePhis(plan, *oracle_);

        const std::size_t numLoops = plan.numLoops();
        eligMask_.assign(numLoops, 0);
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
        laneTracked_.resize(numLoops * L_);
        reportPtr_.resize(numLoops * L_);
        laneModel_.resize(L_);
        lanePdoallThr_.resize(L_);
        laneSquashes_.resize(L_);
        for (std::size_t l = 0; l < L_; ++l) {
            const LPConfig &cfg = lanes_[l]->cfg_;
            const std::uint64_t bit = std::uint64_t{1} << l;
            laneModel_[l] = cfg.model;
            lanePdoallThr_[l] = cfg.pdoallSerialThreshold;
            laneSquashes_[l] = lanes_[l]->squashesCtr_;
            switch (cfg.model) {
              case ExecModel::DoAll:        doallMask_ |= bit; break;
              case ExecModel::PartialDoAll: pdoallMask_ |= bit; break;
              case ExecModel::Helix:        helixMask_ |= bit; break;
            }
            if (cfg.dep == 1)
                dep1Mask_ |= bit;
            if (cfg.dep == 2)
                dep2Mask_ |= bit;
            if (cfg.reduc == 0)
                reduc0Mask_ |= bit;
            if (cfg.singleSyncDoacross)
                singleSyncMask_ |= bit;
            for (std::size_t ord = 0; ord < numLoops; ++ord) {
                auto &rli = lanes_[l]->runLoops_[ord];
                if (rli.verdict == SerialReason::None)
                    eligMask_[ord] |= bit;
                laneTracked_[ord * L_ + l] = rli.trackedCount;
                reportPtr_[ord * L_ + l] = &rli.report;
            }
        }
        // The unqualified metric handles are the same registry objects
        // in every lane; grab lane 0's (mirrors the ctor caching).
        memEventsCtr_ = lanes_[0]->memEventsCtr_;
        conflictsCtr_ = lanes_[0]->conflictsCtr_;
        instancesCtr_ = lanes_[0]->instancesCtr_;
        tripCountHist_ = lanes_[0]->tripCountHist_;

        laneTotal_.assign(L_, 0);
        savingUp_.resize(L_);
    }

    /// @name Sink interface of interp::Machine::run
    /// @{
    void
    functionEnter(const ir::Function *)
    {
        // Mirrors feedFunctionEnter: reuse dead frames above the live
        // prefix.
        if (frameDepth_ == eframes_.size())
            eframes_.emplace_back();
        EFrame &f = eframes_[frameDepth_++];
        f.loopLo = instStack_.size();
        f.savingsBase = (frameDepth_ - 1) * L_;
        if (frameSavings_.size() < frameDepth_ * L_)
            frameSavings_.resize(frameDepth_ * L_);
        std::fill_n(frameSavings_.begin() +
                        static_cast<std::ptrdiff_t>(f.savingsBase),
                    L_, std::uint64_t{0});
    }

    void
    functionExit(const ir::Function *)
    {
        // Mirrors feedFunctionExit: close instances an early return left
        // open, then propagate the frame's savings to the parent.
        const std::uint64_t now = m_.cost();
        EFrame &f = eframes_[frameDepth_ - 1];
        while (instStack_.size() > f.loopLo)
            closeTop(now);
        const std::size_t sb = f.savingsBase;
        --frameDepth_;
        if (frameDepth_ == 0) {
            for (std::size_t l = 0; l < L_; ++l)
                laneTotal_[l] = frameSavings_[sb + l];
        } else {
            addSavings(&frameSavings_[sb]);
        }
    }

    void
    blockEnter(const ir::BasicBlock *bb, std::uint32_t blockId)
    {
        // Mirrors feedBlockEnter: pop every instance that does not
        // contain this block.
        const std::uint64_t nowBefore = m_.blockEntryCost();
        EFrame &f = eframes_[frameDepth_ - 1];
        while (instStack_.size() > f.loopLo &&
               !instStack_.back().lplan->loop->contains(bb))
            closeTop(nowBefore);

        const BlockFacts::PerBlock &bf = facts_.blocks[blockId];
        inHeader_ = bf.headerOrdinal >= 0;
        if (inHeader_) {
            const std::uint64_t sp = m_.stackPointer();
            const auto ord = static_cast<unsigned>(bf.headerOrdinal);
            if (instStack_.size() > f.loopLo &&
                instStack_.back().ord == ord)
                iterationBoundary(nowBefore, sp);
            else
                openInstance(ord, nowBefore, sp);
        }

        if (bf.watches) {
            for (const PlannedDefWatch &w : *bf.watches) {
                // Per-cell gate: eligible loop AND slot inside the
                // lane's tracked prefix.  The written value is
                // config-independent and lanes failing the gate never
                // read the slot, so one write serves every passing lane.
                std::uint64_t m = eligMask_[w.loopOrdinal];
                if (w.regIndex >= ncCount_[w.loopOrdinal])
                    m &= reduc0Mask_;
                if (!m || w.regIndex >= trackedAllCount_[w.loopOrdinal])
                    continue;
                for (std::size_t i = instStack_.size(); i > f.loopLo;) {
                    BInst &inst = instStack_[--i];
                    if (inst.ord == w.loopOrdinal) {
                        regLastDef_[inst.regsBase + w.regIndex] =
                            nowBefore + w.offsetInBlock;
                        regDefSeen_[inst.regsBase + w.regIndex] = 1;
                        break;
                    }
                }
            }
        }
    }

    void
    phiResolved(const Instruction *phi, std::uint64_t bits)
    {
        // LoopRuntime ignores every phi but a loop header's.
        if (!inHeader_)
            return;
        PhiState &st = phiState(phi);
        if (!st.activeMask && st.oracleSlot < 0)
            return; // neither dep2-tracked in any lane nor watched
        // Mirrors feedPhiResolved: only the top-of-stack instance of
        // the phi's own loop observes the resolution.
        EFrame &f = eframes_[frameDepth_ - 1];
        if (instStack_.size() <= f.loopLo)
            return;
        BInst &inst = instStack_.back();
        if (inst.ord != st.ord)
            return;

        if (st.oracleSlot >= 0) {
            const auto slot = static_cast<std::size_t>(st.oracleSlot);
            OracleCapture::observe(
                oracleStates_[inst.oracleBase + slot],
                oracleWatches_[st.ord].slots[slot].depth, bits);
        }
        if (!st.activeMask)
            return;

        const bool carried = inst.curIter >= 1;
        predict::HybridOutcome out = st.pred.predictAndTrain(bits);
        if (!carried)
            return; // first resolution is the pre-loop initial value
        st.stats.predictions += 1;
        if (out.anyCorrect)
            return;
        st.stats.mispredicts += 1;

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
        for (std::uint64_t m = st.activeMask & ~helixMask_; m;
             m &= m - 1)
            registerConflictLane(
                inst, static_cast<unsigned>(std::countr_zero(m)));
    }

    void
    load(const Instruction *instr, std::uint64_t addr)
    {
        const std::uint64_t preciseNow = m_.preciseCost();
        if (metrics_)
            memEventsCtr_->add(static_cast<std::uint64_t>(L_));
        const std::uint64_t granule = addr >> 3;
        const bool isStack = interp::Memory::isStackAddress(addr);
        for (BInst &inst : instStack_) {
            if (!inst.eligMask)
                continue; // no lane tracks this loop
            if (isStack && addr >= inst.spAtIterStart)
                continue; // iteration-private frame (cactus stack)
            if (inst.lplan->untrackedMem.count(instr))
                continue; // statically proven conflict-free
            const WriteRec *rec = inst.shadow->lookup(granule);
            if (rec && rec->iter < inst.curIter)
                noteMemConflict(inst, *rec,
                                preciseNow - inst.iterStartTs);
        }
    }

    void
    store(const Instruction *instr, std::uint64_t addr)
    {
        const std::uint64_t preciseNow = m_.preciseCost();
        if (metrics_)
            memEventsCtr_->add(static_cast<std::uint64_t>(L_));
        const std::uint64_t granule = addr >> 3;
        const bool isStack = interp::Memory::isStackAddress(addr);
        for (BInst &inst : instStack_) {
            if (!inst.eligMask)
                continue;
            if (isStack && addr >= inst.spAtIterStart)
                continue;
            if (inst.lplan->untrackedMem.count(instr))
                continue;
            inst.shadow->record(granule, inst.curIter,
                                preciseNow - inst.iterStartTs);
        }
    }

    /** Calls need nothing: a callee's blocks carry its cost. */
    void callSite(const Instruction *) {}
    /// @}

    /**
     * Install the accumulated per-lane totals into the lanes; call
     * after the machine's run returned, before each lane's finishAt().
     */
    void
    finish()
    {
        for (std::size_t l = 0; l < L_; ++l)
            lanes_[l]->totalSavings_ = laneTotal_[l];
        for (const auto &[phi, st] : phiStates_) {
            if (st->stats.predictions == 0)
                continue; // per-cell stats entries need a carried event
            for (std::uint64_t m = st->activeMask; m; m &= m - 1) {
                const unsigned l =
                    static_cast<unsigned>(std::countr_zero(m));
                lanes_[l]->predStats_[phi] = st->stats;
            }
        }
    }

  private:
    struct EFrame
    {
        std::size_t loopLo = 0;      ///< instStack_ depth at entry
        std::size_t savingsBase = 0; ///< into frameSavings_
    };

    /** One dynamic loop instance (shared across lanes). */
    struct BInst
    {
        const LoopPlan *lplan = nullptr;
        unsigned ord = 0;
        std::uint64_t entryTs = 0;
        std::uint64_t iterStartTs = 0;
        std::uint64_t spAtIterStart = 0;
        std::uint64_t curIter = 0;
        std::uint64_t memConflicts = 0; ///< same for every eligible lane
        ShadowWriteMap *shadow = nullptr; ///< null when eligMask == 0
        std::uint64_t eligMask = 0;
        std::size_t slot = 0;     ///< stack depth (reused LIFO)
        std::size_t base = 0;     ///< slot * L_, into the SoA arrays
        std::size_t regsBase = 0; ///< into the reg arenas
        std::uint32_t nRegs = 0;  ///< trackedAll.size()
        std::size_t oracleBase = 0; ///< into oracleStates_
    };

    /** Shared predictor + stats for one dep2-tracked phi. */
    struct PhiState
    {
        std::uint64_t activeMask = 0; ///< dep2 ∩ eligible ∩ in-prefix
        unsigned ord = 0; ///< the header's loop (when it is one)
        unsigned idx = 0; ///< index into trackedAll / the reg arena
        int oracleSlot = -1; ///< into the loop's oracle watches, or -1
        predict::HybridPredictor pred;
        LoopRuntime::PredStats stats;
    };

    PhiState &
    phiState(const Instruction *phi)
    {
        auto it = phiStates_.find(phi);
        if (it != phiStates_.end())
            return *it->second;
        auto st = std::make_unique<PhiState>();
        const int ord = plan_.headerOrdinal(phi->parent());
        if (ord >= 0) {
            const LoopPlan &lp =
                plan_.loopByOrdinal(static_cast<unsigned>(ord));
            st->ord = static_cast<unsigned>(ord);
            auto ti = lp.trackedIndex.find(phi);
            if (ti != lp.trackedIndex.end()) {
                std::uint64_t m =
                    eligMask_[static_cast<std::size_t>(ord)] & dep2Mask_;
                if (ti->second >=
                    ncCount_[static_cast<std::size_t>(ord)])
                    m &= reduc0Mask_;
                st->activeMask = m;
                st->idx = ti->second;
            }
            if (oracle_) {
                const LoopOracleWatches &lw = oracleWatches_[st->ord];
                auto oi = lw.index.find(phi);
                if (oi != lw.index.end())
                    st->oracleSlot = static_cast<int>(oi->second);
            }
        }
        PhiState &ref = *st;
        phiStates_.emplace(phi, std::move(st));
        return ref;
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

    /** Per-lane savings land on the innermost open context (mirrors
     *  addSavingsToCurrentContext; resolved once, applied per lane). */
    void
    addSavings(const std::uint64_t *src)
    {
        EFrame &f = eframes_[frameDepth_ - 1];
        std::uint64_t *dst =
            instStack_.size() > f.loopLo
                ? &ciSavings_[instStack_.back().base]
                : &frameSavings_[f.savingsBase];
        for (std::size_t l = 0; l < L_; ++l)
            dst[l] += src[l];
    }

    void
    openInstance(unsigned ord, std::uint64_t now, std::uint64_t sp)
    {
        // Mirrors openInstance: unconditional — even loops every lane
        // deems sequential get instance/iteration accounting.
        const LoopPlan &lp = plan_.loopByOrdinal(ord);
        const std::size_t slot = instStack_.size();
        if ((slot + 1) * L_ > ciSavings_.size()) {
            const std::size_t n = (slot + 1) * L_;
            ciSavings_.resize(n);
            tcSavings_.resize(n);
            iterSlow_.resize(n);
            phaseSlow_.resize(n);
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
        inst.lplan = &lp;
        inst.ord = ord;
        inst.entryTs = now;
        inst.iterStartTs = now;
        inst.spAtIterStart = sp;
        inst.eligMask = eligMask_[ord];
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
            // Mirrors the live runtime's per-instance oracle states.
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
            iterSlow_[B + l] = 0;
            phaseSlow_[B + l] = 0;
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
        if (metrics_)
            instancesCtr_->add(static_cast<std::uint64_t>(L_));
    }

    /** Mirrors registerConflict for one lane. */
    void
    registerConflictLane(BInst &inst, unsigned l)
    {
        const std::uint64_t bit = std::uint64_t{1} << l;
        anyConflictM_[inst.slot] |= bit;
        if (metrics_)
            conflictsCtr_->add(1);
        if ((pdoallMask_ & bit) && !(conflictedM_[inst.slot] & bit)) {
            const std::size_t i = inst.base + l;
            pAccum_[i] += phaseSlow_[i];
            phaseSlow_[i] = 0;
            conflictedM_[inst.slot] |= bit;
            cIters_[i] += 1;
            if (metrics_)
                laneSquashes_[l]->add(1);
        }
    }

    /** Mirrors noteMemConflict, fanned out over the eligible lanes. */
    void
    noteMemConflict(BInst &inst, const WriteRec &rec,
                    std::uint64_t consumerOffset)
    {
        inst.memConflicts += 1;
        const std::uint64_t m = inst.eligMask;
        anyConflictM_[inst.slot] |= m;
        if (metrics_)
            conflictsCtr_->add(
                static_cast<std::uint64_t>(std::popcount(m)));
        const std::size_t B = inst.base;
        std::uint64_t todo = m & pdoallMask_ & ~conflictedM_[inst.slot];
        for (std::uint64_t pm = todo; pm; pm &= pm - 1) {
            const unsigned l =
                static_cast<unsigned>(std::countr_zero(pm));
            pAccum_[B + l] += phaseSlow_[B + l];
            phaseSlow_[B + l] = 0;
            cIters_[B + l] += 1;
            if (metrics_)
                laneSquashes_[l]->add(1);
        }
        conflictedM_[inst.slot] |= todo;
        const std::uint64_t hm = m & helixMask_;
        if (hm) {
            const std::uint64_t dist = inst.curIter - rec.iter;
            const bool fwd = rec.offset > consumerOffset;
            const std::uint64_t delta =
                fwd ? (rec.offset - consumerOffset + dist - 1) / dist
                    : 0;
            for (std::uint64_t hmm = hm; hmm; hmm &= hmm - 1) {
                const unsigned l =
                    static_cast<unsigned>(std::countr_zero(hmm));
                if (fwd)
                    dLargest_[B + l] = std::max(dLargest_[B + l], delta);
                maxProd_[B + l] = std::max(maxProd_[B + l], rec.offset);
                minCons_[B + l] =
                    std::min(minCons_[B + l], consumerOffset);
            }
            anySyncM_[inst.slot] |= hm;
        }
    }

    /** Mirrors iterationBoundary on the top-of-stack instance. */
    void
    iterationBoundary(std::uint64_t now, std::uint64_t sp)
    {
        BInst &inst = instStack_.back();
        const std::size_t B = inst.base;
        const std::uint64_t serialIterCost = now - inst.iterStartTs;
        for (std::size_t l = 0; l < L_; ++l) {
            const std::uint64_t savings =
                std::min(ciSavings_[B + l], serialIterCost);
            const std::uint64_t adj = serialIterCost - savings;
            tcSavings_[B + l] += savings;
            iterSlow_[B + l] = std::max(iterSlow_[B + l], adj);
            phaseSlow_[B + l] = std::max(phaseSlow_[B + l], adj);
        }

        if (inst.eligMask && inst.nRegs) {
            // Producer offsets of the iteration that just ended; the
            // values are config-independent, each lane reads only its
            // own tracked prefix.
            for (std::uint32_t r = 0; r < inst.nRegs; ++r) {
                const std::size_t ri = inst.regsBase + r;
                regPrevOff_[ri] = regDefSeen_[ri]
                                      ? regLastDef_[ri] - inst.iterStartTs
                                      : 0;
            }
            // dep1 under HELIX: the lowered LCD is satisfied by one
            // sync per tracked register.
            std::uint64_t hm = inst.eligMask & dep1Mask_ & helixMask_;
            for (std::uint64_t m = hm; m; m &= m - 1) {
                const unsigned l =
                    static_cast<unsigned>(std::countr_zero(m));
                const unsigned lt =
                    laneTracked_[static_cast<std::size_t>(inst.ord) *
                                     L_ +
                                 l];
                if (lt == 0)
                    continue;
                for (unsigned r = 0; r < lt; ++r) {
                    const std::uint64_t off =
                        regPrevOff_[inst.regsBase + r];
                    dLargest_[B + l] = std::max(dLargest_[B + l], off);
                    maxProd_[B + l] = std::max(maxProd_[B + l], off);
                }
                minCons_[B + l] = 0; // the phi consumes at the top
                anySyncM_[inst.slot] |= std::uint64_t{1} << l;
            }
        }

        inst.curIter += 1;
        inst.iterStartTs = now;
        inst.spAtIterStart = sp;
        for (std::size_t l = 0; l < L_; ++l)
            ciSavings_[B + l] = 0;
        conflictedM_[inst.slot] = 0;

        // dep1 under a speculative model: the lowered LCD conflicts at
        // the top of every iteration after the first.
        std::uint64_t cm = inst.eligMask & dep1Mask_ & ~helixMask_;
        for (std::uint64_t m = cm; m; m &= m - 1) {
            const unsigned l =
                static_cast<unsigned>(std::countr_zero(m));
            if (laneTracked_[static_cast<std::size_t>(inst.ord) * L_ +
                             l] != 0)
                registerConflictLane(inst, l);
        }
    }

    /** Mirrors closeInstance (pop first: savings go to the parent). */
    void
    closeTop(std::uint64_t now)
    {
        const BInst inst = instStack_.back();
        instStack_.pop_back();
        regsTop_ = inst.regsBase;
        if (oracle_) {
            const auto &slots = oracleWatches_[inst.ord].slots;
            for (std::size_t i = 0; i < slots.size(); ++i)
                oracle_->recordInstance(slots[i].watch,
                                        oracleStates_[inst.oracleBase + i],
                                        slots[i].depth);
            oracleTop_ = inst.oracleBase;
        }

        const std::size_t B = inst.base;
        const std::uint64_t tailSerial = now - inst.iterStartTs;
        const std::uint64_t rawSerial = now - inst.entryTs;
        if (inst.shadow)
            shadowFree_.push_back(inst.shadow);

        if (metrics_) {
            for (std::size_t l = 0; l < L_; ++l)
                tripCountHist_->record(inst.curIter);
            // DOALL is all-or-nothing speculation: any conflict
            // discards the whole instance's parallel execution.
            for (std::uint64_t m = inst.eligMask & doallMask_ &
                                   anyConflictM_[inst.slot];
                 m; m &= m - 1)
                laneSquashes_[static_cast<unsigned>(std::countr_zero(m))]
                    ->add(1);
        }

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
                        parallel = iterSlow_[B + l] + tailAdj;
                        parallelized = true;
                    }
                    break;
                  case ExecModel::PartialDoAll: {
                    double conflictFrac =
                        static_cast<double>(cIters_[B + l]) /
                        static_cast<double>(inst.curIter);
                    if (conflictFrac <= lanePdoallThr_[l]) {
                        parallel = pAccum_[B + l] + phaseSlow_[B + l] +
                                   tailAdj;
                        parallelized = true;
                    }
                    break;
                  }
                  case ExecModel::Helix: {
                    std::uint64_t delta = dLargest_[B + l];
                    if (singleSyncMask_ & bit) {
                        delta = 0;
                        if ((anySyncM_[inst.slot] & bit) &&
                            maxProd_[B + l] > minCons_[B + l])
                            delta = maxProd_[B + l] - minCons_[B + l];
                    }
                    std::uint64_t t = iterSlow_[B + l] +
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
            if (!parallelized)
                rep.serializedInstances += 1;
            if (parallelized)
                lanes_[l]->covered_.emplace_back(inst.entryTs, now);

            savingUp_[l] = rawSerial - parallel;
        }
        addSavings(savingUp_.data());
    }

    const ModulePlan &plan_;
    const BlockFacts &facts_;
    std::vector<std::unique_ptr<LoopRuntime>> &lanes_;
    const interp::Machine &m_;
    const std::size_t L_;
    const bool metrics_;
    OracleCapture *const oracle_; ///< null = no consistency oracle
    std::vector<LoopOracleWatches> oracleWatches_; ///< by ordinal

    // Per-ordinal lane facts (flat, [ord * L_ + lane]).
    std::vector<std::uint64_t> eligMask_;
    std::vector<unsigned> ncCount_;
    std::vector<unsigned> trackedAllCount_;
    std::vector<unsigned> laneTracked_;
    std::vector<LoopReport *> reportPtr_;

    // Per-lane configuration facts.
    std::vector<ExecModel> laneModel_;
    std::vector<double> lanePdoallThr_;
    std::vector<obs::Counter *> laneSquashes_;
    std::uint64_t doallMask_ = 0;
    std::uint64_t pdoallMask_ = 0;
    std::uint64_t helixMask_ = 0;
    std::uint64_t dep1Mask_ = 0;
    std::uint64_t dep2Mask_ = 0;
    std::uint64_t reduc0Mask_ = 0;
    std::uint64_t singleSyncMask_ = 0;

    obs::Counter *memEventsCtr_;
    obs::Counter *conflictsCtr_;
    obs::Counter *instancesCtr_;
    obs::Histogram *tripCountHist_;

    // Shared dynamic structure.
    bool inHeader_ = false; ///< the block just entered heads a loop
    std::vector<EFrame> eframes_;
    std::size_t frameDepth_ = 0;
    std::vector<BInst> instStack_;
    std::vector<std::uint64_t> frameSavings_; ///< [frame * L_ + lane]
    std::vector<std::uint64_t> laneTotal_;
    std::vector<std::uint64_t> savingUp_; ///< scratch, one per lane

    // Per-instance-slot, per-lane model state ([slot * L_ + lane]).
    std::vector<std::uint64_t> ciSavings_; ///< curIterSavings
    std::vector<std::uint64_t> tcSavings_; ///< totalChildSavings
    std::vector<std::uint64_t> iterSlow_;
    std::vector<std::uint64_t> phaseSlow_;
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

    std::unordered_map<const Instruction *, std::unique_ptr<PhiState>>
        phiStates_;
};

BlockFacts
buildBlockFacts(const ModulePlan &plan)
{
    // Number the blocks as interp::Machine does: Module::functions()
    // in order, each function's blocks in order.
    std::unordered_map<const ir::Function *, std::uint32_t> blockBase;
    std::uint32_t numBlocks = 0;
    for (const auto &fn : plan.module().functions()) {
        blockBase.emplace(fn.get(), numBlocks);
        numBlocks += static_cast<std::uint32_t>(fn->blocks().size());
    }
    auto idOf = [&](const ir::BasicBlock *bb) {
        return blockBase.at(bb->parent()) + bb->index();
    };

    BlockFacts facts;
    facts.blocks.resize(numBlocks);
    for (const auto &fp : plan.functionPlans())
        for (const LoopPlan &lplan : fp->loopPlans)
            if (lplan.loop)
                facts.blocks[idOf(lplan.loop->header())].headerOrdinal =
                    static_cast<std::int32_t>(lplan.ordinal);
    for (const auto &[bb, ws] : plan.defWatchPlan())
        facts.blocks[idOf(bb)].watches = &ws;
    return facts;
}

std::vector<ProgramReport>
runLimitStudyBatched(const ModulePlan &plan, const BlockFacts &facts,
                     const std::vector<LPConfig> &cfgs,
                     const std::string &name, OracleCapture *oracle)
{
    guard::faultPoint("replay");

    std::vector<ProgramReport> reports;
    reports.reserve(cfgs.size());
    for (std::size_t lo = 0; lo < cfgs.size(); lo += 64) {
        const std::size_t n = std::min<std::size_t>(64, cfgs.size() - lo);
        std::vector<std::unique_ptr<LoopRuntime>> lanes;
        lanes.reserve(n);
        {
            obs::ScopedPhase phase("plan");
            for (std::size_t i = 0; i < n; ++i)
                lanes.push_back(std::make_unique<LoopRuntime>(
                    plan, cfgs[lo + i], nullptr));
        }
        std::uint64_t cost = 0;
        {
            obs::ScopedPhase phase("replay_batch");
            interp::Machine machine(plan.module());
            // The evidence is config-independent: the first chunk's
            // run fills the capture for every chunk.
            BatchReplayer engine(plan, facts, lanes,
                                 lo == 0 ? oracle : nullptr, machine);
            machine.run(engine, prof::EpochKind::ReplayBatch, n);
            engine.finish();
            cost = machine.cost();
            phase.addInstructions(cost * static_cast<std::uint64_t>(n));
        }
        obs::ScopedPhase phase("report");
        for (std::size_t i = 0; i < n; ++i)
            reports.push_back(lanes[i]->finishAt(name, cost));
    }
    LP_LOG_INFO("%s (fused batch): %zu lane(s), %zu interpretation(s)",
                name.c_str(), cfgs.size(), (cfgs.size() + 63) / 64);
    return reports;
}

} // namespace lp::rt
