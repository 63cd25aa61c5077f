/**
 * @file
 * The Loopapalooza run-time component (paper Section III-B).
 *
 * Subscribes to the instrumentation call-backs, maintains the dynamic
 * loop-instance stack, tracks cross-iteration RAW conflicts through memory
 * and registers, runs the value predictors, applies the configured
 * parallel execution model (DOALL / Partial-DOALL / HELIX) to every loop
 * instance, and propagates parallel savings up the loop/function nest so
 * outer loops compute their costs over already-parallelized bodies
 * (multi-level nested parallelization, as in SWARM/T4).
 */

#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "interp/machine.hpp"
#include "obs/metrics.hpp"
#include "predict/predictor.hpp"
#include "rt/oracle_capture.hpp"
#include "rt/plan.hpp"
#include "rt/report.hpp"
#include "rt/shadow.hpp"

namespace lp::rt {

class BatchReplayer;

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
 * config-independent, so the live runtime and the batch lane engine
 * watch the same phis through this one definition.
 * @return each loop's watches, indexed by LoopPlan::ordinal
 */
std::vector<LoopOracleWatches> watchOraclePhis(const ModulePlan &plan,
                                               OracleCapture &cap);

/** Run-time dependency tracker and speedup estimator. */
class LoopRuntime : public interp::ExecListener
{
  public:
    /**
     * @param oracle when non-null, every SCEV-claimed and tracked header
     *        phi is watched and its resolved values are streamed into
     *        the capture's finite-difference checks (consistency
     *        oracle); null keeps the hot path oracle-free.
     */
    LoopRuntime(const ModulePlan &plan, const LPConfig &cfg,
                OracleCapture *oracle = nullptr);
    ~LoopRuntime() override;

    /** Bind the machine whose clock and stack pointer we sample. */
    void attach(interp::Machine &m) { machine_ = &m; }

    /** Build the final report; call after Machine::run() returned. */
    ProgramReport finish(const std::string &programName);

    /** Like finish(), but with an explicit final clock (batch lanes). */
    ProgramReport finishAt(const std::string &programName,
                           std::uint64_t serialCost);

    /// @name ExecListener interface
    /// The runtime's front end: each call-back samples the clock and
    /// stack pointer it needs from the attached machine.
    /// @{
    void onBlockEnter(const ir::BasicBlock *bb) override;
    void onPhiResolved(const ir::Instruction *phi,
                       std::uint64_t bits) override;
    void onLoad(const ir::Instruction *instr, std::uint64_t addr) override;
    void onStore(const ir::Instruction *instr, std::uint64_t addr) override;
    void onFunctionEnter(const ir::Function *fn) override;
    void onFunctionExit(const ir::Function *fn) override;
    /// @}

  private:
    /**
     * The batch lane engine (rt/batch.cpp) drives N LoopRuntime lanes
     * from one interpretation's events: it maintains the frame/instance
     * structure itself (it is configuration-independent) and writes
     * each lane's per-loop reports, savings, predictor stats and
     * covered intervals directly, then hands the lanes back for the
     * normal finishAt().  That requires reaching the per-run state the
     * on* call-backs would otherwise populate.
     */
    friend class BatchReplayer;

    /** Per-instance state of one tracked register LCD. */
    struct RegState
    {
        std::uint64_t lastDefTs = 0;
        std::uint64_t prevDefOffset = 0;
        bool defSeen = false;
    };

    /** Per-configuration, per-static-loop facts.
     *
     *  The tracked list itself lives in the shared plan
     *  (LoopPlan::trackedAll); this run's configuration selects the
     *  prefix [0, trackedCount).  Keeping only the count here (instead
     *  of the old per-cell vector + phi->index map copies) removes two
     *  allocations per loop per cell from every sweep worker.
     */
    struct RunLoopInfo
    {
        const LoopPlan *plan = nullptr;
        SerialReason verdict = SerialReason::None;
        unsigned trackedCount = 0; ///< prefix of plan->trackedAll in play
        LoopReport report;
    };

    /** One dynamic loop instance. */
    struct Instance
    {
        RunLoopInfo *rli = nullptr;
        std::uint64_t entryTs = 0;
        std::uint64_t iterStartTs = 0;
        std::uint64_t spAtIterStart = 0;
        std::uint64_t curIter = 0;       ///< completed iterations so far
        std::uint64_t curIterSavings = 0;
        std::uint64_t totalChildSavings = 0;
        // Model state.
        std::uint64_t iterSlowest = 0;   ///< max adjusted iteration cost
        std::uint64_t phaseSlowest = 0;  ///< PDOALL, current phase
        std::uint64_t parallelAccum = 0; ///< PDOALL, committed phases
        std::uint64_t deltaLargest = 0;  ///< HELIX
        std::uint64_t maxProdOff = 0;    ///< DOACROSS single-sync
        std::uint64_t minConsOff = ~std::uint64_t{0};
        bool anySync = false;
        bool conflictedThisIter = false;
        bool anyConflict = false;
        std::uint64_t conflictIters = 0;
        std::uint64_t memConflicts = 0;
        /** Pooled last-write shadow map (owned by the LoopRuntime). */
        ShadowWriteMap *shadow = nullptr;
        std::vector<RegState> regs;
        /** Per-watch difference states; empty when no capture attached. */
        std::vector<OracleCapture::State> oracle;
    };

    struct FrameCtx
    {
        const FunctionPlan *fp;
        std::vector<Instance> loopStack;
        std::uint64_t savings = 0;
    };

    void openInstance(RunLoopInfo *rli, std::uint64_t now,
                      std::uint64_t sp);
    void iterationBoundary(Instance &inst, std::uint64_t now,
                           std::uint64_t sp);
    void closeInstance(Instance &inst, std::uint64_t now);
    void addSavingsToCurrentContext(std::uint64_t s);
    void registerConflict(Instance &inst);
    void noteMemConflict(Instance &inst, const WriteRec &rec,
                         std::uint64_t consumerOffset);
    ShadowWriteMap *acquireShadow();
    void releaseShadow(ShadowWriteMap *s);
    Instance acquireInstance();
    void recycleInstance(Instance &&inst);

    FrameCtx &
    curFrame()
    {
        return frames_[frameDepth_ - 1];
    }

    const ModulePlan &plan_;
    LPConfig cfg_;
    interp::Machine *machine_ = nullptr;
    OracleCapture *oracle_ = nullptr;

    /** Indexed by LoopPlan::ordinal (header lookups resolve through
     *  the shared plan; no per-cell header map). */
    std::vector<RunLoopInfo> runLoops_;
    /** Oracle watches by LoopPlan::ordinal; empty without a capture. */
    std::vector<LoopOracleWatches> oracleWatches_;

    /** Shared (hardware-like) per-LCD predictors and their counters. */
    std::unordered_map<const ir::Instruction *,
                       std::unique_ptr<predict::HybridPredictor>>
        predictors_;
    struct PredStats
    {
        std::uint64_t predictions = 0;
        std::uint64_t mispredicts = 0;
    };
    std::unordered_map<const ir::Instruction *, PredStats> predStats_;

    // Cached metric handles (registry entries live forever).  Whether
    // metrics are on is resolved ONCE at construction into metrics_, so
    // the disabled-metrics hot path carries no registry-state branches.
    obs::Counter *memEventsCtr_;
    obs::Counter *conflictsCtr_;
    obs::Counter *squashesCtr_; ///< model.squashes.<model>; null for HELIX
    obs::Counter *instancesCtr_;
    obs::Histogram *tripCountHist_;
    const bool metrics_;

    /**
     * Shadow-map pool: maps are acquired per dynamic loop instance and
     * returned (still warm — reset is an epoch bump) when it closes.
     */
    std::vector<std::unique_ptr<ShadowWriteMap>> shadowPool_;
    std::vector<ShadowWriteMap *> shadowFree_;

    /** Closed Instances parked for reuse, register/oracle vector
     *  capacity intact — loop entry stops hitting the allocator once
     *  the nest has been seen once. */
    std::vector<Instance> instancePool_;

    /** Frame stack; frames_[0, frameDepth_) are live.  Dead frames
     *  keep their loopStack capacity so call-heavy programs do not
     *  malloc per function entry. */
    std::vector<FrameCtx> frames_;
    std::size_t frameDepth_ = 0;
    std::uint64_t totalSavings_ = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered_;
    bool finished_ = false;
};

/**
 * Convenience driver: run @p mod under @p cfg and report.
 * @param name program name recorded in the report
 * @param oracle optional consistency-oracle capture (see OracleCapture)
 */
ProgramReport runLimitStudy(const ir::Module &mod, const ModulePlan &plan,
                            const LPConfig &cfg, const std::string &name,
                            OracleCapture *oracle = nullptr);

} // namespace lp::rt
