#include "rt/tracker.hpp"

#include <algorithm>
#include <cctype>

#include "obs/log.hpp"
#include "obs/timer.hpp"
#include "support/error.hpp"
#include "support/text.hpp"

namespace lp::rt {

using ir::BasicBlock;
using ir::Instruction;

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

LoopRuntime::LoopRuntime(const ModulePlan &plan, const LPConfig &cfg,
                         OracleCapture *oracle)
    : plan_(plan), cfg_(cfg), oracle_(oracle),
      metrics_(obs::metricsOn())
{
    cfg_.validate();

    obs::Registry &reg = obs::Registry::instance();
    memEventsCtr_ = &reg.counter("tracker.mem_events");
    conflictsCtr_ = &reg.counter("tracker.conflicts");
    instancesCtr_ = &reg.counter("tracker.loop_instances");
    // Roughly geometric trip-count buckets: tight loops vs. long streams.
    tripCountHist_ = &reg.histogram(
        "tracker.trip_count", {0, 1, 4, 16, 64, 256, 1024, 4096, 16384,
                               65536, 262144, 1048576});
    if (cfg_.model == ExecModel::Helix) {
        squashesCtr_ = nullptr; // non-speculative: nothing to squash
    } else {
        std::string model = execModelName(cfg_.model);
        for (char &c : model)
            c = static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        squashesCtr_ = &reg.counter("model.squashes." + model);
    }

    // Build per-run loop info: static verdicts and the tracked-prefix
    // counts (reductions are demoted to tracked LCDs under reduc0).
    // The tracked lists, phi indexes, and def watches themselves live
    // in the shared plan — this loop allocates nothing per loop.
    runLoops_.resize(plan.numLoops());
    for (const auto &fp : plan.functionPlans()) {
        for (const LoopPlan &lplan : fp->loopPlans) {
            RunLoopInfo &rli = runLoops_[lplan.ordinal];
            rli.plan = &lplan;
            rli.verdict = staticVerdict(lplan, *fp, plan, cfg_);
            rli.trackedCount = static_cast<unsigned>(
                cfg_.reduc == 0 ? lplan.trackedAll.size()
                                : lplan.nonComputable.size());

            rli.report.label =
                lplan.loop ? lplan.loop->label() : "<?>";
            rli.report.depth = lplan.loop ? lplan.loop->depth() : 0;
            rli.report.staticReason = rli.verdict;
        }
    }
    if (oracle_)
        oracleWatches_ = watchOraclePhis(plan, *oracle_);
}

LoopRuntime::~LoopRuntime() = default;

ShadowWriteMap *
LoopRuntime::acquireShadow()
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

void
LoopRuntime::releaseShadow(ShadowWriteMap *s)
{
    if (s)
        shadowFree_.push_back(s);
}

LoopRuntime::Instance
LoopRuntime::acquireInstance()
{
    if (instancePool_.empty())
        return {};
    Instance recycled = std::move(instancePool_.back());
    instancePool_.pop_back();
    // Fresh field values, recycled vector capacity.
    Instance inst;
    inst.regs = std::move(recycled.regs);
    inst.regs.clear();
    inst.oracle = std::move(recycled.oracle);
    inst.oracle.clear();
    return inst;
}

void
LoopRuntime::recycleInstance(Instance &&inst)
{
    instancePool_.push_back(std::move(inst));
}

void
LoopRuntime::onFunctionEnter(const ir::Function *fn)
{
    // Reuse dead frames above the live prefix: their loopStack
    // capacity survives, so call-heavy programs stop allocating here.
    if (frameDepth_ == frames_.size())
        frames_.emplace_back();
    FrameCtx &frame = frames_[frameDepth_++];
    frame.fp = &plan_.planFor(fn);
    frame.loopStack.clear();
    frame.savings = 0;
}

void
LoopRuntime::onFunctionExit(const ir::Function *fn)
{
    const std::uint64_t now = machine_->cost();
    panicIf(frameDepth_ == 0 || curFrame().fp->fn != fn,
            "function exit does not match runtime frame stack");
    FrameCtx &frame = curFrame();

    // Early returns may leave loop instances open; close them now.
    while (!frame.loopStack.empty()) {
        Instance inst = std::move(frame.loopStack.back());
        frame.loopStack.pop_back(); // pop first: savings go to the parent
        closeInstance(inst, now);
        recycleInstance(std::move(inst));
    }

    std::uint64_t savings = frame.savings;
    --frameDepth_;
    if (frameDepth_ == 0)
        totalSavings_ = savings;
    else
        addSavingsToCurrentContext(savings);
}

void
LoopRuntime::addSavingsToCurrentContext(std::uint64_t s)
{
    if (s == 0)
        return;
    FrameCtx &frame = curFrame();
    if (frame.loopStack.empty())
        frame.savings += s;
    else
        frame.loopStack.back().curIterSavings += s;
}

void
LoopRuntime::onBlockEnter(const BasicBlock *bb)
{
    // The clock excluding bb's charge, and the stack pointer at entry
    // (used for header blocks).
    const std::uint64_t nowBefore =
        machine_->cost() - bb->instructions().size();
    const std::uint64_t sp = machine_->stackPointer();
    const int ord = plan_.headerOrdinal(bb);
    RunLoopInfo *headerRli = ord >= 0 ? &runLoops_[ord] : nullptr;
    const auto &watchPlan = plan_.defWatchPlan();
    auto dw = watchPlan.find(bb);
    const std::vector<PlannedDefWatch> *watches =
        dw != watchPlan.end() ? &dw->second : nullptr;

    FrameCtx &frame = curFrame();
    const std::uint64_t now = nowBefore;

    // Exited loops: pop every instance that does not contain this block.
    while (!frame.loopStack.empty() &&
           !frame.loopStack.back().rli->plan->loop->contains(bb)) {
        Instance inst = std::move(frame.loopStack.back());
        frame.loopStack.pop_back(); // pop first: savings go to the parent
        closeInstance(inst, now);
        recycleInstance(std::move(inst));
    }

    // Loop entry or iteration boundary.
    if (headerRli) {
        if (!frame.loopStack.empty() &&
            frame.loopStack.back().rli == headerRli) {
            iterationBoundary(frame.loopStack.back(), now, sp);
        } else {
            openInstance(headerRli, now, sp);
        }
    }

    // Timestamp watched def sites in this block.  The watch table is
    // shared across configurations; whether a watch applies under this
    // one (eligible loop, slot inside the tracked prefix) is two
    // integer compares.
    if (watches) {
        for (const PlannedDefWatch &w : *watches) {
            RunLoopInfo &wrli = runLoops_[w.loopOrdinal];
            if (wrli.verdict != SerialReason::None ||
                w.regIndex >= wrli.trackedCount)
                continue;
            // Find the instance of the watched loop on this frame's stack.
            for (auto it = frame.loopStack.rbegin();
                 it != frame.loopStack.rend(); ++it) {
                if (it->rli == &wrli) {
                    RegState &rs = it->regs[w.regIndex];
                    rs.lastDefTs = now + w.offsetInBlock;
                    rs.defSeen = true;
                    break;
                }
            }
        }
    }
}

void
LoopRuntime::openInstance(RunLoopInfo *rli, std::uint64_t now,
                          std::uint64_t sp)
{
    FrameCtx &frame = curFrame();
    Instance inst = acquireInstance();
    inst.rli = rli;
    inst.entryTs = now;
    inst.iterStartTs = now;
    inst.spAtIterStart = sp;
    inst.shadow = acquireShadow();
    inst.regs.resize(rli->trackedCount);
    if (oracle_)
        inst.oracle.resize(oracleWatches_[rli->plan->ordinal].slots.size());
    frame.loopStack.push_back(std::move(inst));
    rli->report.instances += 1;
    if (metrics_)
        instancesCtr_->add(1);
}

void
LoopRuntime::registerConflict(Instance &inst)
{
    // A register LCD manifesting at the start of the current iteration.
    inst.anyConflict = true;
    if (metrics_)
        conflictsCtr_->add(1);
    if (cfg_.model == ExecModel::PartialDoAll && !inst.conflictedThisIter) {
        inst.parallelAccum += inst.phaseSlowest;
        inst.phaseSlowest = 0;
        inst.conflictedThisIter = true;
        inst.conflictIters += 1;
        if (metrics_)
            squashesCtr_->add(1);
    }
}

void
LoopRuntime::iterationBoundary(Instance &inst, std::uint64_t now,
                               std::uint64_t sp)
{
    // Close the finishing iteration.
    std::uint64_t serialIterCost = now - inst.iterStartTs;
    std::uint64_t savings = std::min(inst.curIterSavings, serialIterCost);
    std::uint64_t adjIterCost = serialIterCost - savings;
    inst.totalChildSavings += savings;

    inst.iterSlowest = std::max(inst.iterSlowest, adjIterCost);
    inst.phaseSlowest = std::max(inst.phaseSlowest, adjIterCost);

    // Register-LCD handling at the boundary: record producer offsets for
    // the iteration that just ended, and apply dep1 semantics.
    const bool eligible = inst.rli->verdict == SerialReason::None;
    if (eligible && inst.rli->trackedCount != 0) {
        for (RegState &rs : inst.regs) {
            rs.prevDefOffset =
                rs.defSeen ? rs.lastDefTs - inst.iterStartTs : 0;
        }
        if (cfg_.dep == 1) {
            // Lowered to memory: a frequent LCD satisfied by HELIX-style
            // synchronization, or conflicting every iteration otherwise.
            if (cfg_.model == ExecModel::Helix) {
                for (const RegState &rs : inst.regs) {
                    inst.deltaLargest =
                        std::max(inst.deltaLargest, rs.prevDefOffset);
                    inst.maxProdOff =
                        std::max(inst.maxProdOff, rs.prevDefOffset);
                    inst.minConsOff = 0; // the phi consumes at the top
                    inst.anySync = true;
                }
            }
        }
    }

    inst.curIter += 1;
    inst.iterStartTs = now;
    inst.curIterSavings = 0;
    inst.conflictedThisIter = false;
    inst.spAtIterStart = sp;

    // dep1 under a speculative model: the lowered LCD conflicts at the
    // top of every iteration after the first.
    if (eligible && inst.rli->trackedCount != 0 && cfg_.dep == 1 &&
        cfg_.model != ExecModel::Helix && inst.curIter >= 1) {
        registerConflict(inst);
    }
}

void
LoopRuntime::closeInstance(Instance &inst, std::uint64_t now)
{
    RunLoopInfo &rli = *inst.rli;

    if (oracle_) {
        const auto &slots = oracleWatches_[rli.plan->ordinal].slots;
        for (std::size_t i = 0; i < inst.oracle.size(); ++i)
            oracle_->recordInstance(slots[i].watch, inst.oracle[i],
                                    slots[i].depth);
    }

    // The trailing partial iteration (the final header visit that failed
    // the trip condition) plus anything after the last boundary.
    std::uint64_t tailSerial = now - inst.iterStartTs;
    std::uint64_t tailSavings = std::min(inst.curIterSavings, tailSerial);
    std::uint64_t tailAdj = tailSerial - tailSavings;
    inst.totalChildSavings += tailSavings;

    std::uint64_t rawSerial = now - inst.entryTs;
    std::uint64_t adjSerial = rawSerial - inst.totalChildSavings;

    releaseShadow(inst.shadow);
    inst.shadow = nullptr;

    if (metrics_) {
        tripCountHist_->record(inst.curIter);
        // DOALL is all-or-nothing speculation: any conflict discards
        // the whole instance's parallel execution.
        if (cfg_.model == ExecModel::DoAll && inst.anyConflict &&
            rli.verdict == SerialReason::None)
            squashesCtr_->add(1);
    }

    // Apply the execution model.
    bool parallelized = false;
    std::uint64_t parallel = adjSerial;
    if (rli.verdict == SerialReason::None && inst.curIter > 0) {
        switch (cfg_.model) {
          case ExecModel::DoAll:
            if (!inst.anyConflict) {
                parallel = inst.iterSlowest + tailAdj;
                parallelized = true;
            }
            break;
          case ExecModel::PartialDoAll: {
            double conflictFrac =
                static_cast<double>(inst.conflictIters) /
                static_cast<double>(inst.curIter);
            if (conflictFrac <= cfg_.pdoallSerialThreshold) {
                parallel =
                    inst.parallelAccum + inst.phaseSlowest + tailAdj;
                parallelized = true;
            }
            break;
          }
          case ExecModel::Helix: {
            // HELIX: one synchronization per distinct LCD; classic
            // DOACROSS (ablation): a single sync window spanning from
            // the first consumer to the last producer of the iteration.
            std::uint64_t delta = inst.deltaLargest;
            if (cfg_.singleSyncDoacross) {
                delta = 0;
                if (inst.anySync && inst.maxProdOff > inst.minConsOff)
                    delta = inst.maxProdOff - inst.minConsOff;
            }
            std::uint64_t t = inst.iterSlowest +
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

    // Aggregate into the static loop's report.
    LoopReport &rep = rli.report;
    rep.iterations += inst.curIter;
    rep.serialCost += rawSerial;
    rep.adjustedCost += adjSerial;
    rep.parallelCost += parallel;
    rep.memConflicts += inst.memConflicts;
    rep.conflictIterations += inst.conflictIters;
    if (!parallelized)
        rep.serializedInstances += 1;

    if (parallelized)
        covered_.emplace_back(inst.entryTs, now);

    // Everything saved inside this region, plus the model's own saving,
    // flows to the enclosing iteration/function.
    std::uint64_t savingUp = rawSerial - parallel;
    addSavingsToCurrentContext(savingUp);
}

void
LoopRuntime::onPhiResolved(const Instruction *phi, std::uint64_t bits)
{
    const int ord = plan_.headerOrdinal(phi->parent());
    if (ord < 0)
        return;
    RunLoopInfo *rli = &runLoops_[ord];

    // Oracle observation first: it watches computable phis and tracked
    // phis alike, and is independent of this run's verdict (the static
    // claim being checked is config-independent).  Every header visit
    // resolves the phi to the next point of the claimed recurrence,
    // initial value included, so the whole sequence is streamed.
    if (oracle_) {
        const LoopOracleWatches &lw = oracleWatches_[ord];
        auto oi = lw.index.find(phi);
        if (oi != lw.index.end()) {
            FrameCtx &oframe = curFrame();
            if (!oframe.loopStack.empty() &&
                oframe.loopStack.back().rli == rli) {
                Instance &oinst = oframe.loopStack.back();
                OracleCapture::observe(oinst.oracle[oi->second],
                                       lw.slots[oi->second].depth, bits);
            }
        }
    }

    auto idx = rli->plan->trackedIndex.find(phi);
    if (idx == rli->plan->trackedIndex.end() ||
        idx->second >= rli->trackedCount)
        return; // computable or decoupled-reduction phi
    if (rli->verdict != SerialReason::None)
        return; // statically sequential loops are not instrumented

    FrameCtx &frame = curFrame();
    if (frame.loopStack.empty() || frame.loopStack.back().rli != rli)
        return;
    Instance &inst = frame.loopStack.back();

    // The first resolution delivers the pre-loop initial value; only
    // carried values (iteration >= 1) constitute the dependency.
    bool carried = inst.curIter >= 1;

    switch (cfg_.dep) {
      case 0:
      case 1:
        // dep0 loops are statically serial; dep1 is handled at the
        // iteration boundary.
        break;
      case 2: {
        auto &pred = predictors_[phi];
        if (!pred)
            pred = std::make_unique<predict::HybridPredictor>();
        predict::HybridOutcome out = pred->predictAndTrain(bits);
        if (carried) {
            PredStats &ps = predStats_[phi];
            ps.predictions += 1;
            if (!out.anyCorrect) {
                ps.mispredicts += 1;
                if (cfg_.model == ExecModel::Helix) {
                    std::uint64_t off =
                        inst.regs[idx->second].prevDefOffset;
                    inst.deltaLargest = std::max(inst.deltaLargest, off);
                    inst.maxProdOff = std::max(inst.maxProdOff, off);
                    inst.minConsOff = 0;
                    inst.anySync = true;
                } else {
                    registerConflict(inst);
                }
            }
        }
        break;
      }
      case 3:
        break; // perfect prediction: never a dependency
    }
}

void
LoopRuntime::noteMemConflict(Instance &inst, const WriteRec &rec,
                             std::uint64_t consumerOffset)
{
    inst.memConflicts += 1;
    inst.anyConflict = true;
    if (metrics_)
        conflictsCtr_->add(1);
    switch (cfg_.model) {
      case ExecModel::DoAll:
        break; // anyConflict alone serializes the loop
      case ExecModel::PartialDoAll:
        if (!inst.conflictedThisIter) {
            inst.parallelAccum += inst.phaseSlowest;
            inst.phaseSlowest = 0;
            inst.conflictedThisIter = true;
            inst.conflictIters += 1;
            if (metrics_)
                squashesCtr_->add(1);
        }
        break;
      case ExecModel::Helix: {
        std::uint64_t dist = inst.curIter - rec.iter;
        if (rec.offset > consumerOffset) {
            std::uint64_t delta =
                (rec.offset - consumerOffset + dist - 1) / dist;
            inst.deltaLargest = std::max(inst.deltaLargest, delta);
        }
        inst.maxProdOff = std::max(inst.maxProdOff, rec.offset);
        inst.minConsOff = std::min(inst.minConsOff, consumerOffset);
        inst.anySync = true;
        break;
      }
    }
}

void
LoopRuntime::onLoad(const Instruction *instr, std::uint64_t addr)
{
    const std::uint64_t preciseNow = machine_->preciseCost();
    if (metrics_)
        memEventsCtr_->add(1);
    const std::uint64_t granule = addr >> 3;
    for (std::size_t fi = 0; fi < frameDepth_; ++fi) {
        for (Instance &inst : frames_[fi].loopStack) {
            if (inst.rli->verdict != SerialReason::None)
                continue;
            if (interp::Memory::isStackAddress(addr) &&
                addr >= inst.spAtIterStart) {
                continue; // iteration-private frame (cactus stack)
            }
            if (inst.rli->plan->untrackedMem.count(instr))
                continue; // statically proven conflict-free
            const WriteRec *rec = inst.shadow->lookup(granule);
            if (rec && rec->iter < inst.curIter) {
                noteMemConflict(inst, *rec,
                                preciseNow - inst.iterStartTs);
            }
        }
    }
}

void
LoopRuntime::onStore(const Instruction *instr, std::uint64_t addr)
{
    const std::uint64_t preciseNow = machine_->preciseCost();
    if (metrics_)
        memEventsCtr_->add(1);
    const std::uint64_t granule = addr >> 3;
    for (std::size_t fi = 0; fi < frameDepth_; ++fi) {
        for (Instance &inst : frames_[fi].loopStack) {
            if (inst.rli->verdict != SerialReason::None)
                continue;
            if (interp::Memory::isStackAddress(addr) &&
                addr >= inst.spAtIterStart) {
                continue;
            }
            if (inst.rli->plan->untrackedMem.count(instr))
                continue;
            inst.shadow->record(granule, inst.curIter,
                                preciseNow - inst.iterStartTs);
        }
    }
}

ProgramReport
LoopRuntime::finish(const std::string &programName)
{
    return finishAt(programName, machine_->cost());
}

ProgramReport
LoopRuntime::finishAt(const std::string &programName,
                      std::uint64_t serialCost)
{
    panicIf(finished_, "finish called twice");
    panicIf(frameDepth_ != 0, "finish with live frames");
    finished_ = true;

    ProgramReport rep;
    rep.program = programName;
    rep.config = cfg_;
    rep.serialCost = serialCost;
    rep.parallelCost = rep.serialCost - totalSavings_;

    // Coverage: merge the (nested-or-disjoint) covered intervals.
    std::sort(covered_.begin(), covered_.end());
    std::uint64_t coveredCost = 0;
    std::uint64_t hi = 0;
    bool first = true;
    for (const auto &[a, b] : covered_) {
        if (first || a >= hi) {
            coveredCost += b - a;
            hi = b;
            first = false;
        } else if (b > hi) {
            coveredCost += b - hi;
            hi = b;
        }
    }
    rep.coverage = rep.serialCost == 0
        ? 0.0
        : static_cast<double>(coveredCost) /
              static_cast<double>(rep.serialCost);

    // Census.
    Census &c = rep.census;
    for (const RunLoopInfo &rli : runLoops_) {
        const LoopPlan &lplan = *rli.plan;
        if (!lplan.loop)
            continue;
        c.staticLoops += 1;
        if (lplan.loop->isCanonical())
            c.canonicalLoops += 1;
        c.computableIvs += lplan.computablePhis.size();
        c.reductions += lplan.reductions.size();
        if (lplan.hasCalls())
            c.loopsWithCalls += 1;

        const LoopReport &lr = rli.report;
        if (lr.memConflicts > 0 && lr.iterations > 0) {
            double frac = static_cast<double>(lr.conflictIterations) /
                          static_cast<double>(lr.iterations);
            if (frac > 0.05)
                c.frequentMemLcdLoops += 1;
            else
                c.infrequentMemLcdLoops += 1;
        }
    }
    for (const auto &[phi, ps] : predStats_) {
        if (ps.predictions == 0)
            continue;
        double hit = 1.0 - static_cast<double>(ps.mispredicts) /
                               static_cast<double>(ps.predictions);
        if (hit >= cfg_.predictableThreshold)
            c.predictableRegLcds += 1;
        else
            c.unpredictableRegLcds += 1;
    }

    // Per-loop reports (only loops that actually executed).
    for (const RunLoopInfo &rli : runLoops_) {
        LoopReport lr = rli.report;
        for (const auto &[phi, ps] : predStats_) {
            auto ti = rli.plan->trackedIndex.find(phi);
            if (ti != rli.plan->trackedIndex.end() &&
                ti->second < rli.trackedCount) {
                lr.regPredictions += ps.predictions;
                lr.regMispredicts += ps.mispredicts;
            }
        }
        if (lr.instances > 0)
            rep.loops.push_back(std::move(lr));
    }
    std::sort(rep.loops.begin(), rep.loops.end(),
              [](const LoopReport &a, const LoopReport &b) {
                  return a.serialCost > b.serialCost;
              });
    if (metrics_)
        obs::Registry::instance()
            .counter("report.loops_reported")
            .add(rep.loops.size());
    return rep;
}

ProgramReport
runLimitStudy(const ir::Module &mod, const ModulePlan &plan,
              const LPConfig &cfg, const std::string &name,
              OracleCapture *oracle)
{
    std::unique_ptr<LoopRuntime> runtime;
    {
        obs::ScopedPhase phase("plan");
        runtime = std::make_unique<LoopRuntime>(plan, cfg, oracle);
    }
    interp::Machine machine(mod, runtime.get());
    runtime->attach(machine);
    {
        obs::ScopedPhase phase("interpret");
        machine.run();
        phase.addInstructions(machine.cost());
    }
    obs::ScopedPhase phase("report");
    ProgramReport rep = runtime->finish(name);
    LP_LOG_INFO("%s [%s]: speedup %.2fx, coverage %.1f%%, "
                "%zu loops reported",
                name.c_str(), cfg.str().c_str(), rep.speedup(),
                rep.coverage * 100.0, rep.loops.size());
    return rep;
}

} // namespace lp::rt
