#include "rt/plan.hpp"

#include "support/error.hpp"

namespace lp::rt {

using ir::Instruction;
using ir::Opcode;

const char *
serialReasonName(SerialReason r)
{
    switch (r) {
      case SerialReason::None: return "parallel";
      case SerialReason::NonCanonical: return "non-canonical";
      case SerialReason::RegisterLcd: return "register-lcd";
      case SerialReason::CallPolicy: return "call-policy";
      case SerialReason::DynamicPolicy: return "dynamic";
    }
    return "?";
}

ModulePlan::ModulePlan(const ir::Module &mod) : analyses_(mod)
{
    for (const auto &fa : analyses_.functions()) {
        auto fp = std::make_unique<FunctionPlan>();
        fp->fn = &fa->fn;
        buildFunctionPlan(*fp, *fa);
        byFn_[fp->fn] = fp.get();
        plans_.push_back(std::move(fp));
    }

    // Transitive external-call facts (monotone fixpoint over the call
    // graph; used by the fn2 policy check).
    bool changed = true;
    while (changed) {
        changed = false;
        for (auto &fp : plans_) {
            bool unsafe = fp->reachesUnsafeExt;
            bool nonPure = fp->reachesNonPureExt;
            for (const auto &bb : fp->fn->blocks()) {
                for (const auto &instr : bb->instructions()) {
                    if (instr->opcode() == Opcode::CallExt) {
                        auto attr = instr->externalCallee()->attr();
                        nonPure |= attr != ir::ExtAttr::Pure;
                        unsafe |= attr == ir::ExtAttr::Unsafe;
                    } else if (instr->opcode() == Opcode::Call) {
                        const FunctionPlan *callee =
                            byFn_.at(instr->callee());
                        unsafe |= callee->reachesUnsafeExt;
                        nonPure |= callee->reachesNonPureExt;
                    }
                }
            }
            if (unsafe != fp->reachesUnsafeExt ||
                nonPure != fp->reachesNonPureExt) {
                fp->reachesUnsafeExt = unsafe;
                fp->reachesNonPureExt = nonPure;
                changed = true;
            }
        }
    }

    buildSharedRuntimeTables();
}

void
ModulePlan::buildSharedRuntimeTables()
{
    // Ordinals follow the functionPlans()/loopPlans iteration order the
    // runtime uses to build its per-configuration loop table, so the
    // two stay index-compatible by construction.
    for (auto &fp : plans_) {
        for (LoopPlan &lplan : fp->loopPlans) {
            lplan.ordinal = static_cast<unsigned>(loopsByOrdinal_.size());
            loopsByOrdinal_.push_back(&lplan);
            if (lplan.loop)
                headerOrdinal_[lplan.loop->header()] = lplan.ordinal;

            // The maximal tracked list: nonComputable, then reductions
            // demoted under reduc0.  Configurations select a prefix.
            lplan.trackedAll = lplan.nonComputable;
            for (const analysis::ReductionDescriptor &red :
                 lplan.reductions) {
                lplan.trackedAll.push_back(
                    {red.phi, red.chain.back(), true});
            }
            for (unsigned i = 0; i < lplan.trackedAll.size(); ++i)
                lplan.trackedIndex[lplan.trackedAll[i].phi] = i;
        }
    }

    // Def watches over the maximal tracked lists, with the plan-time
    // offsets computed above; resolving them here (instead of per
    // runtime construction) removes a per-cell hash-map rebuild from
    // every sweep worker.
    for (auto &fp : plans_) {
        for (LoopPlan &lplan : fp->loopPlans) {
            if (!lplan.loop)
                continue;
            for (unsigned i = 0; i < lplan.trackedAll.size(); ++i) {
                const TrackedPhi &tp = lplan.trackedAll[i];
                if (!tp.defInstr)
                    continue;
                const ir::BasicBlock *bb = tp.defInstr->parent();
                unsigned offset = 0;
                auto sites = fp->defSites.find(bb);
                panicIf(sites == fp->defSites.end(),
                        "tracked def site missing from the plan");
                for (const DefSite &d : sites->second) {
                    if (d.instr == tp.defInstr) {
                        offset = d.offsetInBlock;
                        break;
                    }
                }
                panicIf(offset == 0,
                        "tracked def site missing from the plan");
                defWatchPlan_[bb].push_back(
                    {tp.defInstr, offset, lplan.ordinal, i});
            }
        }
    }
}

void
ModulePlan::buildFunctionPlan(FunctionPlan &fp,
                              const analysis::FunctionAnalyses &fa)
{
    fp.loopPlans.resize(fa.li.loops().size());
    for (const auto &loopPtr : fa.li.loops()) {
        const analysis::Loop *loop = loopPtr.get();
        LoopPlan &lplan = fp.loopPlans[loop->id()];
        lplan.loop = loop;
        fp.byHeader[loop->header()] = &lplan;

        if (!loop->isCanonical())
            continue; // left unclassified; always sequential

        // Header phis: computable (SCEV) / reduction / tracked.
        for (analysis::PhiInfo &pi :
             analysis::classifyHeaderPhis(loop, fa.se, fa.uses)) {
            switch (pi.cls) {
              case analysis::PhiInfo::Cls::Computable:
                lplan.computablePhis.push_back(pi.phi);
                lplan.computableDepths.push_back(pi.addrecDepth);
                continue;
              case analysis::PhiInfo::Cls::Reduction:
                lplan.reductions.push_back(std::move(pi.reduction));
                continue;
              case analysis::PhiInfo::Cls::Other:
                break;
            }
            const ir::Value *latchVal =
                pi.phi->incomingFor(loop->latches().front());
            const Instruction *def = nullptr;
            if (latchVal->kind() == ir::ValueKind::Instruction) {
                const auto *li = static_cast<const Instruction *>(latchVal);
                if (loop->contains(li->parent()))
                    def = li;
            }
            lplan.nonComputable.push_back({pi.phi, def, false});
        }

        // Statically filtered memory accesses and direct call sites.
        lplan.untrackedMem = analysis::untrackedAccesses(loop, fa);
        for (const ir::BasicBlock *bb : loop->blocks())
            for (const auto &instr : bb->instructions())
                if (instr->opcode() == Opcode::Call ||
                    instr->opcode() == Opcode::CallExt)
                    lplan.callSites.push_back(instr.get());
    }

    // Def sites: for every tracked phi whose carried value is defined by
    // an instruction, the runtime samples the clock when that definition
    // executes (this is how HELIX synchronization latency is measured).
    for (LoopPlan &lplan : fp.loopPlans) {
        for (const TrackedPhi &tp : lplan.nonComputable) {
            if (!tp.defInstr)
                continue;
            const ir::BasicBlock *bb = tp.defInstr->parent();
            unsigned offset = 0;
            for (const auto &instr : bb->instructions()) {
                ++offset;
                if (instr.get() == tp.defInstr)
                    break;
            }
            fp.defSites[bb].push_back({tp.defInstr, offset});
        }
        // Reduction chains can also be demoted to tracked LCDs (reduc0);
        // pre-compute their def sites too.
        for (const analysis::ReductionDescriptor &red : lplan.reductions) {
            const Instruction *def = red.chain.back();
            const ir::BasicBlock *bb = def->parent();
            unsigned offset = 0;
            for (const auto &instr : bb->instructions()) {
                ++offset;
                if (instr.get() == def)
                    break;
            }
            fp.defSites[bb].push_back({def, offset});
        }
    }
}

const FunctionPlan &
ModulePlan::planFor(const ir::Function *fn) const
{
    auto it = byFn_.find(fn);
    panicIf(it == byFn_.end(), "no plan for function @" + fn->name());
    return *it->second;
}

SerialReason
staticVerdict(const LoopPlan &lp, const FunctionPlan &,
              const ModulePlan &mp, const LPConfig &cfg)
{
    if (!lp.loop || !lp.loop->isCanonical())
        return SerialReason::NonCanonical;

    // Register LCDs: with dep0, any non-computable LCD (including
    // reductions demoted by reduc0) forbids parallelization.
    if (cfg.dep == 0) {
        if (!lp.nonComputable.empty())
            return SerialReason::RegisterLcd;
        if (cfg.reduc == 0 && !lp.reductions.empty())
            return SerialReason::RegisterLcd;
    }

    // Call policy.
    for (const ir::Instruction *call : lp.callSites) {
        switch (cfg.fn) {
          case 0:
            return SerialReason::CallPolicy;
          case 1: {
            if (call->opcode() == ir::Opcode::CallExt) {
                if (call->externalCallee()->attr() != ir::ExtAttr::Pure)
                    return SerialReason::CallPolicy;
            } else {
                const ir::Function *callee = call->callee();
                if (mp.analyses().purity().purity(callee) ==
                        analysis::Purity::Impure ||
                    mp.planFor(callee).reachesNonPureExt) {
                    return SerialReason::CallPolicy;
                }
            }
            break;
          }
          case 2: {
            if (call->opcode() == ir::Opcode::CallExt) {
                if (call->externalCallee()->attr() == ir::ExtAttr::Unsafe)
                    return SerialReason::CallPolicy;
            } else if (mp.planFor(call->callee()).reachesUnsafeExt) {
                return SerialReason::CallPolicy;
            }
            break;
          }
          default:
            break; // fn3: everything goes
        }
    }
    return SerialReason::None;
}

} // namespace lp::rt
