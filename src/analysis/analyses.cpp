#include "analysis/analyses.hpp"

#include "analysis/mem_object.hpp"
#include "obs/metrics.hpp"
#include "obs/timer.hpp"

namespace lp::analysis {

FunctionAnalyses::FunctionAnalyses(const ir::Function &f,
                                   const PurityAnalysis &p)
    : fn(f), dt(f), li(f, dt), uses(f), escaped(escapedAllocas(f, uses)),
      purity(p), se(f, li)
{
}

const std::vector<std::unique_ptr<LoopPdg>> &
FunctionAnalyses::pdgs() const
{
    std::call_once(pdgsOnce_, [this] {
        for (const auto &loop : li.loops())
            pdgs_.push_back(std::make_unique<LoopPdg>(loop.get(), *this));
        if (obs::metricsOn())
            obs::Registry::instance()
                .counter("analysis.loop_pdgs")
                .add(pdgs_.size());
    });
    return pdgs_;
}

ModuleAnalyses::ModuleAnalyses(const ir::Module &mod)
    : mod_(mod), purity_(mod)
{
    for (const auto &fn : mod.functions())
        if (fn->entry() != nullptr)
            fns_.push_back(std::make_unique<FunctionAnalyses>(*fn, purity_));
}

const std::vector<LoopVerdictSummary> &
ModuleAnalyses::verdicts() const
{
    std::call_once(verdictsOnce_, [this] {
        obs::ScopedPhase phase("analysis.verdicts");
        for (const auto &fa : fns_) {
            for (const auto &pdg : fa->pdgs()) {
                const Loop *loop = pdg->loop();
                const StaticVerdict &v = pdg->verdict();
                LoopVerdictSummary sum;
                sum.label = loop->label();
                sum.depth = loop->depth();
                sum.canonical = loop->isCanonical();
                sum.kind = v.kind;
                sum.doomedEdges =
                    static_cast<unsigned>(v.doomedEdges.size());
                sum.sccCount = v.sccCount;
                sum.maxSccCost = v.maxSccCost;
                for (unsigned ei : v.doomedEdges) {
                    const DepEdge &e = pdg->edges()[ei];
                    if (e.may)
                        ++sum.doomedMay;
                    if (e.kind == DepKind::Control)
                        ++sum.doomedControl;
                    sum.evidence.push_back(pdg->edgeStr(e));
                }
                verdicts_.push_back(std::move(sum));
            }
        }
    });
    return verdicts_;
}

} // namespace lp::analysis
