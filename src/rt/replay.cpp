#include "rt/replay.hpp"

#include "interp/machine.hpp"
#include "obs/timer.hpp"
#include "trace/recorder.hpp"

namespace lp::rt {

std::vector<bool>
headerBlockFlags(const ModulePlan &plan, const trace::ModuleIndex &index)
{
    std::vector<bool> headers(index.numBlocks(), false);
    for (const auto &fp : plan.functionPlans()) {
        for (const LoopPlan &lplan : fp->loopPlans) {
            if (lplan.loop)
                headers[index.blockId(lplan.loop->header())] = true;
        }
    }
    return headers;
}

ReplayBlockFacts
buildReplayBlockFacts(const ModulePlan &plan,
                      const trace::ModuleIndex &index)
{
    ReplayBlockFacts facts;
    facts.blocks.resize(index.numBlocks());
    for (const auto &fp : plan.functionPlans()) {
        for (const LoopPlan &lplan : fp->loopPlans) {
            if (lplan.loop)
                facts.blocks[index.blockId(lplan.loop->header())]
                    .headerOrdinal =
                    static_cast<std::int32_t>(lplan.ordinal);
        }
    }
    for (const auto &[bb, ws] : plan.defWatchPlan())
        facts.blocks[index.blockId(bb)].watches = &ws;
    return facts;
}

trace::Trace
recordTrace(const ir::Module &mod, const trace::ModuleIndex &index,
            const ModulePlan &plan, const guard::RunBudget &budget)
{
    obs::ScopedPhase phase("record");
    trace::Recorder rec(index, headerBlockFlags(plan, index),
                        budget.maxTraceBytes);
    interp::Machine machine(mod, nullptr);
    machine.setBudget(budget);
    machine.setRecorder(&rec);
    machine.run();
    phase.addInstructions(machine.cost());
    return rec.finish(machine.cost());
}

} // namespace lp::rt
