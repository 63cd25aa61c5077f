#include "rt/replay.hpp"

#include "interp/execute.hpp"
#include "obs/timer.hpp"
#include "trace/recorder.hpp"

namespace lp::rt {

namespace {

/**
 * The Recorder as the interpreter's sink: each event goes to the
 * Recorder with the machine-clock sample taken at the call-back.
 */
struct RecordingSink
{
    trace::Recorder &r;
    const interp::Machine &m;

    void functionEnter(const ir::Function *fn) { r.functionEnter(fn); }
    void functionExit(const ir::Function *) { r.functionExit(m.cost()); }
    void blockEnter(const ir::BasicBlock *bb, std::uint32_t)
    {
        r.blockEnter(bb, m.cost(), m.stackPointer());
    }
    void phiResolved(const ir::Instruction *, std::uint64_t bits)
    {
        r.phiResolved(bits);
    }
    void load(const ir::Instruction *i, std::uint64_t a)
    {
        r.load(i, a, m.preciseCost());
    }
    void store(const ir::Instruction *i, std::uint64_t a)
    {
        r.store(i, a, m.preciseCost());
    }
    void callSite(const ir::Instruction *i) { r.callSite(i); }
};

/**
 * Loop-header flags by global trace block id, from the compile-time
 * loop analysis.  Header set membership is configuration-independent,
 * so one recording serves every configuration.
 */
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

} // namespace

trace::Trace
recordTrace(const ir::Module &mod, const trace::ModuleIndex &index,
            const ModulePlan &plan, const guard::RunBudget &budget)
{
    obs::ScopedPhase phase("record");
    trace::Recorder rec(index, headerBlockFlags(plan, index));
    interp::Machine machine(mod);
    machine.setBudget(budget);
    RecordingSink sink{rec, machine};
    machine.run(sink, prof::EpochKind::Record);
    phase.addInstructions(machine.cost());
    return rec.finish(machine.cost());
}

} // namespace lp::rt
