#include "rt/replay.hpp"

#include "interp/execute.hpp"
#include "obs/timer.hpp"
#include "trace/recorder.hpp"

namespace lp::rt {

namespace {

/**
 * The Recorder as the interpreter's sink: each event goes to the
 * Recorder with the machine-clock sample taken at the call-back.  The
 * machine has no Instrumentation, so every block entry, phi, load and
 * store fires and no loop event does.
 */
struct RecordingSink
{
    trace::Recorder &r;
    const interp::Machine &m;

    void functionEnter(const ir::Function *fn) { r.functionEnter(fn); }
    void functionExit(const ir::Function *) { r.functionExit(m.cost()); }
    void loopExit(std::uint32_t) {}
    void loopEnter(std::uint32_t) {}
    void loopIterate() {}
    void blockEnter(std::uint32_t b)
    {
        r.blockEnter(m.ids().blocks[b], m.cost(), m.stackPointer());
    }
    void phiResolved(std::uint32_t, std::uint64_t bits)
    {
        r.phiResolved(bits);
    }
    void load(std::uint32_t i, std::uint64_t a)
    {
        r.load(m.ids().memOps[i], a, m.preciseCost());
    }
    void store(std::uint32_t i, std::uint64_t a)
    {
        r.store(m.ids().memOps[i], a, m.preciseCost());
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
    obs::ScopedPhase phase("interp.record");
    trace::Recorder rec(index, headerBlockFlags(plan, index));
    interp::Machine machine(mod);
    machine.setBudget(budget);
    RecordingSink sink{rec, machine};
    machine.run(sink);
    phase.addInstructions(machine.cost());
    return rec.finish(machine.cost());
}

} // namespace lp::rt
