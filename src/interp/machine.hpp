/**
 * @file
 * The IR interpreter ("Machine").
 *
 * Executes a finalized module, counting dynamic IR instructions — the
 * paper's proxy for execution time — and firing instrumentation events.
 * Determinism is total: same module, same result, same cost, every run.
 *
 * The Machine never walks the pointer IR while it runs.  Its
 * constructor lowers every function of the module once into flat
 * register code: operands become register indices (constants and
 * global addresses are preloaded into registers after the locals),
 * phis become parallel-copy lists on the CFG edges, and each edge
 * carries what entering its target block costs on the block-granular
 * clock and which call-backs it fires.  Adjacent ops that form the
 * address, compare-branch and latch shapes are fused into
 * superinstructions, each op keeping its slot.  Built with an
 * Instrumentation, the lowering classifies every edge against the loop
 * forest, compiles in only the selected events and runs calls into the
 * unselected one-block leaves inline; the sinks receive dense ids
 * (interp::EventIds), which ids() maps back to the IR.
 *
 * To make that guarantee hold run-to-run (and to let lp::exec run many
 * Machines over one module concurrently), each Machine copies the
 * module's external-function implementations at construction and
 * invokes its private copies.  Stateful externals — the deliberately
 * non-re-entrant rand() LCG — therefore restart from their registered
 * state every run instead of threading hidden state between runs, which
 * would make a sweep's results depend on configuration order.  Globals
 * need no per-run state at all: their segment offsets are assigned
 * immutably at module construction and every Machine maps the segment
 * at the same fixed base.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "guard/budget.hpp"
#include "interp/events.hpp"
#include "interp/memory.hpp"
#include "ir/module.hpp"

namespace lp::interp {

struct LoweredFunction;
struct LoweredOp;

/** Interprets one module. */
class Machine
{
  public:
    /**
     * @param mod finalized, verified module
     * @param listener optional instrumentation sink (not owned)
     */
    explicit Machine(const ir::Module &mod, ExecListener *listener = nullptr);
    /**
     * A Machine whose lowering compiles in @p events (read only while
     * constructing), for run(Sink &).
     */
    Machine(const ir::Module &mod, const Instrumentation &events);
    ~Machine();

    /**
     * Lay out globals and run main(); returns main's result bits.  The
     * listener passed at construction, if any, observes the run.  May
     * be called once per Machine (by either run entry).
     */
    std::uint64_t run();

    /**
     * As run(), firing every event into @p sink as a direct call, so a
     * sink's per-event work inlines into the interpreter loop.  The
     * loop is defined in interp/execute.hpp: include it where a sink
     * type instantiates this entry.  A sink provides
     *
     *   void functionEnter(const ir::Function *fn);
     *   void functionExit(const ir::Function *fn);
     *   void loopExit(std::uint32_t k);
     *   void loopEnter(std::uint32_t loop);
     *   void loopIterate();
     *   void blockEnter(std::uint32_t block);
     *   void phiResolved(std::uint32_t phi, std::uint64_t bits);
     *   void load(std::uint32_t memOp, std::uint64_t addr);
     *   void store(std::uint32_t memOp, std::uint64_t addr);
     *   void callSite(const ir::Instruction *i);
     *
     * and reads the clock samples it needs from the Machine inside the
     * call-back (cost(), blockEntryCost(), preciseCost(),
     * stackPointer()).  Block, phi and memory-op ids are EventIds'; loop
     * ids are the Instrumentation's LoopForest ordinals.  Entering a
     * block fires its edge's loop events (exits first), then
     * blockEnter, then the block's phis in order, before any other
     * event.  Without an Instrumentation no loop event fires and every
     * function entry and exit, block entry, phi, load and store does;
     * loops left open by a return are the sink's to close at
     * functionExit.  With one, functionEnter and functionExit fire for
     * main and the selected functions only, and a call into an
     * unselected one-block leaf runs inline: callSite fires, then
     * nothing until the caller's next event, whose clocks read as
     * after the leaf's return.
     */
    template <typename Sink> std::uint64_t run(Sink &sink);

    /** The dense ids the sink interface passes. */
    const EventIds &ids() const { return ids_; }

    /** Dynamic IR instructions executed so far (the sequential clock). */
    std::uint64_t cost() const { return cost_; }

    /**
     * Instruction-resolution clock: like cost(), but only counting the
     * instructions of the current basic block that have actually executed
     * (cost() charges a whole block at entry, mirroring the paper's
     * per-block counter call-backs).  The runtime uses this to measure
     * producer/consumer offsets within an iteration for the HELIX
     * synchronization-delay model.
     */
    std::uint64_t
    preciseCost() const
    {
        return cost_ - curBlockSize_ + ipInBlock_ + 1;
    }

    /** The clock at the current block's entry, before its charge. */
    std::uint64_t blockEntryCost() const { return cost_ - curBlockSize_; }

    /** Current top of the simulated stack. */
    std::uint64_t stackPointer() const { return sp_; }

    Memory &memory() { return mem_; }
    const ir::Module &module() const { return mod_; }

    /** Charge @p n extra cost units (external function bodies). */
    void charge(std::uint64_t n) { cost_ += n; }

    /** Abort execution when the dynamic instruction count exceeds this. */
    void setCostLimit(std::uint64_t limit) { costLimit_ = limit; }

    /**
     * Apply all of @p b: instruction fuel (as setCostLimit), the
     * wall-clock deadline (armed when run() starts; polled every ~262k
     * instructions so the hot path never reads a clock per block) and
     * the heap cap (enforced by Memory::allocHeap).  The constructor
     * applies guard::defaultBudget(), so LP_BUDGET_* / --budget-* reach
     * every Machine without call-site changes; call this to override.
     * Budget violations throw lp::ResourceExhausted naming the running
     * function and the exhausted resource.
     */
    void setBudget(const guard::RunBudget &b);

  private:
    /**
     * The interpreter loop over the lowered code, templated on the
     * instrumentation sink so every sink's events are direct
     * (inlineable) calls instead of virtual dispatch per event.  The
     * loop is direct-threaded: one handler per LoweredCode, each ending
     * in its own jump to the next op's handler, and a block-entry label
     * that branches, jumps, calls and returns reach.  Calls push a Frame
     * instead of recursing.
     */
    template <typename Sink>
    std::uint64_t execute(const LoweredFunction &main, Sink &sink);
    /**
     * The sink-independent halves of a run: arm the budgets, count the
     * run, lay out globals and find main(); then count the instructions
     * of a run that returned.
     */
    const LoweredFunction &beginRun();
    void endRun();
    /**
     * Place @p fn's register file at offset @p base (growing regs_ as
     * needed, which may move it): locals zeroed, constants loaded.
     */
    std::uint64_t *pushRegisters(const LoweredFunction &fn,
                                 std::size_t base);
    [[noreturn]] void throwFuelExhausted(const ir::Function *fn) const;
    [[noreturn]] static void throwStackOverflow(const ir::Function *callee);
    /**
     * The cold deadline poll, reached every ~262k instructions when a
     * wall-clock deadline is armed (nextPollCost_ is UINT64_MAX
     * otherwise, so the hot path stays one compare).
     */
    void pollBudgets(const ir::Function *fn);

    /** What a Ret restores: the caller and the clock state at the call. */
    struct Frame
    {
        const LoweredFunction *caller; ///< null for main()
        const LoweredOp *resume;       ///< caller op after the Call
                                       ///< (never inside a fused run)
        std::size_t base;              ///< caller's register offset
        std::uint64_t sp;
        std::uint64_t blockSize;
        std::uint64_t ip;
    };

    /**
     * Lower every function once (compiling in @p events when given),
     * copy the external impls and apply the default budget.
     */
    void lower(const Instrumentation *events);

    const ir::Module &mod_;
    ExecListener *listener_ = nullptr;
    Memory mem_;
    std::uint64_t cost_ = 0;
    std::uint64_t costLimit_ = 50'000'000'000ULL;
    std::uint64_t wallLimitMs_ = 0; ///< 0 = no deadline
    std::uint64_t nextPollCost_ = UINT64_MAX; ///< armed by run()
    std::chrono::steady_clock::time_point deadline_{};
    std::uint64_t curBlockSize_ = 0;
    std::uint64_t ipInBlock_ = 0;
    std::uint64_t sp_ = Memory::kStackBase;
    bool ran_ = false;
    /** Lowered code, indexed like the module's functions(). */
    std::vector<LoweredFunction> fns_;
    /** Register stack: each active call's file sits above its caller's. */
    std::vector<std::uint64_t> regs_;
    /** Suspended calls, innermost last; its size is the call depth. */
    std::vector<Frame> frames_;
    /** Argument scratch for external calls (their Impl takes a vector). */
    std::vector<std::uint64_t> extArgs_;
    EventIds ids_;
    /**
     * Per-run copies of external impls (run isolation; see @file),
     * indexed by ExternalFunction::index().  Last member: cold relative
     * to the interpreter state above it.
     */
    std::vector<ir::ExternalFunction::Impl> extImpls_;
};

} // namespace lp::interp
