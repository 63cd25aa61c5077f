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
 * clock.  The sinks still receive the ir:: instructions and blocks the
 * events are about.
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
#include "prof/collector.hpp"

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
     *   void blockEnter(const ir::BasicBlock *bb, std::uint32_t blockId);
     *   void phiResolved(const ir::Instruction *phi, std::uint64_t bits);
     *   void load(const ir::Instruction *i, std::uint64_t addr);
     *   void store(const ir::Instruction *i, std::uint64_t addr);
     *   void callSite(const ir::Instruction *i);
     *
     * and reads the clock samples it needs from the Machine inside the
     * call-back (cost(), blockEntryCost(), preciseCost(),
     * stackPointer()).  blockId numbers the module's blocks densely:
     * Module::functions() in order, each function's blocks in order
     * (trace::ModuleIndex assigns the same ids).  Phis fire right
     * after their block's blockEnter, before any other event.
     *
     * Profiling epochs of the run are charged to @p kind, as @p lanes
     * times the instructions run: a run that drives several
     * configuration lanes does that much lane work.
     */
    template <typename Sink>
    std::uint64_t run(Sink &sink, prof::EpochKind kind,
                      std::uint64_t lanes = 1);

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
     * (inlineable) calls instead of virtual dispatch per event.  Calls
     * push a Frame instead of recursing.
     */
    template <typename Sink>
    std::uint64_t execute(const LoweredFunction &main, Sink &sink);
    /**
     * The sink-independent halves of a run: arm the budgets and the
     * profiler, lay out globals and find main(); then attribute the
     * last epoch and count the run.
     */
    const LoweredFunction &beginRun(prof::EpochKind kind,
                                    std::uint64_t lanes);
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
     * The unified cold poll, reached every ~262k instructions when a
     * wall-clock deadline is armed or profiling is on (nextPollCost_ is
     * UINT64_MAX otherwise, so the hot path stays one compare).  It
     * attributes the elapsed epoch to the profiler, then checks the
     * deadline — profiling an extra concern into an existing poll
     * instead of adding a branch of its own.
     */
    void pollBudgets(const ir::Function *fn);
    /** Attribute instructions/wall-ns since the last epoch mark. */
    void flushEpoch();

    /** What a Ret restores: the caller and the clock state at the call. */
    struct Frame
    {
        const LoweredFunction *caller; ///< null for main()
        const LoweredOp *resume;       ///< caller op after the Call
        std::size_t base;              ///< caller's register offset
        std::uint64_t sp;
        std::uint64_t blockSize;
        std::uint64_t ip;
    };

    const ir::Module &mod_;
    ExecListener *listener_;
    Memory mem_;
    std::uint64_t cost_ = 0;
    std::uint64_t costLimit_ = 50'000'000'000ULL;
    std::uint64_t wallLimitMs_ = 0; ///< 0 = no deadline
    std::uint64_t nextPollCost_ = UINT64_MAX; ///< armed by run()
    std::chrono::steady_clock::time_point deadline_{};
    bool profiling_ = false; ///< sampled once per run()
    prof::EpochKind epochKind_ = prof::EpochKind::Interp;
    std::uint64_t epochLanes_ = 1;
    std::uint64_t epochStartCost_ = 0;
    std::chrono::steady_clock::time_point epochStartTime_{};
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
    /**
     * Per-run copies of external impls (run isolation; see @file),
     * indexed by ExternalFunction::index().  Last member: cold relative
     * to the interpreter state above it.
     */
    std::vector<ir::ExternalFunction::Impl> extImpls_;
};

} // namespace lp::interp
