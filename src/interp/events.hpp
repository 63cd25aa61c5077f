/**
 * @file
 * The instrumentation call-back interface.
 *
 * The paper's compile-time component inserts call-backs into the program;
 * the run-time component implements them.  In this reproduction the
 * interpreter plays the role of the instrumented binary: it fires exactly
 * the events those call-backs would deliver — block (and hence loop)
 * boundaries, header-phi values, memory access addresses, call sites and
 * function entry/exit — while the dynamic IR instruction counter advances.
 *
 * A Machine built with an Instrumentation compiles the call-backs into
 * its lowered code the way the paper's passes insert them: loop entry,
 * iteration and exit on the CFG edges that cross loop boundaries, and
 * only the function entries and exits, block entries, phis, loads and
 * stores the plan selects.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "ir/function.hpp"
#include "ir/module.hpp"

namespace lp::interp {

/**
 * Observer of an interpreted execution.  The default implementation
 * ignores everything, so tools subscribe only to what they need.
 */
class ExecListener
{
  public:
    virtual ~ExecListener() = default;

    /** A basic block is entered (cost already includes this block). */
    virtual void onBlockEnter(const ir::BasicBlock *) {}

    /** A phi resolved to @p bits for this visit of its block. */
    virtual void onPhiResolved(const ir::Instruction *, std::uint64_t) {}

    /** A load is about to read @p addr. */
    virtual void onLoad(const ir::Instruction *, std::uint64_t) {}

    /** A store is about to write @p addr. */
    virtual void onStore(const ir::Instruction *, std::uint64_t) {}

    /** A Call or CallExt instruction is about to transfer control. */
    virtual void onCallSite(const ir::Instruction *) {}

    /** A function body was entered. */
    virtual void onFunctionEnter(const ir::Function *) {}

    /** A function body is returning. */
    virtual void onFunctionExit(const ir::Function *) {}
};

/**
 * The dense ids the sink interface passes.  Blocks, phis and memory
 * operations (loads and stores) are each numbered in
 * Module::functions() order, each function's blocks in order and each
 * block's instructions in order.
 */
struct EventIds
{
    EventIds() = default;
    explicit EventIds(const ir::Module &mod);

    std::vector<const ir::BasicBlock *> blocks;  ///< by block id
    std::vector<const ir::Instruction *> phis;   ///< by phi id
    std::vector<const ir::Instruction *> memOps; ///< by memory-op id
    /** Per function (functions() order): its first block, phi and
     *  memory-op id. */
    std::vector<std::uint32_t> blockBase, phiBase, memBase;
};

/**
 * A module's loop forest by dense id: what a lowering classifies CFG
 * edges against.  Loops are numbered densely (the instrumentation's
 * loop ordinals); every loop is a natural loop, so its header
 * dominates its blocks and two loops are nested or disjoint.
 */
struct LoopForest
{
    std::vector<std::int32_t> blockLoop; ///< by block id: innermost, -1 none
    std::vector<std::int32_t> parent;    ///< by loop: enclosing, -1 none
    std::vector<std::uint32_t> depth;    ///< by loop: 1 = outermost
    std::vector<std::uint32_t> header;   ///< by loop: its header's block id
};

/**
 * What a Machine's lowering compiles into its code.  Each CFG edge is
 * classified against @p loops: it leaves k loops (loopExit(k)), then
 * either starts an iteration of the loop whose header it reaches
 * (loopIterate(), a back edge) or enters that loop from outside
 * (loopEnter(ordinal)).  A branch from an inner loop straight to its
 * outer loop's header is loopExit(1) then loopIterate().  The other
 * events fire only where selected, by dense id.
 *
 * A call into an unselected function fires neither functionEnter nor
 * functionExit (main's entry and return always fire).  When such a
 * callee is a leaf of one block that fires nothing — no phi, call,
 * alloca, load or store, and its block neither selected nor in a loop —
 * the lowering runs its body inline in the caller, with the callee's
 * depth check, charge and budget checks where its block entry was.
 */
struct Instrumentation
{
    const LoopForest *loops = nullptr;
    std::vector<bool> functions; ///< functionEnter/Exit, by functions()
    std::vector<bool> blocks;    ///< blockEnter, by block id
    std::vector<bool> phis;      ///< phiResolved, by phi id
    std::vector<bool> memOps;    ///< load / store, by memory-op id
};

} // namespace lp::interp
