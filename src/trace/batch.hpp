/**
 * @file
 * Threaded-code dispatch table + decode-once trace walker.
 *
 * Sweeps no longer replay traces (a fused batch drives its lanes from
 * the interpreter, rt/batch.hpp); the walker remains for the sweep
 * benchmark's decode probe.  This header provides the two pieces that
 * make decoding a trace and resolving its block-id facts a
 * once-per-*program* cost:
 *
 *  - BatchDispatchTable: the per-block-id facts the replay hot loop
 *    needs (owning function id, instruction count, flat instruction
 *    pointers, pre-resolved external-call charges), lowered from the
 *    ModuleIndex into dense parallel arrays — a threaded-code table
 *    indexed directly by the ids the trace carries, so the per-event
 *    path has no hash probes or virtual calls.
 *
 *  - replayDispatch(): decode the payload exactly once and drive a Sink
 *    with fully-resolved events (instruction pointers, reconstructed
 *    clock / stack-pointer / precise-cost samples).  The walker owns the
 *    structural validation: every malformed or mismatched stream raises
 *    lp::IoError, like a damaged input file.
 *
 * The Sink is a template parameter so the per-event callbacks inline
 * into the decode loop.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/module.hpp"
#include "support/error.hpp"
#include "trace/format.hpp"
#include "trace/index.hpp"

namespace lp::trace {

/**
 * Per-block replay facts flattened into arrays indexed by the dense
 * trace ids, built once per program and shared read-only by every
 * batch.  `instrs`/`callCost` are block-major: block b's instruction i
 * lives at `blocks[b].firstInstr + i`.
 */
struct BatchDispatchTable
{
    struct BlockInfo
    {
        const ir::BasicBlock *bb = nullptr;
        std::uint32_t fnId = 0;      ///< owning function's trace id
        std::uint32_t firstInstr = 0; ///< into instrs / callCost
        std::uint32_t size = 0;       ///< instructions in the block
    };

    std::vector<BlockInfo> blocks;            ///< by global block id
    std::vector<const ir::Function *> functions; ///< by function id
    /** Flat block-major instruction pointers. */
    std::vector<const ir::Instruction *> instrs;
    /**
     * Out-of-band charge of each instruction when it is a call-site
     * event target: ExternalFunction::cost() for CallExt, 0 otherwise.
     * Pre-resolving it here keeps the opcode test and the callee
     * indirection out of the per-event loop.
     */
    std::vector<std::uint64_t> callCost;
};

/** Lower @p index into the flat dispatch table (once per program). */
BatchDispatchTable buildBatchDispatchTable(const ModuleIndex &index);

/**
 * Decode @p t once and feed every event, fully resolved, to @p sink.
 *
 * Sink interface (all costs in dynamic instruction units):
 *
 *   void onFuncEnter(const ir::Function *fn);
 *   void onFuncExit(std::uint64_t now);
 *   void onBlockEnter(std::uint64_t blockId,
 *                     const BatchDispatchTable::BlockInfo &bi,
 *                     std::uint64_t nowBefore, std::uint64_t now,
 *                     std::uint64_t sp);   // sp = 0 for non-headers
 *   void onPhi(const ir::Instruction *phi, std::uint64_t bits);
 *   void onLoad(const ir::Instruction *i, std::uint64_t addr,
 *               std::uint64_t preciseNow);
 *   void onStore(const ir::Instruction *i, std::uint64_t addr,
 *                std::uint64_t preciseNow);
 *
 * Clock reconstruction matches the interpreter's clock exactly: block
 * entry charges the block size, Charge events add out-of-band cost,
 * CallSite events add the pre-resolved external charge, and the final
 * clock is cross-checked against the recording.
 *
 * @throws lp::IoError on any malformed or mismatched stream.
 */
template <class Sink>
void
replayDispatch(const BatchDispatchTable &table, const Trace &t,
               Sink &sink)
{
    /** One suspended or running function activation. */
    struct Frame
    {
        std::uint32_t fnId;
        const BatchDispatchTable::BlockInfo *cur = nullptr;
        std::uint64_t blockSize = 0;
        std::uint32_t phiIdx = 0;
    };
    std::vector<Frame> frames;

    std::uint64_t cost = 0;
    PayloadReader r(t);
    Event e;
    while (r.next(e)) {
        switch (e.kind) {
          case EventKind::FuncEnter: {
            if (e.a >= table.functions.size())
                throw IoError("trace refers to function id " +
                              std::to_string(e.a) +
                              " beyond the module's " +
                              std::to_string(table.functions.size()) +
                              " functions");
            sink.onFuncEnter(table.functions[e.a]);
            frames.push_back({static_cast<std::uint32_t>(e.a)});
            break;
          }
          case EventKind::FuncExit: {
            if (frames.empty())
                throw IoError("trace function exit without a frame");
            sink.onFuncExit(cost);
            frames.pop_back();
            break;
          }
          case EventKind::BlockEnter:
          case EventKind::BlockEnterHeader: {
            if (e.a >= table.blocks.size())
                throw IoError("trace refers to block id " +
                              std::to_string(e.a) +
                              " beyond the module's " +
                              std::to_string(table.blocks.size()) +
                              " blocks");
            const BatchDispatchTable::BlockInfo &bi =
                table.blocks[static_cast<std::size_t>(e.a)];
            if (frames.empty() || bi.fnId != frames.back().fnId)
                throw IoError(
                    "trace block id " + std::to_string(e.a) +
                    " does not belong to the running function");
            Frame &f = frames.back();
            f.cur = &bi;
            f.blockSize = bi.size;
            f.phiIdx = 0;
            cost += f.blockSize;
            sink.onBlockEnter(e.a, bi, cost - f.blockSize, cost,
                              e.kind == EventKind::BlockEnterHeader
                                  ? e.b << 3
                                  : 0);
            break;
          }
          case EventKind::Phi: {
            if (frames.empty() || !frames.back().cur)
                throw IoError("trace phi event outside a block");
            Frame &f = frames.back();
            if (f.phiIdx >= f.cur->size ||
                !table.instrs[f.cur->firstInstr + f.phiIdx]->isPhi())
                throw IoError("trace phi event does not line up with "
                              "the block's phis");
            sink.onPhi(table.instrs[f.cur->firstInstr + f.phiIdx++],
                       e.a);
            break;
          }
          case EventKind::Load:
          case EventKind::Store: {
            if (frames.empty() || !frames.back().cur)
                throw IoError("trace memory event outside a block");
            Frame &f = frames.back();
            if (e.a >= f.cur->size)
                throw IoError("trace memory event offset " +
                              std::to_string(e.a) +
                              " is past the end of its block");
            const ir::Instruction *instr =
                table.instrs[f.cur->firstInstr + e.a];
            const std::uint64_t precise = cost - f.blockSize + e.a + 1;
            if (e.kind == EventKind::Load)
                sink.onLoad(instr, e.b << 3, precise);
            else
                sink.onStore(instr, e.b << 3, precise);
            break;
          }
          case EventKind::Charge:
            cost += e.a;
            break;
          case EventKind::CallSite: {
            if (frames.empty() || !frames.back().cur)
                throw IoError("trace call site outside a block");
            Frame &f = frames.back();
            if (e.a >= f.cur->size)
                throw IoError("trace call site offset " +
                              std::to_string(e.a) +
                              " is past the end of its block");
            cost += table.callCost[f.cur->firstInstr + e.a];
            break;
          }
        }
    }
    if (!frames.empty())
        throw IoError("trace ended with " +
                      std::to_string(frames.size()) +
                      " function frames still open");
    if (cost != t.finalCost)
        throw IoError("replayed clock disagrees with the recording (" +
                      std::to_string(cost) + " vs " +
                      std::to_string(t.finalCost) +
                      "): trace does not match this module");
}

} // namespace lp::trace
