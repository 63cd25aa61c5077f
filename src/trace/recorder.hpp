/**
 * @file
 * Live trace recording.
 *
 * A Recorder receives the interpreter's instrumentation events (via a
 * direct, devirtualized sink in interp::Machine) together with the
 * machine clock samples taken at each call-back, and appends the
 * compact event stream described in trace/format.hpp.
 *
 * Clock reconstruction.  The replay side rebuilds the machine clock
 * from the stream itself: every BlockEnter advances it by the block's
 * size, every CallSite of an external call by the callee's declared
 * cost.  The Recorder maintains the same mirror while recording and
 * compares it against the real machine samples at every event; if they
 * diverge (an external implementation called Machine::charge), it
 * emits a Charge event carrying the missing delta before the event at
 * hand.  This keeps out-of-band cost out of the common path while
 * guaranteeing the replayed clock is bit-exact at every point the
 * run-time component samples it.
 *
 * Filtering.  Only events the run-time component consumes are
 * recorded: phi resolutions are kept for loop-header blocks only
 * (LoopRuntime ignores all others), and call sites are kept for
 * external calls only (they carry cost; internal calls contribute
 * through their callee's block stream).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "trace/format.hpp"
#include "trace/index.hpp"

namespace lp::trace {

/** Streams instrumentation events into a Trace. */
class Recorder
{
  public:
    /**
     * @param index id assignment shared with the replay side
     * @param headerBlocks loop-header flags indexed by global block id
     *        (from the compile-time component's loop analysis)
     */
    Recorder(const ModuleIndex &index, std::vector<bool> headerBlocks);

    /// @name Event feed (one call per interpreter call-back).
    /// The cost arguments are the machine-clock samples at the
    /// call-back point: cost() for functionExit, cost() after the
    /// block charge for blockEnter, preciseCost() for load/store.
    /// @{
    void functionEnter(const ir::Function *fn);
    void functionExit(std::uint64_t cost);
    void blockEnter(const ir::BasicBlock *bb, std::uint64_t costAfterCharge,
                    std::uint64_t sp);
    void phiResolved(std::uint64_t bits);
    void load(const ir::Instruction *instr, std::uint64_t addr,
              std::uint64_t preciseCost);
    void store(const ir::Instruction *instr, std::uint64_t addr,
               std::uint64_t preciseCost);
    void callSite(const ir::Instruction *instr);
    /// @}

    /** Finalize: @p finalCost is Machine::cost() after run() returned. */
    Trace finish(std::uint64_t finalCost);

  private:
    void emit(const Event &e);
    /** Emit a Charge if the mirrored clock lags the real @p actual. */
    void syncCost(std::uint64_t actual);
    void memEvent(EventKind kind, const ir::Instruction *instr,
                  std::uint64_t addr, std::uint64_t preciseCost);

    const ModuleIndex &index_;
    std::vector<bool> headerBlocks_; ///< by global block id

    PayloadWriter w_;
    std::uint64_t events_ = 0;
    bool finished_ = false;

    // Mirror of the replay-side clock reconstruction.
    std::uint64_t reconCost_ = 0;
    std::uint64_t curBlockSize_ = 0;
    bool curBlockIsHeader_ = false;
    /** Innermost function's id tables (top = current frame). */
    std::vector<const ModuleIndex::FnInfo *> fnStack_;
    /** Saved (curBlockSize, curBlockIsHeader) of suspended frames. */
    std::vector<std::pair<std::uint64_t, bool>> blockCtxStack_;
};

} // namespace lp::trace
