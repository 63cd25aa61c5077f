#include "trace/recorder.hpp"

#include "support/error.hpp"

namespace lp::trace {

Recorder::Recorder(const ModuleIndex &index,
                   std::vector<bool> headerBlocks)
    : index_(index), headerBlocks_(std::move(headerBlocks))
{
    headerBlocks_.resize(index_.numBlocks(), false);
}

void
Recorder::emit(const Event &e)
{
    w_.event(e);
    ++events_;
}

void
Recorder::syncCost(std::uint64_t actual)
{
    if (actual == reconCost_)
        return;
    panicIf(actual < reconCost_,
            "trace clock mirror ran ahead of the machine clock");
    emit({EventKind::Charge, actual - reconCost_, 0});
    reconCost_ = actual;
}

void
Recorder::functionEnter(const ir::Function *fn)
{
    const ModuleIndex::FnInfo &fi = index_.info(fn);
    blockCtxStack_.emplace_back(curBlockSize_, curBlockIsHeader_);
    fnStack_.push_back(&fi);
    emit({EventKind::FuncEnter, fi.fnId, 0});
}

void
Recorder::functionExit(std::uint64_t cost)
{
    syncCost(cost);
    emit({EventKind::FuncExit, 0, 0});
    panicIf(fnStack_.empty(), "trace function exit without matching enter");
    fnStack_.pop_back();
    curBlockSize_ = blockCtxStack_.back().first;
    curBlockIsHeader_ = blockCtxStack_.back().second;
    blockCtxStack_.pop_back();
}

void
Recorder::blockEnter(const ir::BasicBlock *bb,
                     std::uint64_t costAfterCharge, std::uint64_t sp)
{
    const std::uint64_t size = bb->instructions().size();
    syncCost(costAfterCharge - size);
    reconCost_ = costAfterCharge;
    curBlockSize_ = size;
    const std::uint64_t bid = fnStack_.back()->blockBase + bb->index();
    curBlockIsHeader_ = headerBlocks_[bid];
    if (curBlockIsHeader_)
        emit({EventKind::BlockEnterHeader, bid, sp >> 3});
    else
        emit({EventKind::BlockEnter, bid, 0});
}

void
Recorder::phiResolved(std::uint64_t bits)
{
    if (!curBlockIsHeader_)
        return;
    emit({EventKind::Phi, bits, 0});
}

void
Recorder::memEvent(EventKind kind, const ir::Instruction *instr,
                   std::uint64_t addr, std::uint64_t preciseCost)
{
    const std::uint64_t ip = fnStack_.back()->ipByLocalId[instr->localId()];
    const std::uint64_t reconPrecise =
        reconCost_ - curBlockSize_ + ip + 1;
    if (preciseCost != reconPrecise) {
        panicIf(preciseCost < reconPrecise,
                "trace clock mirror ran ahead of the machine clock");
        emit({EventKind::Charge, preciseCost - reconPrecise, 0});
        reconCost_ += preciseCost - reconPrecise;
    }
    emit({kind, ip, addr >> 3});
}

void
Recorder::load(const ir::Instruction *instr, std::uint64_t addr,
               std::uint64_t preciseCost)
{
    memEvent(EventKind::Load, instr, addr, preciseCost);
}

void
Recorder::store(const ir::Instruction *instr, std::uint64_t addr,
                std::uint64_t preciseCost)
{
    memEvent(EventKind::Store, instr, addr, preciseCost);
}

void
Recorder::callSite(const ir::Instruction *instr)
{
    // Internal calls contribute cost through their callee's blocks; only
    // external calls carry out-of-band cost the replayed clock needs.
    if (instr->opcode() != ir::Opcode::CallExt)
        return;
    const std::uint64_t ip = fnStack_.back()->ipByLocalId[instr->localId()];
    emit({EventKind::CallSite, ip, 0});
    reconCost_ += instr->externalCallee()->cost();
}

Trace
Recorder::finish(std::uint64_t finalCost)
{
    panicIf(finished_, "Recorder::finish called twice");
    finished_ = true;
    syncCost(finalCost);
    Trace t;
    t.payload = w_.takeBytes();
    t.events = events_;
    t.finalCost = finalCost;
    t.numFunctions = index_.numFunctions();
    t.numBlocks = index_.numBlocks();
    return t;
}

} // namespace lp::trace
