#include "analysis/ssa_verify.hpp"

namespace lp::analysis {

ir::VerifyResult
verifySSA(const ir::Function &fn, const DominatorTree &dt)
{
    ir::VerifyResult out;

    auto err = [&](const ir::BasicBlock *bb, const std::string &msg) {
        out.errors.push_back("@" + fn.name() + " " + bb->name() + ": " +
                             msg);
    };

    for (const auto &bb : fn.blocks()) {
        if (!dt.reachable(bb.get()))
            continue;
        // Position of each instruction within the block, for same-block
        // dominance checks.
        std::unordered_map<const ir::Instruction *, unsigned> pos;
        unsigned i = 0;
        for (const auto &instr : bb->instructions())
            pos[instr.get()] = i++;

        for (const auto &instr : bb->instructions()) {
            for (unsigned op = 0; op < instr->numOperands(); ++op) {
                const ir::Value *v = instr->operand(op);
                if (v->kind() != ir::ValueKind::Instruction)
                    continue;
                const auto *def = static_cast<const ir::Instruction *>(v);
                const ir::BasicBlock *defBB = def->parent();
                if (!dt.reachable(defBB)) {
                    err(bb.get(), "use of value from unreachable block");
                    continue;
                }
                const ir::BasicBlock *useBB = instr->isPhi()
                    ? instr->blocks()[op]   // value must reach edge source
                    : bb.get();
                if (defBB == useBB) {
                    if (!instr->isPhi() &&
                        pos.count(def) && pos.at(def) >= pos.at(instr.get())) {
                        err(bb.get(), "use of " + def->name() +
                            " before its definition");
                    }
                } else if (!dt.dominates(defBB, useBB)) {
                    err(bb.get(), "definition of " +
                        (def->name().empty() ? std::string("<tmp>")
                                             : def->name()) +
                        " does not dominate use");
                }
            }
        }
    }
    return out;
}

ir::VerifyResult
verifySSA(const ir::Module &mod)
{
    ir::VerifyResult out;
    for (const auto &fn : mod.functions()) {
        if (fn->blocks().empty())
            continue;
        ir::VerifyResult r = verifySSA(*fn, DominatorTree(*fn));
        out.errors.insert(out.errors.end(), r.errors.begin(),
                          r.errors.end());
    }
    return out;
}

} // namespace lp::analysis
