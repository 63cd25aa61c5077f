#include "analysis/uses.hpp"

#include <algorithm>
#include <utility>

namespace lp::analysis {

UseMap::UseMap(const ir::Function &fn)
{
    std::vector<std::pair<const ir::Value *, const ir::Instruction *>> uses;
    for (const auto &bb : fn.blocks()) {
        for (const auto &instr : bb->instructions()) {
            for (const ir::Value *op : instr->operands())
                if (op->kind() == ir::ValueKind::Instruction)
                    uses.emplace_back(op, instr.get());
        }
    }
    // Stable: each def's users stay in program order.
    std::stable_sort(uses.begin(), uses.end(),
                     [](const auto &a, const auto &b) {
                         return std::less<>()(a.first, b.first);
                     });
    users_.reserve(uses.size());
    for (const auto &[def, user] : uses) {
        if (defs_.empty() || defs_.back() != def) {
            defs_.push_back(def);
            rowStart_.push_back(static_cast<unsigned>(users_.size()));
        }
        users_.push_back(user);
    }
    rowStart_.push_back(static_cast<unsigned>(users_.size()));
}

std::span<const ir::Instruction *const>
UseMap::users(const ir::Value *v) const
{
    auto it = std::lower_bound(defs_.begin(), defs_.end(), v,
                               std::less<>());
    if (it == defs_.end() || *it != v)
        return {};
    const auto i = static_cast<std::size_t>(it - defs_.begin());
    return {users_.data() + rowStart_[i], users_.data() + rowStart_[i + 1]};
}

} // namespace lp::analysis
