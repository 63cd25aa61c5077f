/**
 * @file
 * Def-use map.  Our IR stores only use->def edges (operands); analyses that
 * need the reverse direction (reduction chains, escape analysis) build this
 * map once per function.
 */

#pragma once

#include <span>
#include <vector>

#include "ir/function.hpp"

namespace lp::analysis {

/** Reverse (def -> users) map over one function. */
class UseMap
{
  public:
    explicit UseMap(const ir::Function &fn);

    /**
     * Instructions that use instruction @p v as an operand (in program
     * order); empty for any other value (constants, arguments, globals
     * are not recorded).
     */
    std::span<const ir::Instruction *const> users(const ir::Value *v) const;

  private:
    // Compressed rows: defs_ sorted by address, the users of defs_[i]
    // at users_[rowStart_[i] .. rowStart_[i + 1]).  A handful of
    // allocations per function instead of one or more per def.
    std::vector<const ir::Value *> defs_;
    std::vector<unsigned> rowStart_;
    std::vector<const ir::Instruction *> users_;
};

} // namespace lp::analysis
