/**
 * @file
 * Identified memory objects and escape analysis.
 *
 * The IR follows the usual "no cross-object pointer arithmetic" rule:
 * a pointer derived from global @a via ptradd stays within @a.  Under that
 * rule, distinct identified objects (globals, allocas) never alias, which
 * lets both the purity analysis and the loop PDG's memory relation (and
 * so the tracker's static filter) reason about accesses the way LLVM's
 * basic alias analysis does for the paper.
 */

#pragma once

#include <unordered_set>

#include "analysis/uses.hpp"
#include "ir/function.hpp"

namespace lp::analysis {

/**
 * Walk ptradd chains back to the underlying object.
 *
 * @return the Global or Alloca instruction the pointer is derived from,
 *         or null when the base is unresolvable (argument, loaded pointer,
 *         phi/select of pointers).
 */
const ir::Value *resolveBaseObject(const ir::Value *ptr);

/**
 * Set of allocas of @p fn whose address escapes: stored to memory, passed
 * to a call, or merged through a phi/select.  Non-escaped allocas cannot
 * be aliased by unresolvable pointers.
 */
std::unordered_set<const ir::Instruction *>
escapedAllocas(const ir::Function &fn, const UseMap &uses);

} // namespace lp::analysis
