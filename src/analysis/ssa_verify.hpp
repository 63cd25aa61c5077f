/**
 * @file
 * SSA dominance verification: every use of an instruction result must be
 * dominated by its definition (phi uses checked at the incoming edge).
 * Complements the structural checks in ir/verifier.
 */

#pragma once

#include "analysis/dominators.hpp"
#include "ir/verifier.hpp"

namespace lp::analysis {

/** Verify SSA dominance for one function, @p dt its dominator tree. */
ir::VerifyResult verifySSA(const ir::Function &fn, const DominatorTree &dt);

/** Verify SSA dominance for all functions of a module. */
ir::VerifyResult verifySSA(const ir::Module &mod);

} // namespace lp::analysis
