/**
 * @file
 * Recording a program's event trace.
 *
 * Sweeps no longer record: a fused batch (rt/batch.hpp) drives every
 * configuration lane from the interpreter directly.  recordTrace()
 * remains for the sweep benchmark's layer probes, which time a
 * recording and the trace walker (trace/batch.hpp) on their own.
 */

#pragma once

#include "guard/budget.hpp"
#include "rt/plan.hpp"
#include "trace/format.hpp"
#include "trace/index.hpp"

namespace lp::rt {

/**
 * Record one run of @p mod into a trace: the machine runs with the
 * recording sink (no tracker) under @p budget.
 */
trace::Trace recordTrace(const ir::Module &mod,
                         const trace::ModuleIndex &index,
                         const ModulePlan &plan,
                         const guard::RunBudget &budget);

} // namespace lp::rt
