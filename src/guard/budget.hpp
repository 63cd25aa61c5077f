/**
 * @file
 * Run budgets (`lp::guard`): bounds one interpreter run must respect.
 *
 * Every interp::Machine picks up defaultBudget() at construction, so
 * budgets apply uniformly to single runs, Study sweeps and the bench
 * harnesses without call-site changes.  Resolution order, matching the
 * lp::exec jobs convention: an explicit setBudgetOverride() (the
 * `--budget-*` flags) wins, then the `LP_BUDGET_*` environment
 * variables, then the built-in defaults.  Invalid environment values
 * warn once and are ignored; invalid flag values throw ParseError.
 *
 *   LP_BUDGET_INSTRUCTIONS  dynamic-IR-instruction fuel
 *                           (default 50e9, the historical cost limit)
 *   LP_BUDGET_WALL_MS       wall-clock deadline per run (0 = none)
 *   LP_BUDGET_HEAP_BYTES    simulated heap cap per run (0 = none)
 *
 * Enforcement lives in interp: fuel and the deadline in Machine's block
 * loop (the deadline is polled every ~262k instructions so the hot path
 * never reads a clock per block), the heap cap in interp::Memory.
 */

#pragma once

#include <cstdint>
#include <string>

namespace lp::guard {

/** Bounds for one Machine::run; 0 means "no bound" for wall/heap. */
struct RunBudget
{
    /** Dynamic IR instruction fuel (the paper's cost unit). */
    std::uint64_t maxInstructions = 50'000'000'000ULL;
    /** Wall-clock deadline per run, in milliseconds; 0 = unlimited. */
    std::uint64_t maxWallMs = 0;
    /** Simulated heap cap per run, in bytes; 0 = unlimited. */
    std::uint64_t maxHeapBytes = 0;

    bool operator==(const RunBudget &o) const = default;
};

/** Override (flags) if set, else LP_BUDGET_* environment, else defaults. */
RunBudget defaultBudget();

/**
 * Process-wide budget override (the `--budget-*` flags).  Quiescent-only:
 * set it before entering parallel regions.
 */
void setBudgetOverride(const RunBudget &b);

/** Drop the override, restoring environment-driven defaults (tests). */
void clearBudgetOverride();

/**
 * Parse one budget value ("12345"), as used by the `--budget-*` flags.
 * @throws ParseError naming @p what for empty, non-numeric, negative or
 *         out-of-range (> 10^18) input — a categorized error, never a
 *         silent 0 or a crash.
 */
std::uint64_t parseBudgetValue(const std::string &what,
                               const std::string &text);

} // namespace lp::guard
