/**
 * @file
 * Results of one instrumented run: per-loop and whole-program speedup,
 * coverage, conflict statistics, and the dependency census that backs
 * Table I.
 */

#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "rt/config.hpp"
#include "rt/plan.hpp"

namespace lp::rt {

/** Aggregated statistics for one static loop across all its instances. */
struct LoopReport
{
    std::string label;        ///< "function.header"
    unsigned depth = 0;       ///< nesting depth (1 = top level)
    SerialReason staticReason = SerialReason::None;

    std::uint64_t instances = 0;
    std::uint64_t iterations = 0;
    std::uint64_t serialCost = 0;     ///< raw dynamic IR instructions
    std::uint64_t adjustedCost = 0;   ///< serial minus inner-loop savings
    std::uint64_t parallelCost = 0;   ///< model cost (min with adjusted)

    std::uint64_t memConflicts = 0;      ///< cross-iteration RAW events
    std::uint64_t regMispredicts = 0;    ///< value-prediction misses
    std::uint64_t regPredictions = 0;    ///< value-prediction attempts
    std::uint64_t conflictIterations = 0;///< PDOALL conflicting iterations
    std::uint64_t serializedInstances = 0; ///< fell back to serial at run time

    /** Per-instance-summed loop speedup (adjusted / parallel). */
    double speedup() const
    {
        return parallelCost == 0
            ? 1.0
            : static_cast<double>(adjustedCost) /
                  static_cast<double>(parallelCost);
    }
};

/** Dependency census counters (paper Table I, measured). */
struct Census
{
    // True static (register) LCDs.
    std::uint64_t computableIvs = 0;   ///< IVs and MIVs (SCEV-computable)
    std::uint64_t reductions = 0;      ///< recognized accumulators
    std::uint64_t predictableRegLcds = 0;   ///< hit rate >= threshold
    std::uint64_t unpredictableRegLcds = 0; ///< the rest
    // True dynamic (memory) LCDs, per static loop with conflicts.
    std::uint64_t frequentMemLcdLoops = 0;   ///< >5% conflicting iterations
    std::uint64_t infrequentMemLcdLoops = 0; ///< some, but <=5%
    // Structural.
    std::uint64_t loopsWithCalls = 0;

    std::uint64_t staticLoops = 0;
    std::uint64_t canonicalLoops = 0;
};

/**
 * What happened to one sweep cell.  Failed cells carry the lp::Error
 * code and message instead of measurements; Skipped marks cells whose
 * program never prepared (so the cell was never attempted at all).
 */
enum class RunStatus
{
    Ok,
    Failed,
    Skipped,
};

/** Stable lowercase name: "ok", "failed", "skipped". */
const char *runStatusName(RunStatus s);

/**
 * One finding of the static-vs-dynamic consistency oracle, already
 * rendered to stable strings (rule id, severity name) so the report
 * layer needs no dependency on lp::lint.
 */
struct OracleFinding
{
    std::string rule;     ///< "LINT_ORACLE_COMPUTABLE_DIVERGED", ...
    std::string severity; ///< "error" | "warning" | "note"
    std::string loop;     ///< "function.header" label
    std::string phi;      ///< phi result name, no '%'
    std::string message;
};

/**
 * The static parallelism classifier's output for one loop, rendered to
 * stable strings (filled by lint::applyVerdictOracle on --lint runs).
 */
struct StaticLoopVerdict
{
    std::string label; ///< "function.header"
    std::string kind;  ///< "doall" | "doacross-sync" | "pipeline" | "sequential"
    unsigned doomedEdges = 0;   ///< carried deps no technique breaks
    unsigned doomedMay = 0;     ///< doomed subset that is only may
    unsigned doomedControl = 0; ///< doomed subset that is control
    unsigned sccCount = 0;      ///< dependence-DAG nodes
    std::uint64_t maxSccCost = 0; ///< heaviest SCC, static IR units
};

/** Whole-program result of one run under one configuration. */
struct ProgramReport
{
    std::string program;
    /**
     * Generator seed for fuzz-produced programs (0 = not generated).
     * Exported in toJson() only when nonzero, so every failure report
     * of a generated program is one-command reproducible
     * (`lp_fuzz --seed=S --minimize`) while hand-written suites keep
     * their historical byte-identical reports.
     */
    std::uint64_t seed = 0;
    LPConfig config;

    RunStatus status = RunStatus::Ok;
    std::string errorCode;    ///< stable code ("LP_FUEL", ...) when !ok()
    std::string errorMessage; ///< rendered error text when !ok()
    unsigned attempts = 1;    ///< guardedRun attempts consumed

    bool ok() const { return status == RunStatus::Ok; }

    std::uint64_t serialCost = 0;   ///< total dynamic IR instructions
    std::uint64_t parallelCost = 0; ///< serial minus accumulated savings

    /** Fraction of dynamic instructions inside parallelized loops. */
    double coverage = 0.0;

    std::vector<LoopReport> loops;
    Census census;

    /// @name Consistency-oracle results (filled by lint::applyOracle)
    /// @{
    bool oracleRan = false;           ///< an OracleCapture was attached
    std::uint64_t oraclePhisChecked = 0;
    std::uint64_t oracleMismatches = 0; ///< error-level findings only
    std::vector<OracleFinding> oracleFindings;
    /// @}

    /// @name Whole-loop verdict oracle (lint::applyVerdictOracle)
    /// @{
    bool staticVerdictsRan = false; ///< verdict cross-check performed
    std::uint64_t verdictContradictions = 0; ///< error-level only
    std::vector<StaticLoopVerdict> staticVerdicts;
    std::vector<OracleFinding> verdictFindings;
    /// @}

    double
    speedup() const
    {
        return parallelCost == 0
            ? 1.0
            : static_cast<double>(serialCost) /
                  static_cast<double>(parallelCost);
    }

    /** Render a human-readable summary (examples, debugging). */
    void print(std::ostream &os, bool perLoop = false) const;

    /**
     * Machine-readable export of everything print() shows and more:
     * config echo, totals, census and per-loop reports.  A pure
     * function of the report: two equal reports export equal bytes.
     */
    obs::Json toJson() const;

    /**
     * The same; the flag is ignored.  perfbench/ still passes the
     * retired process-snapshot flag (always false), so this overload
     * stays until perfbench drops the argument.
     */
    obs::Json toJson(bool) const { return toJson(); }
};

} // namespace lp::rt
