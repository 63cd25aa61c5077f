/**
 * @file
 * lp::lint — static IR diagnostics over LIR modules.
 *
 * A fixed rule set in the spirit of clang-tidy: rules with stable ids
 * (LINT_*), severities and per-instruction source locations, run over
 * the analysis bundle (analysis::ModuleAnalyses) the limit study itself
 * plans from.  See docs/static_analysis.md for the rule catalog.
 *
 * Unlike ir::verifyModuleOrDie, linting never throws on dirty input:
 * every rule degrades to diagnostics, so a sweep driver can lint a
 * module that would fail verification and quarantine it with the full
 * finding list instead of the first fatal error.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "analysis/analyses.hpp"
#include "ir/module.hpp"
#include "obs/json.hpp"

namespace lp::lint {

/** Finding severity; Error-level findings gate sweeps under --lint. */
enum class Severity {
    Note,
    Warning,
    Error,
};

/** "note" / "warning" / "error" — also the SARIF `level` values. */
const char *severityName(Severity s);

/** Where a finding points (all fields optional; 0 = unknown line/col). */
struct Location
{
    std::string function; ///< IR function name, no '@'
    std::string block;    ///< basic-block label
    std::string instr;    ///< instruction result name, no '%'
    unsigned line = 0;    ///< 1-based .lir line (0 for built modules)
    unsigned column = 0;  ///< 1-based .lir column

    /** "@f:entry:%x (line 4, col 5)" — only what is known. */
    std::string str() const;
};

/** One finding. */
struct Diagnostic
{
    std::string rule; ///< stable "LINT_*" id
    Severity severity;
    Location loc;
    std::string message;

    /** "error LINT_X @f:bb:%v (line N): message" */
    std::string str() const;
};

/** Knobs for one lint run. */
struct LintOptions
{
    /** Promote every Warning finding to Error. */
    bool warningsAsErrors = false;
};

/** lint.deps class names: "computable", "reduction",
 *  "prediction-candidate". */
extern const char *const kClassComputable;
extern const char *const kClassReduction;
extern const char *const kClassPredictionCandidate;

/** Result of linting one module. */
struct LintResult
{
    std::string module;   ///< module name
    std::string artifact; ///< file path when linted from disk, else name
    std::vector<Diagnostic> diags;
    /**
     * lint.deps: the paper's Table-I class of every loop-header phi —
     * computable (SCEV add-recurrence), reduction (recognized
     * accumulator chain) or prediction-candidate (left to the value
     * predictors) — as the loop PDGs classify them:
     * @code
     * {"module": "name",
     *  "loops": [{"loop": "fn.header", "depth": 1, "canonical": true,
     *             "phis": [{"name": "i", "class": "computable",
     *                       "scev": "{0,+,1}<...>", "addrec_depth": 1},
     *                      {"name": "acc", "class": "reduction",
     *                       "kind": "sum"},
     *                      {"name": "p", "class": "prediction-candidate"}]}]}
     * @endcode
     */
    obs::Json deps;

    bool
    hasErrors() const
    {
        for (const Diagnostic &d : diags)
            if (d.severity == Severity::Error)
                return true;
        return false;
    }

    std::size_t
    countAtLeast(Severity s) const
    {
        std::size_t n = 0;
        for (const Diagnostic &d : diags)
            if (static_cast<int>(d.severity) >= static_cast<int>(s))
                ++n;
        return n;
    }
};

/** Base class of all lint rules. */
class Rule
{
  public:
    virtual ~Rule() = default;

    /** Stable "LINT_*" id. */
    virtual const char *id() const = 0;

    /** One-line description (SARIF rule metadata, docs). */
    virtual const char *description() const = 0;

    /** Default severity of this rule's findings. */
    virtual Severity severity() const = 0;

    /**
     * Append findings for one function.  Reads @p fa through const
     * members only (fa.se.isLoopInvariant among them), so rules may run
     * concurrently over one shared bundle.
     */
    virtual void run(const analysis::FunctionAnalyses &fa,
                     std::vector<Diagnostic> &out) const = 0;
};

/** The standard rule set, registration order = report order. */
std::vector<std::unique_ptr<Rule>> standardRules();

/** Names and descriptions of the standard rules (SARIF tool metadata). */
struct RuleMeta
{
    std::string id;
    std::string description;
    Severity severity;
};
std::vector<RuleMeta> standardRuleMeta();

/** Fill loc from an instruction (parent block, name, source position). */
Location locate(const ir::Instruction *instr);

/**
 * Run the standard rules over every function of @p analyses' module and
 * render its lint.deps.  Thread-safe: any number of threads may lint
 * one shared bundle.
 */
LintResult lintModule(const analysis::ModuleAnalyses &analyses,
                      const LintOptions &opts = {});

/** As above, over a bundle built for @p mod (which need not verify). */
LintResult lintModule(const ir::Module &mod, const LintOptions &opts = {});

} // namespace lp::lint
