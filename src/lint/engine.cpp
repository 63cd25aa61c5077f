#include "lint/engine.hpp"

namespace lp::lint {

const char *const kClassComputable = "computable";
const char *const kClassReduction = "reduction";
const char *const kClassPredictionCandidate = "prediction-candidate";

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Note: return "note";
      case Severity::Warning: return "warning";
      case Severity::Error: return "error";
    }
    return "note";
}

std::string
Location::str() const
{
    std::string out;
    if (!function.empty())
        out += "@" + function;
    if (!block.empty())
        out += (out.empty() ? "" : ":") + block;
    if (!instr.empty())
        out += (out.empty() ? "%" : ":%") + instr;
    if (line != 0) {
        out += " (line " + std::to_string(line);
        if (column != 0)
            out += ", col " + std::to_string(column);
        out += ")";
    }
    return out;
}

std::string
Diagnostic::str() const
{
    std::string out = severityName(severity);
    out += " ";
    out += rule;
    std::string where = loc.str();
    if (!where.empty())
        out += " " + where;
    out += ": " + message;
    return out;
}

Location
locate(const ir::Instruction *instr)
{
    Location loc;
    if (instr == nullptr)
        return loc;
    if (const ir::BasicBlock *bb = instr->parent()) {
        loc.block = bb->name();
        if (bb->parent() != nullptr)
            loc.function = bb->parent()->name();
    }
    loc.instr = instr->name();
    ir::SrcLoc src = instr->srcLoc();
    loc.line = src.line;
    loc.column = src.column;
    return loc;
}

namespace {

/** Append the lint.deps rows of @p fa's loops to @p loops. */
void
renderDeps(const analysis::FunctionAnalyses &fa, obs::Json &loops)
{
    using obs::Json;
    for (const auto &pdg : fa.pdgs()) {
        const analysis::Loop *loop = pdg->loop();
        Json entry = Json::object();
        entry.set("loop", loop->label());
        entry.set("depth", loop->depth());
        entry.set("canonical", loop->isCanonical());

        Json phis = Json::array();
        for (const analysis::PhiInfo &pi : pdg->headerPhiInfo()) {
            Json p = Json::object();
            p.set("name", pi.phi->name());
            switch (pi.cls) {
              case analysis::PhiInfo::Cls::Computable:
                p.set("class", kClassComputable);
                p.set("scev", fa.se.str(pi.evolution));
                p.set("addrec_depth", pi.addrecDepth);
                break;
              case analysis::PhiInfo::Cls::Reduction:
                p.set("class", kClassReduction);
                p.set("kind", analysis::recurKindName(pi.reduction.kind));
                break;
              case analysis::PhiInfo::Cls::Other:
                p.set("class", kClassPredictionCandidate);
                break;
            }
            phis.push(std::move(p));
        }
        entry.set("phis", std::move(phis));
        loops.push(std::move(entry));
    }
}

} // namespace

LintResult
lintModule(const analysis::ModuleAnalyses &analyses, const LintOptions &opts)
{
    static const std::vector<std::unique_ptr<Rule>> rules = standardRules();
    const ir::Module &mod = analyses.module();
    LintResult res;
    res.module = mod.name();
    res.artifact = mod.name();

    obs::Json loops = obs::Json::array();
    for (const auto &fa : analyses.functions()) {
        for (const auto &rule : rules)
            rule->run(*fa, res.diags);
        renderDeps(*fa, loops);
    }

    if (opts.warningsAsErrors)
        for (Diagnostic &d : res.diags)
            if (d.severity == Severity::Warning)
                d.severity = Severity::Error;

    res.deps = obs::Json::object();
    res.deps.set("module", mod.name());
    res.deps.set("loops", std::move(loops));
    return res;
}

LintResult
lintModule(const ir::Module &mod, const LintOptions &opts)
{
    return lintModule(analysis::ModuleAnalyses(mod), opts);
}

} // namespace lp::lint
