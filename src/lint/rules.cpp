/**
 * @file
 * The standard lint rule set.  Rule ids are stable API: tools (CI, the
 * SARIF emitter, the sweep gate) match on them, so renaming one is a
 * breaking change.  See docs/static_analysis.md for the catalog.
 */

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "analysis/ssa_verify.hpp"
#include "lint/engine.hpp"

namespace lp::lint {

using analysis::FunctionAnalyses;

namespace {

/** First instruction of @p bb (for locating block-level findings). */
const ir::Instruction *
firstInstr(const ir::BasicBlock *bb)
{
    if (bb == nullptr || bb->instructions().empty())
        return nullptr;
    return bb->instructions().front().get();
}

Location
locateBlock(const std::string &fn, const ir::BasicBlock *bb)
{
    Location loc = locate(firstInstr(bb));
    loc.function = fn;
    loc.block = bb != nullptr ? bb->name() : "";
    loc.instr.clear();
    return loc;
}

/**
 * LINT_DOM_OPERAND — a non-phi instruction uses a value its definition
 * does not dominate.  The same defect class ir::verifyModuleOrDie now
 * rejects, degraded to a diagnostic so the whole module can be surveyed.
 */
class DomOperandRule : public Rule
{
  public:
    const char *id() const override { return "LINT_DOM_OPERAND"; }
    const char *
    description() const override
    {
        return "operand definition does not dominate its use";
    }
    Severity severity() const override { return Severity::Error; }

    void
    run(const FunctionAnalyses &fa, std::vector<Diagnostic> &out) const override
    {
        for (const ir::BasicBlock *bb : fa.dt.rpo()) {
            std::unordered_set<const ir::Value *> earlier;
            for (const auto &instr : bb->instructions()) {
                if (!instr->isPhi())
                    checkOperands(fa, instr.get(), earlier, out);
                earlier.insert(instr.get());
            }
        }
    }

  private:
    void
    checkOperands(const FunctionAnalyses &fa, const ir::Instruction *instr,
                  const std::unordered_set<const ir::Value *> &earlier,
                  std::vector<Diagnostic> &out) const
    {
        for (const ir::Value *op : instr->operands()) {
            if (op->kind() != ir::ValueKind::Instruction)
                continue;
            const auto *def = static_cast<const ir::Instruction *>(op);
            const ir::BasicBlock *defBB = def->parent();
            bool ok = defBB == instr->parent()
                ? earlier.count(def) != 0
                : fa.dt.reachable(defBB) &&
                      fa.dt.dominates(defBB, instr->parent());
            if (ok)
                continue;
            Diagnostic d;
            d.rule = id();
            d.severity = severity();
            d.loc = locate(instr);
            d.message = "%" + def->name() + " (defined in " +
                        defBB->name() +
                        ") does not dominate this use in " +
                        instr->parent()->name();
            out.push_back(std::move(d));
        }
    }
};

/**
 * LINT_SSA — findings of the analysis-layer SSA verifier (phi incoming
 * edges included), promoted to diagnostics.  Overlaps LINT_DOM_OPERAND
 * on plain operand violations by design: one rule mirrors the verifier,
 * the other pinpoints the offending instruction.
 */
class SsaRule : public Rule
{
  public:
    const char *id() const override { return "LINT_SSA"; }
    const char *
    description() const override
    {
        return "SSA dominance violation reported by the analysis verifier";
    }
    Severity severity() const override { return Severity::Error; }

    void
    run(const FunctionAnalyses &fa, std::vector<Diagnostic> &out) const override
    {
        ir::VerifyResult vr = analysis::verifySSA(fa.fn, fa.dt);
        for (const std::string &msg : vr.errors) {
            Diagnostic d;
            d.rule = id();
            d.severity = severity();
            d.loc.function = fa.fn.name();
            d.message = msg;
            out.push_back(std::move(d));
        }
    }
};

/** LINT_UNREACHABLE — a block no path from entry ever reaches. */
class UnreachableRule : public Rule
{
  public:
    const char *id() const override { return "LINT_UNREACHABLE"; }
    const char *
    description() const override
    {
        return "basic block is unreachable from the function entry";
    }
    Severity severity() const override { return Severity::Warning; }

    void
    run(const FunctionAnalyses &fa, std::vector<Diagnostic> &out) const override
    {
        for (const auto &bb : fa.fn.blocks()) {
            if (fa.dt.reachable(bb.get()))
                continue;
            Diagnostic d;
            d.rule = id();
            d.severity = severity();
            d.loc = locateBlock(fa.fn.name(), bb.get());
            d.message = "block " + bb->name() +
                        " is unreachable from entry";
            out.push_back(std::move(d));
        }
    }
};

/**
 * LINT_DEAD_DEF — an instruction computes a result nothing uses.  Side
 * effects keep Call/CallExt/Alloca out of scope; unreachable blocks are
 * LINT_UNREACHABLE's finding, not this rule's.
 */
class DeadDefRule : public Rule
{
  public:
    const char *id() const override { return "LINT_DEAD_DEF"; }
    const char *
    description() const override
    {
        return "instruction result is never used";
    }
    Severity severity() const override { return Severity::Warning; }

    void
    run(const FunctionAnalyses &fa, std::vector<Diagnostic> &out) const override
    {
        for (const auto &bb : fa.fn.blocks()) {
            if (!fa.dt.reachable(bb.get()))
                continue;
            for (const auto &instr : bb->instructions()) {
                if (instr->name().empty())
                    continue; // no result (store, terminators)
                switch (instr->opcode()) {
                  case ir::Opcode::Call:
                  case ir::Opcode::CallExt:
                  case ir::Opcode::Alloca:
                    continue;
                  default:
                    break;
                }
                if (!fa.uses.users(instr.get()).empty())
                    continue;
                Diagnostic d;
                d.rule = id();
                d.severity = severity();
                d.loc = locate(instr.get());
                d.message = "%" + instr->name() + " (" +
                            ir::opcodeName(instr->opcode()) +
                            ") is never used";
                out.push_back(std::move(d));
            }
        }
    }
};

/**
 * LINT_NON_CANONICAL_LOOP — a natural loop the limit study will skip
 * because it is not in loop-simplified form.  Names the missing
 * property, mirroring Loop::isCanonical.
 */
class NonCanonicalLoopRule : public Rule
{
  public:
    const char *id() const override { return "LINT_NON_CANONICAL_LOOP"; }
    const char *
    description() const override
    {
        return "loop is not in canonical (loop-simplified) form and will "
               "not be instrumented";
    }
    Severity severity() const override { return Severity::Warning; }

    void
    run(const FunctionAnalyses &fa, std::vector<Diagnostic> &out) const override
    {
        for (const auto &loop : fa.li.loops()) {
            if (loop->isCanonical())
                continue;
            std::string why;
            auto add = [&](const char *p) {
                if (!why.empty())
                    why += ", ";
                why += p;
            };
            if (loop->preheader() == nullptr)
                add("no unique preheader");
            if (loop->latches().size() != 1)
                add("multiple latches");
            if (why.empty())
                add("non-dedicated exit block(s)");
            Diagnostic d;
            d.rule = id();
            d.severity = severity();
            d.loc = locateBlock(fa.fn.name(), loop->header());
            d.message = "loop " + loop->label() +
                        " is not canonical: " + why;
            out.push_back(std::move(d));
        }
    }
};

/**
 * LINT_IRREDUCIBLE — a retreating CFG edge whose target does not
 * dominate its source: control flow enters a cycle at more than one
 * point, so no natural loop covers it.
 */
class IrreducibleRule : public Rule
{
  public:
    const char *id() const override { return "LINT_IRREDUCIBLE"; }
    const char *
    description() const override
    {
        return "irreducible control flow (retreating edge into a cycle "
               "with multiple entries)";
    }
    Severity severity() const override { return Severity::Warning; }

    void
    run(const FunctionAnalyses &fa, std::vector<Diagnostic> &out) const override
    {
        std::unordered_map<const ir::BasicBlock *, unsigned> order;
        for (const ir::BasicBlock *bb : fa.dt.rpo())
            order.emplace(bb, static_cast<unsigned>(order.size()));
        for (const ir::BasicBlock *bb : fa.dt.rpo()) {
            for (const ir::BasicBlock *succ : bb->successors()) {
                auto it = order.find(succ);
                if (it == order.end() || it->second > order.at(bb))
                    continue; // forward/cross edge or unreachable target
                if (fa.dt.dominates(succ, bb))
                    continue; // proper back edge of a natural loop
                Diagnostic d;
                d.rule = id();
                d.severity = severity();
                d.loc = locate(bb->terminator());
                d.message = "retreating edge " + bb->name() + " -> " +
                            succ->name() +
                            " does not target a dominating header "
                            "(irreducible cycle)";
                out.push_back(std::move(d));
            }
        }
    }
};

/**
 * LINT_GLOBAL_OOB — a load/store whose address is a constant-offset
 * ptradd chain rooted at a global accesses outside the object.  Every
 * access is 8 bytes wide (the IR's only granularity).
 */
class GlobalOobRule : public Rule
{
  public:
    const char *id() const override { return "LINT_GLOBAL_OOB"; }
    const char *
    description() const override
    {
        return "constant-offset access is out of bounds of its global";
    }
    Severity severity() const override { return Severity::Error; }

    void
    run(const FunctionAnalyses &fa, std::vector<Diagnostic> &out) const override
    {
        for (const ir::BasicBlock *bb : fa.dt.rpo()) {
            for (const auto &instr : bb->instructions()) {
                const ir::Value *ptr = nullptr;
                if (instr->opcode() == ir::Opcode::Load)
                    ptr = instr->operand(0);
                else if (instr->opcode() == ir::Opcode::Store)
                    ptr = instr->operand(1);
                else
                    continue;
                check(instr.get(), ptr, out);
            }
        }
    }

  private:
    void
    check(const ir::Instruction *access, const ir::Value *ptr,
          std::vector<Diagnostic> &out) const
    {
        // Fold the ptradd chain modulo 2^64, as the interpreter adds;
        // bail at the first non-constant offset.
        std::uint64_t off = 0;
        while (ptr->kind() == ir::ValueKind::Instruction) {
            const auto *in = static_cast<const ir::Instruction *>(ptr);
            if (in->opcode() != ir::Opcode::PtrAdd)
                return;
            const ir::Value *step = in->operand(1);
            if (step->kind() != ir::ValueKind::ConstInt)
                return;
            off += static_cast<std::uint64_t>(
                static_cast<const ir::ConstInt *>(step)->value());
            ptr = in->operand(0);
        }
        if (ptr->kind() != ir::ValueKind::Global)
            return;
        const auto *g = static_cast<const ir::Global *>(ptr);
        const std::uint64_t size = g->sizeBytes();
        if (off <= size && size - off >= 8)
            return;
        // The address as a signed displacement: a sum past 2^63 lands
        // below the global.
        const bool below = off >> 63 != 0;
        Diagnostic d;
        d.rule = id();
        d.severity = severity();
        d.loc = locate(access);
        d.message = std::string(ir::opcodeName(access->opcode())) +
                    " at @" + g->name() + (below ? "-" : "+") +
                    std::to_string(below ? 0 - off : off) +
                    " is out of bounds (object is " +
                    std::to_string(size) + " bytes)";
        out.push_back(std::move(d));
    }
};

/**
 * LINT_INFINITE_LOOP — a loop with no exit edge and no ret inside: once
 * entered, execution can never leave it.
 */
class InfiniteLoopRule : public Rule
{
  public:
    const char *id() const override { return "LINT_INFINITE_LOOP"; }
    const char *
    description() const override
    {
        return "loop has no exit edge and no ret; it can never terminate";
    }
    Severity severity() const override { return Severity::Warning; }

    void
    run(const FunctionAnalyses &fa, std::vector<Diagnostic> &out) const override
    {
        for (const auto &loop : fa.li.loops()) {
            if (!loop->exitBlocks().empty())
                continue;
            bool hasRet = false;
            for (const ir::BasicBlock *bb : loop->blocks()) {
                const ir::Instruction *term = bb->terminator();
                if (term != nullptr &&
                    term->opcode() == ir::Opcode::Ret) {
                    hasRet = true;
                    break;
                }
            }
            if (hasRet)
                continue;
            Diagnostic d;
            d.rule = id();
            d.severity = severity();
            d.loc = locateBlock(fa.fn.name(), loop->header());
            d.message = "loop " + loop->label() +
                        " has no exit edge and no ret";
            out.push_back(std::move(d));
        }
    }
};

/**
 * LINT_PDG_MAY_LCD_STORE — the loop's static verdict falls short of
 * DOALL *solely* because of may-aliased stores: every doomed edge in
 * its PDG is a may memory dependence touching a store.  Exactly the
 * loops where sharper alias/subscript reasoning (or the paper's dynamic
 * tracking) pays off, so the finding quantifies static imprecision.
 */
class PdgMayLcdStoreRule : public Rule
{
  public:
    const char *id() const override { return "LINT_PDG_MAY_LCD_STORE"; }
    const char *
    description() const override
    {
        return "only may-aliased stores keep this loop from a DOALL "
               "verdict";
    }
    Severity severity() const override { return Severity::Note; }

    void
    run(const FunctionAnalyses &fa, std::vector<Diagnostic> &out) const override
    {
        for (const auto &pdg : fa.pdgs()) {
            const analysis::StaticVerdict &v = pdg->verdict();
            if (v.kind == analysis::VerdictKind::DoAll ||
                v.doomedEdges.empty())
                continue;
            std::vector<unsigned> stores; // offending store nodes
            bool onlyMayStores = true;
            for (unsigned ei : v.doomedEdges) {
                const analysis::DepEdge &e = pdg->edges()[ei];
                const ir::Instruction *src = pdg->node(e.src);
                const ir::Instruction *dst = pdg->node(e.dst);
                bool touchesStore =
                    src->opcode() == ir::Opcode::Store ||
                    dst->opcode() == ir::Opcode::Store;
                if (e.kind != analysis::DepKind::Memory || !e.may ||
                    !touchesStore) {
                    onlyMayStores = false;
                    break;
                }
                unsigned node = src->opcode() == ir::Opcode::Store
                    ? e.src
                    : e.dst;
                if (std::find(stores.begin(), stores.end(), node) ==
                    stores.end())
                    stores.push_back(node);
            }
            if (!onlyMayStores)
                continue;
            for (unsigned node : stores) {
                Diagnostic d;
                d.rule = id();
                d.severity = severity();
                d.loc = locate(pdg->node(node));
                d.message = "store may carry a cross-iteration "
                            "dependence; it is all that demotes loop " +
                            pdg->loop()->label() + " from doall to " +
                            analysis::verdictName(v.kind);
                out.push_back(std::move(d));
            }
        }
    }
};

/**
 * LINT_PDG_IMPURE_CALL_CYCLE — a dependence cycle (non-trivial SCC with
 * a doomed internal edge) runs through a call the purity analysis
 * cannot clear.  The call's conservative memory edges serialize the
 * whole cycle; making the callee pure (or annotating it) dissolves it.
 * Note-level: several bundled SPEC-like kernels do this on purpose
 * (rand in the placer loop, emit in the tokenizer), so the finding is
 * advisory, not a gate.
 */
class PdgImpureCallCycleRule : public Rule
{
  public:
    const char *id() const override { return "LINT_PDG_IMPURE_CALL_CYCLE"; }
    const char *
    description() const override
    {
        return "impure call participates in a loop-carried dependence "
               "cycle";
    }
    Severity severity() const override { return Severity::Note; }

    void
    run(const FunctionAnalyses &fa, std::vector<Diagnostic> &out) const override
    {
        for (const auto &pdg : fa.pdgs()) {
            const analysis::SccGraph &scc = pdg->condensation();
            for (unsigned s = 0; s < scc.numSccs(); ++s) {
                if (!scc.hasCycle(s) || !pdg->sccDoomed(s))
                    continue;
                for (unsigned node : scc.members(s)) {
                    const ir::Instruction *instr = pdg->node(node);
                    std::string callee;
                    if (instr->opcode() == ir::Opcode::Call &&
                        instr->callee() != nullptr &&
                        fa.purity.purity(instr->callee()) !=
                            analysis::Purity::Pure) {
                        callee = instr->callee()->name();
                    } else if (instr->opcode() == ir::Opcode::CallExt &&
                               instr->externalCallee() != nullptr &&
                               instr->externalCallee()->attr() !=
                                   ir::ExtAttr::Pure) {
                        callee = instr->externalCallee()->name();
                    } else {
                        continue;
                    }
                    Diagnostic d;
                    d.rule = id();
                    d.severity = severity();
                    d.loc = locate(instr);
                    d.message =
                        "call to @" + callee +
                        " is inside a loop-carried dependence cycle of " +
                        pdg->loop()->label() + " (" +
                        std::to_string(scc.members(s).size()) +
                        " instructions); its side effects serialize "
                        "the loop";
                    out.push_back(std::move(d));
                }
            }
        }
    }
};

/**
 * LINT_PDG_REDUCTION_ALIAS — a recognized reduction consumes a load
 * that may alias a store of the same loop.  Decoupling the reduction
 * (running partial sums out of order) would reorder that load against
 * the store, so the reduction class is not actionable as-is.
 */
class PdgReductionAliasRule : public Rule
{
  public:
    const char *id() const override { return "LINT_PDG_REDUCTION_ALIAS"; }
    const char *
    description() const override
    {
        return "reduction update consumes a load that may alias a store "
               "in the same loop";
    }
    Severity severity() const override { return Severity::Warning; }

    void
    run(const FunctionAnalyses &fa, std::vector<Diagnostic> &out) const override
    {
        for (const auto &pdg : fa.pdgs()) {
            const analysis::Loop *loop = pdg->loop();
            for (const analysis::PhiInfo &pi : pdg->headerPhiInfo()) {
                if (pi.cls != analysis::PhiInfo::Cls::Reduction)
                    continue;
                for (const ir::Instruction *ld :
                     updateChainLoads(*pdg, pi.phi, loop)) {
                    int li = pdg->indexOf(ld);
                    if (li < 0 || !hasMayStoreEdge(*pdg, unsigned(li)))
                        continue;
                    Diagnostic d;
                    d.rule = id();
                    d.severity = severity();
                    d.loc = locate(ld);
                    d.message =
                        "reduction %" + pi.phi->name() + " of " +
                        loop->label() + " consumes %" + ld->name() +
                        ", which may alias a store in the same loop; "
                        "decoupling the reduction is unsafe";
                    out.push_back(std::move(d));
                }
            }
        }
    }

  private:
    /** Loads feeding the phi's latch update, via in-loop operand walk. */
    static std::vector<const ir::Instruction *>
    updateChainLoads(const analysis::LoopPdg &pdg,
                     const ir::Instruction *phi, const analysis::Loop *loop)
    {
        std::vector<const ir::Instruction *> loads;
        std::vector<const ir::Instruction *> work;
        std::unordered_set<const ir::Instruction *> seen;
        for (const ir::BasicBlock *latch : loop->latches()) {
            const ir::Value *in = phi->incomingFor(latch);
            if (in != nullptr &&
                in->kind() == ir::ValueKind::Instruction)
                work.push_back(static_cast<const ir::Instruction *>(in));
        }
        while (!work.empty()) {
            const ir::Instruction *instr = work.back();
            work.pop_back();
            if (instr == phi || pdg.indexOf(instr) < 0 ||
                !seen.insert(instr).second)
                continue;
            if (instr->opcode() == ir::Opcode::Load) {
                loads.push_back(instr);
                continue;
            }
            for (const ir::Value *op : instr->operands())
                if (op->kind() == ir::ValueKind::Instruction)
                    work.push_back(
                        static_cast<const ir::Instruction *>(op));
        }
        return loads;
    }

    static bool
    hasMayStoreEdge(const analysis::LoopPdg &pdg, unsigned node)
    {
        for (const analysis::DepEdge &e : pdg.edges()) {
            if (e.kind != analysis::DepKind::Memory || !e.may)
                continue;
            if (e.src != node && e.dst != node)
                continue;
            unsigned other = e.src == node ? e.dst : e.src;
            if (pdg.node(other)->opcode() == ir::Opcode::Store)
                return true;
        }
        return false;
    }
};

/**
 * LINT_PDG_MISSED_COMPUTABLE — a header phi follows a plain linear
 * recurrence (phi +/- invariant per iteration) yet is not classified
 * computable, almost always because the loop is not canonical.  SCEV
 * could regenerate it; the classifier just never got to look.
 */
class PdgMissedComputableRule : public Rule
{
  public:
    const char *id() const override { return "LINT_PDG_MISSED_COMPUTABLE"; }
    const char *
    description() const override
    {
        return "phi follows a linear recurrence but is not classified "
               "computable";
    }
    Severity severity() const override { return Severity::Note; }

    void
    run(const FunctionAnalyses &fa, std::vector<Diagnostic> &out) const override
    {
        for (const auto &pdg : fa.pdgs()) {
            const analysis::Loop *loop = pdg->loop();
            for (const analysis::PhiInfo &pi : pdg->headerPhiInfo()) {
                if (pi.cls != analysis::PhiInfo::Cls::Other)
                    continue;
                if (!linearUpdateEverywhere(fa, pi.phi, loop))
                    continue;
                Diagnostic d;
                d.rule = id();
                d.severity = severity();
                d.loc = locate(pi.phi);
                d.message =
                    "%" + pi.phi->name() + " of " + loop->label() +
                    " advances by a loop-invariant amount every "
                    "iteration but is not classified computable" +
                    (loop->isCanonical() ? "" : " (loop is not canonical)");
                out.push_back(std::move(d));
            }
        }
    }

  private:
    static bool
    linearUpdateEverywhere(const FunctionAnalyses &fa,
                           const ir::Instruction *phi,
                           const analysis::Loop *loop)
    {
        if (loop->latches().empty())
            return false;
        for (const ir::BasicBlock *latch : loop->latches()) {
            const ir::Value *in = phi->incomingFor(latch);
            if (in == nullptr ||
                in->kind() != ir::ValueKind::Instruction)
                return false;
            const auto *upd = static_cast<const ir::Instruction *>(in);
            bool isAdd = upd->opcode() == ir::Opcode::Add;
            bool isSub = upd->opcode() == ir::Opcode::Sub;
            if (!isAdd && !isSub)
                return false;
            const ir::Value *a = upd->operand(0);
            const ir::Value *b = upd->operand(1);
            const ir::Value *step = nullptr;
            if (a == phi)
                step = b;
            else if (b == phi && isAdd)
                step = a;
            if (step == nullptr ||
                !fa.se.isLoopInvariant(step, loop))
                return false;
        }
        return true;
    }
};

} // namespace

std::vector<std::unique_ptr<Rule>>
standardRules()
{
    std::vector<std::unique_ptr<Rule>> rules;
    rules.push_back(std::make_unique<DomOperandRule>());
    rules.push_back(std::make_unique<SsaRule>());
    rules.push_back(std::make_unique<UnreachableRule>());
    rules.push_back(std::make_unique<DeadDefRule>());
    rules.push_back(std::make_unique<NonCanonicalLoopRule>());
    rules.push_back(std::make_unique<IrreducibleRule>());
    rules.push_back(std::make_unique<GlobalOobRule>());
    rules.push_back(std::make_unique<InfiniteLoopRule>());
    rules.push_back(std::make_unique<PdgMayLcdStoreRule>());
    rules.push_back(std::make_unique<PdgImpureCallCycleRule>());
    rules.push_back(std::make_unique<PdgReductionAliasRule>());
    rules.push_back(std::make_unique<PdgMissedComputableRule>());
    return rules;
}

std::vector<RuleMeta>
standardRuleMeta()
{
    std::vector<RuleMeta> meta;
    for (const auto &rule : standardRules())
        meta.push_back({rule->id(), rule->description(), rule->severity()});
    // Oracle rules are emitted by lint::checkOracle, not by lintModule,
    // but share the SARIF rule table.
    meta.push_back({"LINT_ORACLE_COMPUTABLE_DIVERGED",
                    "phi claimed SCEV-computable diverged from its "
                    "add-recurrence at run time",
                    Severity::Error});
    meta.push_back({"LINT_ORACLE_MISSED_IV",
                    "untracked phi behaved like a computable induction "
                    "variable in every observed instance",
                    Severity::Note});
    meta.push_back({"LINT_ORACLE_VERDICT_CONTRADICTED",
                    "loop classified doall statically showed frequent "
                    "memory conflicts at run time",
                    Severity::Error});
    meta.push_back({"LINT_ORACLE_STATIC_CONSERVATIVE",
                    "loop demoted from doall by may-edges only ran "
                    "conflict-free at run time",
                    Severity::Note});
    return meta;
}

} // namespace lp::lint
