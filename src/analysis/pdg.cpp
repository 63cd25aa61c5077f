#include "analysis/pdg.hpp"

#include <cstdlib>
#include <numeric>
#include <set>
#include <unordered_set>

#include "analysis/analyses.hpp"
#include "analysis/mem_object.hpp"

namespace lp::analysis {

using ir::Instruction;
using ir::Opcode;
using ir::Value;

const char *
depKindName(DepKind k)
{
    switch (k) {
      case DepKind::Register: return "register";
      case DepKind::Control: return "control";
      case DepKind::Memory: return "memory";
    }
    return "register";
}

const char *
verdictName(VerdictKind k)
{
    switch (k) {
      case VerdictKind::DoAll: return "doall";
      case VerdictKind::DoAcrossSync: return "doacross-sync";
      case VerdictKind::Pipeline: return "pipeline";
      case VerdictKind::Sequential: return "sequential";
    }
    return "sequential";
}

namespace {

bool
isCompare(Opcode op)
{
    switch (op) {
      case Opcode::ICmpEq: case Opcode::ICmpNe: case Opcode::ICmpLt:
      case Opcode::ICmpLe: case Opcode::ICmpGt: case Opcode::ICmpGe:
      case Opcode::FCmpEq: case Opcode::FCmpNe: case Opcode::FCmpLt:
      case Opcode::FCmpLe: case Opcode::FCmpGt: case Opcode::FCmpGe:
        return true;
      default:
        return false;
    }
}

/**
 * Is the continuation decision made by @p term an affine function of
 * the iteration (a countable exit)?  True for `br (icmp iv, inv)`
 * shapes — exactly the exits trip-count logic can regenerate.
 */
bool
countableExit(const Instruction *term, ScalarEvolution &se,
              const Loop *loop)
{
    if (term == nullptr || term->opcode() != Opcode::Br)
        return false;
    const Value *cond = term->operand(0);
    if (cond->kind() != ir::ValueKind::Instruction)
        return true; // constant condition
    if (se.isLoopInvariant(cond, loop))
        return true;
    const auto *ci = static_cast<const Instruction *>(cond);
    if (!isCompare(ci->opcode()))
        return false;
    for (const Value *op : ci->operands())
        if (!se.scevOf(op, loop)->known())
            return false;
    return true;
}

/**
 * Decompose an address SCEV into (constant start offset from @p base,
 * constant step): an AddRec with a constant step, or a loop-invariant
 * address (step 0), whose start is @p base plus constants.  Offsets
 * and steps of 2^62 bytes or more are refused, so they get may edges
 * like any unanalyzable subscript: that keeps the relation's distance
 * arithmetic inside std::int64_t.
 */
bool
decomposeAffine(const Scev *s, const Value *base, std::int64_t &start,
                std::int64_t &step)
{
    const Scev *startExpr = s;
    const Scev *stepExpr = nullptr;
    if (s->isAddRec()) {
        startExpr = s->lhs;
        stepExpr = s->rhs;
        if (stepExpr->isAddRec())
            return false; // higher-order stride
    }
    if (stepExpr) {
        if (!stepExpr->isConst())
            return false;
        step = stepExpr->konst;
    } else {
        step = 0;
    }
    std::int64_t offset = 0;
    int baseSeen = 0;
    auto walk = [&](auto &&self, const Scev *e) -> bool {
        switch (e->kind) {
          case ScevKind::Const:
            return !__builtin_add_overflow(offset, e->konst, &offset);
          case ScevKind::Invariant:
            if (e->value == base) {
                ++baseSeen;
                return true;
            }
            return false;
          case ScevKind::Add:
            return self(self, e->lhs) && self(self, e->rhs);
          default:
            return false;
        }
    };
    if (!walk(walk, startExpr) || baseSeen != 1)
        return false;
    constexpr std::int64_t kFar = std::int64_t{1} << 62;
    if (offset <= -kFar || offset >= kFar || step <= -kFar || step >= kFar)
        return false;
    start = offset;
    return true;
}

/** One participant of a loop's memory relation: a load, a store or a
 *  call to anything not pure. */
struct MemNode
{
    unsigned node = 0; ///< LoopPdg node index
    const Instruction *instr = nullptr;
    bool isCall = false;
    bool reads = false;
    bool writes = false;
    const Value *base = nullptr; ///< identified object, null if unknown
    bool privateBase = false;    ///< non-escaped alloca
    bool affine = false;         ///< address is base + start + step*i
    std::int64_t start = 0;
    std::int64_t step = 0;
};

/** The memory participants of @p loop, in LoopPdg node order. */
std::vector<MemNode>
memNodes(const Loop *loop, const FunctionAnalyses &fa)
{
    std::vector<MemNode> mems;
    unsigned node = 0;
    for (const ir::BasicBlock *bb : loop->blocks()) {
        for (const auto &owned : bb->instructions()) {
            const Instruction *instr = owned.get();
            MemNode m;
            m.node = node++;
            m.instr = instr;
            const Value *addr = nullptr;
            switch (instr->opcode()) {
              case Opcode::Load:
                m.reads = true;
                addr = instr->operand(0);
                break;
              case Opcode::Store:
                m.writes = true;
                addr = instr->operand(1);
                break;
              case Opcode::Call: {
                Purity p = instr->callee() != nullptr
                    ? fa.purity.purity(instr->callee())
                    : Purity::Impure;
                if (p == Purity::Pure)
                    continue;
                m.isCall = true;
                m.reads = true;
                m.writes = p == Purity::Impure;
                break;
              }
              case Opcode::CallExt: {
                ir::ExtAttr a = instr->externalCallee() != nullptr
                    ? instr->externalCallee()->attr()
                    : ir::ExtAttr::Unsafe;
                if (a == ir::ExtAttr::Pure)
                    continue;
                m.isCall = true;
                m.reads = true;
                m.writes = true;
                break;
              }
              default:
                continue;
            }
            if (addr != nullptr) {
                m.base = resolveBaseObject(addr);
                if (m.base != nullptr) {
                    m.privateBase =
                        m.base->kind() == ir::ValueKind::Instruction &&
                        fa.escaped.count(
                            static_cast<const Instruction *>(m.base)) == 0;
                    const Scev *s = fa.se.scevOf(addr, loop);
                    m.affine = s->known() &&
                               decomposeAffine(s, m.base, m.start, m.step);
                }
            }
            mems.push_back(m);
        }
    }
    return mems;
}

/**
 * The memory relation over @p mems: calls @p edge(a, b, carried, may)
 * for each dependence from participant a to participant b (indices
 * into @p mems).
 */
template <typename Edge>
void
forEachMemoryEdge(const std::vector<MemNode> &mems, Edge &&edge)
{
    auto addIntra = [&](unsigned a, unsigned b, bool may) {
        edge(a, b, /*carried=*/false, may);
    };
    auto addCarried = [&](unsigned a, unsigned b, bool may) {
        edge(a, b, /*carried=*/true, may);
    };
    auto addMayBoth = [&](unsigned a, unsigned b) {
        addIntra(a, b, /*may=*/true);
        addCarried(a, b, /*may=*/true);
        addCarried(b, a, /*may=*/true);
    };

    // Self conflicts first: a writer can collide with its own accesses
    // from other iterations (scatter-store WAW, fixed-cell updates,
    // repeated impure calls).  A pairwise-only scan would miss a lone
    // scatter store entirely and claim DOALL where the dynamic tracker
    // sees frequent conflicts.
    for (unsigned k = 0; k < mems.size(); ++k) {
        const MemNode &m = mems[k];
        if (!m.writes)
            continue;
        if (m.isCall) {
            addCarried(k, k, /*may=*/true);
            continue;
        }
        if (m.affine) {
            if (m.step == 0)
                addCarried(k, k, /*may=*/false); // same granule every iter
            else if (std::llabs(m.step) < 8)
                addCarried(k, k, /*may=*/true); // overlapping walk
            // |step| >= 8: every iteration hits a fresh granule.
        } else {
            addCarried(k, k, /*may=*/true); // unanalyzable subscript
        }
    }

    for (unsigned i = 0; i < mems.size(); ++i) {
        for (unsigned j = i + 1; j < mems.size(); ++j) {
            const MemNode &a = mems[i]; // earlier in program order
            const MemNode &b = mems[j];
            if (!a.writes && !b.writes)
                continue;

            if (a.isCall || b.isCall) {
                // A call can touch anything except a provably private
                // (non-escaped) alloca.
                const MemNode &acc = a.isCall ? b : a;
                if (!acc.isCall && acc.privateBase)
                    continue;
                addMayBoth(i, j);
                continue;
            }

            // Plain access pair.
            if (a.base != nullptr && b.base != nullptr) {
                if (a.base != b.base)
                    continue; // distinct identified objects
                if (a.affine && b.affine && a.step == b.step) {
                    std::int64_t delta = a.start - b.start;
                    if (a.step == 0) {
                        if (std::llabs(delta) >= 8)
                            continue; // two fixed, disjoint granules
                        // Same (or overlapping) fixed address every
                        // iteration: intra and carried, both ways.
                        addIntra(i, j, /*may=*/false);
                        addCarried(i, j, /*may=*/false);
                        addCarried(j, i, /*may=*/false);
                        continue;
                    }
                    std::int64_t as = std::llabs(a.step);
                    if (as < 8) {
                        // Walks under one granule per iteration: nearby
                        // iterations of each share granules with the
                        // other, whatever the offset.
                        addMayBoth(i, j);
                        continue;
                    }
                    std::int64_t r = ((delta % as) + as) % as;
                    if (r == 0) {
                        if (delta == 0) {
                            // Same address within one iteration only.
                            addIntra(i, j, /*may=*/false);
                        } else {
                            // b@(i+k) aliases a@i for k = delta/step:
                            // a whole number of strides apart.
                            std::int64_t k = delta / a.step;
                            if (k > 0)
                                addCarried(i, j, /*may=*/false);
                            else
                                addCarried(j, i, /*may=*/false);
                        }
                        continue;
                    }
                    if (r < 8 || as - r < 8) {
                        addMayBoth(i, j); // partial 8-byte overlap
                        continue;
                    }
                    continue; // provably disjoint granule walks
                }
                // Same object, unanalyzable or differently-strided
                // subscripts.
                addMayBoth(i, j);
                continue;
            }

            // At least one unknown base.
            if ((a.base != nullptr && a.privateBase) ||
                (b.base != nullptr && b.privateBase))
                continue; // private alloca vs unknown pointer
            addMayBoth(i, j);
        }
    }
}

/**
 * The memory relation of @p loop: append to @p edges a memory
 * dependence edge (src/dst are LoopPdg node indices) for each pair of
 * its loads, stores and calls to anything not pure, a writer paired
 * with itself included, that may touch one 8-byte granule within an
 * iteration or across iterations.
 */
void
memoryEdges(const Loop *loop, const FunctionAnalyses &fa,
            std::vector<DepEdge> &edges)
{
    const std::vector<MemNode> mems = memNodes(loop, fa);
    forEachMemoryEdge(
        mems, [&](unsigned a, unsigned b, bool carried, bool may) {
            edges.push_back({mems[a].node, mems[b].node, DepKind::Memory,
                             carried, may, /*breakable=*/false});
        });
}

/**
 * Post-dominators of the loop region: loop blocks plus a virtual exit,
 * with the loop's own back edges removed.  Iterative CHK on the
 * edge-reversed region graph rooted at the virtual exit.
 */
class RegionPostDom
{
  public:
    explicit RegionPostDom(const Loop *loop)
    {
        const auto &blocks = loop->blocks();
        const unsigned n = static_cast<unsigned>(blocks.size());
        vexit_ = n;
        for (unsigned i = 0; i < n; ++i)
            idx_[blocks[i]] = i;

        succ_.assign(n + 1, {});
        for (unsigned i = 0; i < n; ++i) {
            bool any = false;
            bool toExit = false;
            for (const ir::BasicBlock *s : blocks[i]->successors()) {
                if (s == loop->header())
                    continue; // removed back edge
                auto it = idx_.find(s);
                if (it != idx_.end()) {
                    succ_[i].push_back(it->second);
                    any = true;
                } else {
                    toExit = true;
                }
            }
            if (toExit || !any)
                succ_[i].push_back(vexit_);
        }

        // Reverse-graph RPO from the virtual exit (DFS postorder,
        // reversed).  pred-of-reversed = succ_ of forward graph.
        std::vector<std::vector<unsigned>> rsucc(n + 1);
        for (unsigned v = 0; v <= n; ++v)
            for (unsigned w : succ_[v])
                rsucc[w].push_back(v);
        std::vector<bool> seen(n + 1, false);
        std::vector<std::pair<unsigned, unsigned>> dfs{{vexit_, 0}};
        seen[vexit_] = true;
        std::vector<unsigned> post;
        while (!dfs.empty()) {
            auto &[v, e] = dfs.back();
            if (e < rsucc[v].size()) {
                unsigned w = rsucc[v][e++];
                if (!seen[w]) {
                    seen[w] = true;
                    dfs.push_back({w, 0});
                }
            } else {
                post.push_back(v);
                dfs.pop_back();
            }
        }
        rpoNum_.assign(n + 1, ~0u);
        rpo_.assign(post.rbegin(), post.rend());
        for (unsigned i = 0; i < rpo_.size(); ++i)
            rpoNum_[rpo_[i]] = i;

        // CHK intersection over the reversed graph.
        ipdom_.assign(n + 1, ~0u);
        ipdom_[vexit_] = vexit_;
        bool changed = true;
        while (changed) {
            changed = false;
            for (unsigned v : rpo_) {
                if (v == vexit_)
                    continue;
                unsigned newIdom = ~0u;
                for (unsigned p : succ_[v]) { // reversed-graph preds
                    if (ipdom_[p] == ~0u)
                        continue;
                    newIdom = newIdom == ~0u ? p
                                             : intersect(newIdom, p);
                }
                if (newIdom != ~0u && ipdom_[v] != newIdom) {
                    ipdom_[v] = newIdom;
                    changed = true;
                }
            }
        }
    }

    unsigned vexit() const { return vexit_; }
    unsigned ipdom(unsigned v) const { return ipdom_[v]; }
    bool reachesExit(unsigned v) const { return ipdom_[v] != ~0u; }
    const std::vector<std::vector<unsigned>> &succ() const { return succ_; }

  private:
    unsigned
    intersect(unsigned a, unsigned b) const
    {
        while (a != b) {
            while (rpoNum_[a] > rpoNum_[b])
                a = ipdom_[a];
            while (rpoNum_[b] > rpoNum_[a])
                b = ipdom_[b];
        }
        return a;
    }

    unsigned vexit_;
    std::unordered_map<const ir::BasicBlock *, unsigned> idx_;
    std::vector<std::vector<unsigned>> succ_;
    std::vector<unsigned> rpo_;
    std::vector<unsigned> rpoNum_;
    std::vector<unsigned> ipdom_;
};

} // namespace

std::vector<PhiInfo>
classifyHeaderPhis(const Loop *loop, ScalarEvolution &se,
                   const UseMap &uses)
{
    std::vector<PhiInfo> out;
    for (const Instruction *phi : loop->headerPhis()) {
        PhiInfo info;
        info.phi = phi;
        if (se.isComputablePhi(phi)) {
            info.cls = PhiInfo::Cls::Computable;
            info.evolution = se.phiEvolution(phi);
            for (const Scev *s = info.evolution; s->isAddRec(); s = s->rhs)
                ++info.addrecDepth;
        } else if (auto red = matchReduction(phi, loop, uses)) {
            info.cls = PhiInfo::Cls::Reduction;
            info.reduction = std::move(*red);
        }
        out.push_back(std::move(info));
    }
    return out;
}

LoopPdg::LoopPdg(const Loop *loop, const FunctionAnalyses &fa)
    : loop_(loop),
      // Header-phi classes first: register-edge breakability reads them.
      phiInfo_(classifyHeaderPhis(loop, fa.se, fa.uses))
{
    collectNodes();
    buildRegisterEdges(fa.uses);
    buildControlEdges(fa.se);
    memoryEdges(loop_, fa, edges_);
    condenseAndClassify();
}

int
LoopPdg::indexOf(const Instruction *instr) const
{
    auto it = index_.find(instr);
    return it == index_.end() ? -1 : static_cast<int>(it->second);
}

void
LoopPdg::collectNodes()
{
    for (const ir::BasicBlock *bb : loop_->blocks()) {
        for (const auto &instr : bb->instructions()) {
            index_.emplace(instr.get(),
                           static_cast<unsigned>(nodes_.size()));
            nodes_.push_back(instr.get());
        }
    }
}

void
LoopPdg::buildRegisterEdges(const UseMap &uses)
{
    const ir::BasicBlock *header = loop_->header();
    for (unsigned di = 0; di < nodes_.size(); ++di) {
        const Instruction *def = nodes_[di];
        for (const Instruction *user : uses.users(def)) {
            auto it = index_.find(user);
            if (it == index_.end())
                continue; // user outside the loop: no node
            if (user->isPhi() && user->parent() == header) {
                // This loop's carried register state: the def reaches
                // the phi around the back edge.  Breakable when the
                // phi is a computable IV/MIV or a decoupled reduction.
                bool breakable = false;
                for (const PhiInfo &pi : phiInfo_) {
                    if (pi.phi == user) {
                        breakable = pi.cls != PhiInfo::Cls::Other;
                        break;
                    }
                }
                edges_.push_back({di, it->second, DepKind::Register,
                                  /*carried=*/true, /*may=*/false,
                                  breakable});
            } else {
                edges_.push_back({di, it->second, DepKind::Register,
                                  /*carried=*/false, /*may=*/false,
                                  /*breakable=*/false});
            }
        }
    }
}

void
LoopPdg::buildControlEdges(ScalarEvolution &se)
{
    const auto &blocks = loop_->blocks();
    RegionPostDom pd(loop_);

    // Intra-iteration control dependence (Ferrante-Ottenstein-Warren):
    // for each region edge A -> B where B does not post-dominate A,
    // every block from B up to (exclusive) ipdom(A) depends on A's
    // branch.
    std::set<std::pair<unsigned, unsigned>> ctrl; // (branch block, dep block)
    for (unsigned a = 0; a < blocks.size(); ++a) {
        if (!pd.reachesExit(a) || blocks[a]->successors().size() < 2)
            continue;
        for (unsigned b : pd.succ()[a]) {
            unsigned runner = b;
            while (runner != pd.ipdom(a) && runner != pd.vexit()) {
                if (!pd.reachesExit(runner))
                    break;
                ctrl.emplace(a, runner);
                runner = pd.ipdom(runner);
            }
        }
    }
    for (const auto &[a, x] : ctrl) {
        const Instruction *term = blocks[a]->terminator();
        auto src = index_.find(term);
        if (src == index_.end())
            continue;
        for (const auto &instr : blocks[x]->instructions()) {
            unsigned dst = index_.at(instr.get());
            if (dst == src->second)
                continue;
            edges_.push_back({src->second, dst, DepKind::Control,
                              /*carried=*/false, /*may=*/false,
                              /*breakable=*/false});
        }
    }

    // Loop-carried control: the branches that decide whether iteration
    // i+1 runs at all — the exiting branches (or, for an exit-free
    // loop, the latch terminators) — control every instruction of the
    // next iteration.  Breakable when the exit is countable.
    std::vector<const Instruction *> deciders;
    for (const ir::BasicBlock *bb : blocks) {
        bool exits = false;
        for (const ir::BasicBlock *s : bb->successors())
            if (!loop_->contains(s))
                exits = true;
        if (exits && bb->terminator() != nullptr)
            deciders.push_back(bb->terminator());
    }
    if (deciders.empty())
        for (const ir::BasicBlock *latch : loop_->latches())
            if (latch->terminator() != nullptr)
                deciders.push_back(latch->terminator());

    for (const Instruction *term : deciders) {
        auto src = index_.find(term);
        if (src == index_.end())
            continue;
        bool breakable = countableExit(term, se, loop_);
        for (unsigned dst = 0; dst < nodes_.size(); ++dst)
            edges_.push_back({src->second, dst, DepKind::Control,
                              /*carried=*/true, /*may=*/false,
                              breakable});
    }
}

std::unordered_set<const Instruction *>
untrackedAccesses(const Loop *loop, const FunctionAnalyses &fa)
{
    const std::vector<MemNode> mems = memNodes(loop, fa);

    // The relation's components (union-find).  raw[i]: a carried edge
    // from a writer to a reader leaves participant i; then, at each
    // component's root, lands somewhere in that component.
    std::vector<unsigned> root(mems.size());
    std::iota(root.begin(), root.end(), 0u);
    auto find = [&](unsigned i) {
        while (root[i] != i)
            i = root[i] = root[root[i]];
        return i;
    };
    std::vector<bool> raw(mems.size(), false);
    forEachMemoryEdge(
        mems, [&](unsigned a, unsigned b, bool carried, bool) {
            root[find(a)] = find(b);
            if (carried && mems[a].writes && mems[b].reads)
                raw[a] = true;
        });
    for (unsigned i = 0; i < mems.size(); ++i)
        if (raw[i])
            raw[find(i)] = true;

    std::unordered_set<const Instruction *> out;
    for (unsigned i = 0; i < mems.size(); ++i)
        if (!mems[i].isCall && !raw[find(i)])
            out.insert(mems[i].instr);
    return out;
}

void
LoopPdg::condenseAndClassify()
{
    std::vector<std::vector<unsigned>> succ(nodes_.size());
    for (const DepEdge &e : edges_)
        succ[e.src].push_back(e.dst);
    scc_ = std::make_unique<SccGraph>(succ);

    auto nodeCost = [](const Instruction *instr) -> std::uint64_t {
        switch (instr->opcode()) {
          case Opcode::CallExt:
            return instr->externalCallee() != nullptr
                ? 1 + instr->externalCallee()->cost()
                : 1;
          case Opcode::Call: {
            std::uint64_t body = 0;
            if (instr->callee() != nullptr)
                for (const auto &bb : instr->callee()->blocks())
                    body += bb->instructions().size();
            return 1 + body;
          }
          default:
            return 1;
        }
    };

    sccCost_.assign(scc_->numSccs(), 0);
    sccDoomed_.assign(scc_->numSccs(), false);
    for (unsigned i = 0; i < nodes_.size(); ++i)
        sccCost_[scc_->sccOf(i)] += nodeCost(nodes_[i]);

    for (unsigned ei = 0; ei < edges_.size(); ++ei) {
        const DepEdge &e = edges_[ei];
        if (!e.doomed())
            continue;
        verdict_.doomedEdges.push_back(ei);
        if (scc_->sccOf(e.src) == scc_->sccOf(e.dst))
            sccDoomed_[scc_->sccOf(e.src)] = true;
    }

    verdict_.sccCount = scc_->numSccs();
    for (std::uint64_t c : sccCost_) {
        verdict_.totalCost += c;
        if (c > verdict_.maxSccCost)
            verdict_.maxSccCost = c;
    }

    if (verdict_.doomedEdges.empty()) {
        verdict_.kind = VerdictKind::DoAll;
        return;
    }
    bool allSyncable = true;
    for (unsigned ei : verdict_.doomedEdges) {
        const DepEdge &e = edges_[ei];
        if (e.may || e.kind == DepKind::Control)
            allSyncable = false;
    }
    if (allSyncable) {
        verdict_.kind = VerdictKind::DoAcrossSync;
        return;
    }
    // A parallel stage is a doomed-free SCC with actual work in it —
    // not just a latch jump or a phi that another stage feeds.
    bool parallelStage = false;
    for (unsigned s = 0; s < scc_->numSccs(); ++s) {
        if (sccDoomed_[s])
            continue;
        for (unsigned v : scc_->members(s)) {
            const Instruction *instr = nodes_[v];
            if (!instr->isTerminator() && !instr->isPhi()) {
                parallelStage = true;
                break;
            }
        }
    }
    verdict_.kind = scc_->numSccs() >= 2 && parallelStage
        ? VerdictKind::Pipeline
        : VerdictKind::Sequential;
}

std::string
LoopPdg::nodeStr(unsigned i) const
{
    const Instruction *instr = nodes_[i];
    if (!instr->name().empty())
        return "%" + instr->name();
    std::string s = ir::opcodeName(instr->opcode());
    if (instr->parent() != nullptr)
        s += "@" + instr->parent()->name();
    return s;
}

std::string
LoopPdg::edgeStr(const DepEdge &e) const
{
    std::string s = nodeStr(e.src) + " -> " + nodeStr(e.dst) + " (";
    s += depKindName(e.kind);
    s += e.carried ? ", carried" : ", intra";
    s += e.may ? ", may" : ", must";
    if (e.breakable)
        s += ", breakable";
    s += ")";
    return s;
}

} // namespace lp::analysis
