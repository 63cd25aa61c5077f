/**
 * @file
 * Per-loop program-dependence graph and the static parallelism verdict.
 *
 * The paper's limit study classifies loop-carried dependences
 * *dynamically*; this is the matching *static* half: for one natural
 * loop, a graph whose nodes are the loop's instructions and whose edges
 * are
 *
 *  - register dependences (SSA def-use, from the use lists),
 *  - control dependences (Ferrante-Ottenstein-Warren over the loop
 *    body's post-dominators, plus the loop-continuation branches), and
 *  - memory dependences (memoryEdges: conservative identified-object
 *    and affine SCEV subscript reasoning, may edges wherever nothing is
 *    provable),
 *
 * each tagged intra-iteration vs loop-carried and must vs may.  Carried
 * edges a known technique can remove — SCEV-computable IVs/MIVs,
 * recognized reductions, affine (countable) exit conditions — are
 * additionally tagged *breakable*; the remaining carried edges are the
 * loop's *doomed* edges, the evidence behind its verdict.
 *
 * Tarjan condensation (analysis/scc.hpp) collapses the graph into the
 * dependence DAG with a static IR cost per SCC — the exact structure a
 * PSDSWPCritic-style pipeline partitioner consumes (ROADMAP item 3).
 *
 * The run-time tracker's static filter is a view of the same memory
 * relation (untrackedAccesses), so the accesses it leaves unwatched are
 * exactly those no carried RAW edge of the PDG reaches.
 *
 * On top sits the four-point verdict lattice:
 *
 *   DoAll         no doomed carried edges at all;
 *   DoAcrossSync  every doomed edge is a must data dependence
 *                 (point-to-point forwardable synchronization);
 *   Pipeline      >= 2 SCCs and at least one SCC free of internal
 *                 doomed edges (a parallelizable / replicable stage);
 *   Sequential    everything else.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "analysis/loop_info.hpp"
#include "analysis/reduction.hpp"
#include "analysis/scc.hpp"
#include "analysis/scev.hpp"
#include "analysis/uses.hpp"
#include "ir/module.hpp"

namespace lp::analysis {

/** What a dependence edge carries. */
enum class DepKind {
    Register, ///< SSA def-use
    Control,  ///< branch decides whether the target executes
    Memory,   ///< load/store/call aliasing
};

/** "register" / "control" / "memory". */
const char *depKindName(DepKind k);

/** One edge of a loop PDG (node indices into LoopPdg). */
struct DepEdge
{
    unsigned src = 0;
    unsigned dst = 0;
    DepKind kind = DepKind::Register;
    bool carried = false;   ///< crosses an iteration boundary
    bool may = false;       ///< not provable, only possible
    /**
     * Carried edges only: a known technique removes the serialization
     * (SCEV-regenerated IV/MIV, decoupled reduction, countable exit).
     */
    bool breakable = false;

    /** Doomed = the carried edges no technique breaks. */
    bool doomed() const { return carried && !breakable; }
};

/** Verdict lattice, strongest first. */
enum class VerdictKind {
    DoAll,
    DoAcrossSync,
    Pipeline,
    Sequential,
};

/** "doall" / "doacross-sync" / "pipeline" / "sequential". */
const char *verdictName(VerdictKind k);

/** The classifier's output for one loop, with its evidence. */
struct StaticVerdict
{
    VerdictKind kind = VerdictKind::DoAll;
    /** Indices into LoopPdg::edges() of every doomed edge. */
    std::vector<unsigned> doomedEdges;
    unsigned sccCount = 0;
    std::uint64_t maxSccCost = 0; ///< heaviest SCC, static IR units
    std::uint64_t totalCost = 0;  ///< whole body, static IR units
};

struct FunctionAnalyses;

/** Table-I register-LCD class of one header phi. */
struct PhiInfo
{
    enum class Cls { Computable, Reduction, Other };

    const ir::Instruction *phi = nullptr;
    Cls cls = Cls::Other;
    const Scev *evolution = nullptr; ///< Computable: the add-recurrence
    unsigned addrecDepth = 0;        ///< Computable: AddRec nesting
    ReductionDescriptor reduction{}; ///< Reduction: the matched chain
};

/**
 * Classify each header phi of @p loop, in Loop::headerPhis() order:
 * computable (SCEV add-recurrence), else a recognized reduction, else
 * Other.  The one classifier behind the plan's phi lists and
 * LoopPdg::headerPhiInfo(); @p se and @p uses belong to the loop's
 * function.
 */
std::vector<PhiInfo> classifyHeaderPhis(const Loop *loop,
                                        ScalarEvolution &se,
                                        const UseMap &uses);

/** The dependence graph of one natural loop. */
class LoopPdg
{
  public:
    /** Build for @p loop from @p fa, its function's analyses. */
    LoopPdg(const Loop *loop, const FunctionAnalyses &fa);

    const Loop *loop() const { return loop_; }

    unsigned numNodes() const
    {
        return static_cast<unsigned>(nodes_.size());
    }

    /** Node @p i: instructions in loop-block program order. */
    const ir::Instruction *node(unsigned i) const { return nodes_[i]; }

    /** Index of @p instr, or -1 when it is not in the loop. */
    int indexOf(const ir::Instruction *instr) const;

    const std::vector<DepEdge> &edges() const { return edges_; }

    /** The SCC condensation over all edges (the dependence DAG). */
    const SccGraph &condensation() const { return *scc_; }

    /** Static IR cost of one SCC (1/instruction + declared call costs). */
    std::uint64_t sccCost(unsigned scc) const { return sccCost_[scc]; }

    /** True when the SCC contains a doomed edge between its members. */
    bool sccDoomed(unsigned scc) const { return sccDoomed_[scc]; }

    const StaticVerdict &verdict() const { return verdict_; }

    /** Header-phi classes, in Loop::headerPhis() order. */
    const std::vector<PhiInfo> &headerPhiInfo() const { return phiInfo_; }

    /** "%a -> store@bb (memory, carried, may)" evidence rendering. */
    std::string edgeStr(const DepEdge &e) const;

    /** Short name of node @p i: "%name" or "opcode@block". */
    std::string nodeStr(unsigned i) const;

  private:
    void collectNodes();
    void buildRegisterEdges(const UseMap &uses);
    void buildControlEdges(ScalarEvolution &se);
    void condenseAndClassify();

    const Loop *loop_;
    std::vector<const ir::Instruction *> nodes_;
    std::unordered_map<const ir::Instruction *, unsigned> index_;
    std::vector<DepEdge> edges_;
    std::vector<PhiInfo> phiInfo_;
    std::unique_ptr<SccGraph> scc_;
    std::vector<std::uint64_t> sccCost_;
    std::vector<bool> sccDoomed_;
    StaticVerdict verdict_;
};

/**
 * The loads and stores of @p loop that need no conflict tracking at its
 * level: those whose component of the loop's memory relation has no
 * carried edge from a writer to a reader, so no RAW can land on them
 * (Section III-A's statically filtered dependences).  WAR and WAW edges
 * do not count: no model serializes on them.
 */
std::unordered_set<const ir::Instruction *>
untrackedAccesses(const Loop *loop, const FunctionAnalyses &fa);

/** Per-loop verdict summary, ready for reports and the oracle
 *  (ModuleAnalyses::verdicts()). */
struct LoopVerdictSummary
{
    std::string label;  ///< "function.header"
    unsigned depth = 0;
    bool canonical = false;
    VerdictKind kind = VerdictKind::DoAll;
    unsigned doomedEdges = 0;
    unsigned doomedMay = 0;     ///< doomed subset that is only may
    unsigned doomedControl = 0; ///< doomed subset that is control
    unsigned sccCount = 0;
    std::uint64_t maxSccCost = 0;
    std::vector<std::string> evidence; ///< rendered doomed edges
};

} // namespace lp::analysis
