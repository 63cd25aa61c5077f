#include "fuzz/spec.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <tuple>
#include <unordered_map>

#include "interp/machine.hpp"
#include "lint/engine.hpp"
#include "lint/oracle.hpp"
#include "predict/predictor.hpp"

namespace lp::fuzz {

using ir::Instruction;

/** One dynamic loop instance's record. */
struct SpecEvaluator::Instance
{
    /** A tracked phi in this instance. */
    struct Phi
    {
        /** Its definition's offset in each completed iteration (0 when
         *  it did not execute there). */
        std::vector<std::uint64_t> producerOffsets;
        std::uint64_t predictions = 0; ///< carried values predicted
        std::vector<std::uint64_t> missedIters; ///< mispredicted ones
    };

    /** A cross-iteration memory RAW. */
    struct Raw
    {
        std::uint64_t producerIter, producerOffset;
        std::uint64_t consumerIter, consumerOffset;
        const Instruction *store, *load;
    };

    unsigned ordinal = 0; ///< LoopPlan::ordinal
    /** The innermost instance open when this one opened (-1 = none),
     *  and its iteration then. */
    std::int64_t parent = -1;
    std::uint64_t parentIter = 0;
    /** starts[k] = the clock at iteration k's header visit; the last
     *  one starts the trailing partial iteration. */
    std::vector<std::uint64_t> starts;
    std::uint64_t exit = 0; ///< the clock when it closed
    std::vector<Raw> raws;
    std::vector<Phi> phis; ///< by index into LoopPlan::trackedAll
};

/**
 * The listener that records one run: the open instances of every
 * frame, their in-flight state (last writes, this iteration's
 * definitions, watched values), and each instance's record.
 */
class SpecEvaluator::Recorder final : public interp::ExecListener
{
  public:
    explicit Recorder(SpecEvaluator &out) : out_(out), plan_(out.plan_)
    {
        // The oracle watches every I64/Ptr header phi: the SCEV-claimed
        // ones at their claimed depth, the tracked LCDs at depth 1,
        // unclaimed.
        watches_.resize(plan_.numLoops());
        for (unsigned ord = 0; ord < plan_.numLoops(); ++ord) {
            const rt::LoopPlan &lp = plan_.loopByOrdinal(ord);
            auto watch = [&](const Instruction *phi, unsigned depth,
                             bool claimed) {
                if (phi->type() != ir::Type::I64 &&
                    phi->type() != ir::Type::Ptr)
                    return;
                unsigned w = out_.cap_.addWatch(
                    {phi, lp.loop->label(), phi->name(), depth, claimed});
                watches_[ord].push_back({phi, w, depth});
            };
            for (unsigned i = 0; i < lp.computablePhis.size(); ++i)
                watch(lp.computablePhis[i], lp.computableDepths[i], true);
            for (const rt::TrackedPhi &tp : lp.nonComputable)
                watch(tp.phi, 1, false);
        }
        out_.cap_.seal();
    }

    /** Bind the machine whose clocks and stack pointer we sample. */
    void attach(const interp::Machine &m) { m_ = &m; }

    void
    onFunctionEnter(const ir::Function *) override
    {
        frames_.push_back(open_.size());
    }

    void
    onFunctionExit(const ir::Function *) override
    {
        // A return closes the instances its activation left open.
        while (open_.size() > frames_.back())
            close(m_->cost());
        frames_.pop_back();
    }

    void
    onBlockEnter(const ir::BasicBlock *bb) override
    {
        const std::uint64_t now = m_->blockEntryCost();
        const std::size_t lo = frames_.back();
        while (open_.size() > lo && !loopOf(open_.back())->contains(bb))
            close(now);

        const int ord = plan_.headerOrdinal(bb);
        if (ord >= 0) {
            if (open_.size() > lo &&
                open_.back().ordinal == static_cast<unsigned>(ord))
                nextIteration(now);
            else
                openInstance(static_cast<unsigned>(ord), now);
        }

        // Tracked phis' definitions in this block execute at its entry
        // clock plus their 1-based position; each belongs to the
        // innermost instance of its loop in this activation.
        auto d = plan_.defWatchPlan().find(bb);
        if (d == plan_.defWatchPlan().end())
            return;
        for (const rt::PlannedDefWatch &def : d->second) {
            for (std::size_t i = open_.size(); i > lo;) {
                Open &o = open_[--i];
                if (o.ordinal == def.loopOrdinal) {
                    o.lastDef[def.regIndex] = now + def.offsetInBlock;
                    o.defined[def.regIndex] = true;
                    break;
                }
            }
        }
    }

    void
    onPhiResolved(const Instruction *phi, std::uint64_t bits) override
    {
        const int ord = plan_.headerOrdinal(phi->parent());
        if (ord < 0 || open_.size() <= frames_.back() ||
            open_.back().ordinal != static_cast<unsigned>(ord))
            return;
        Open &o = open_.back();
        const auto &ws = watches_[static_cast<unsigned>(ord)];
        for (std::size_t s = 0; s < ws.size(); ++s)
            if (ws[s].phi == phi)
                o.values[s].push_back(bits);

        const rt::LoopPlan &lp =
            plan_.loopByOrdinal(static_cast<unsigned>(ord));
        auto t = lp.trackedIndex.find(phi);
        if (t == lp.trackedIndex.end())
            return;
        // One hybrid predictor per static phi, shared by its instances
        // and trained on every value, the initial one included; only
        // carried values (iteration >= 1) are predictions.
        auto &pred = predictors_[phi];
        if (!pred)
            pred = std::make_unique<predict::HybridPredictor>();
        const bool hit = pred->predictAndTrain(bits).anyCorrect;
        if (o.iter == 0)
            return;
        Instance::Phi &pr = record(o).phis[t->second];
        pr.predictions += 1;
        if (!hit)
            pr.missedIters.push_back(o.iter);
    }

    void
    onLoad(const Instruction *load, std::uint64_t addr) override
    {
        const std::uint64_t now = m_->preciseCost();
        for (Open &o : open_) {
            if (!tracks(o, addr))
                continue;
            auto w = o.lastWrite.find(addr >> 3);
            if (w != o.lastWrite.end() && w->second.iter < o.iter)
                record(o).raws.push_back({w->second.iter, w->second.offset,
                                          o.iter, now - o.iterStart,
                                          w->second.store, load});
        }
    }

    void
    onStore(const Instruction *store, std::uint64_t addr) override
    {
        const std::uint64_t now = m_->preciseCost();
        for (Open &o : open_)
            if (tracks(o, addr))
                o.lastWrite[addr >> 3] = {o.iter, now - o.iterStart, store};
    }

  private:
    struct Watch
    {
        const Instruction *phi;
        unsigned watch; ///< OracleCapture index
        unsigned depth;
    };

    struct Write
    {
        std::uint64_t iter;
        std::uint64_t offset;
        const Instruction *store;
    };

    /** An open instance's in-flight state. */
    struct Open
    {
        std::size_t id = 0; ///< into instances_
        unsigned ordinal = 0;
        std::uint64_t iter = 0;
        std::uint64_t iterStart = 0;
        std::uint64_t spAtIterStart = 0;
        /** 8-byte granule -> its last write in this instance. */
        std::unordered_map<std::uint64_t, Write> lastWrite;
        /** Per tracked phi: its definition's clock this iteration. */
        std::vector<std::uint64_t> lastDef;
        std::vector<bool> defined;
        /** Per oracle watch of the loop: every value it resolved to. */
        std::vector<std::vector<std::uint64_t>> values;
    };

    const analysis::Loop *
    loopOf(const Open &o) const
    {
        return plan_.loopByOrdinal(o.ordinal).loop;
    }

    Instance &record(const Open &o) { return out_.instances_[o.id]; }

    /**
     * Does instance @p o watch this access for conflicts?  Not when it
     * touches the stack at or above the stack pointer of the
     * iteration's start: that memory (the iteration's allocas and its
     * callees' frames) is private to the iteration.  Every other access
     * is watched, including those the static filter claims
     * conflict-free (LoopPlan::untrackedMem): the engine skips them, so
     * a RAW the filter wrongly drops shows up as a difference and as a
     * filterFindings() line.
     */
    static bool
    tracks(const Open &o, std::uint64_t addr)
    {
        return !(interp::Memory::isStackAddress(addr) &&
                 addr >= o.spAtIterStart);
    }

    void
    openInstance(unsigned ord, std::uint64_t now)
    {
        Instance inst;
        inst.ordinal = ord;
        if (!open_.empty()) {
            inst.parent = static_cast<std::int64_t>(open_.back().id);
            inst.parentIter = open_.back().iter;
        }
        inst.starts.push_back(now);
        const std::size_t nTracked =
            plan_.loopByOrdinal(ord).trackedAll.size();
        inst.phis.resize(nTracked);
        out_.instances_.push_back(std::move(inst));

        Open o;
        o.id = out_.instances_.size() - 1;
        o.ordinal = ord;
        o.iterStart = now;
        o.spAtIterStart = m_->stackPointer();
        o.lastDef.assign(nTracked, 0);
        o.defined.assign(nTracked, false);
        o.values.resize(watches_[ord].size());
        open_.push_back(std::move(o));
    }

    void
    nextIteration(std::uint64_t now)
    {
        Open &o = open_.back();
        Instance &inst = record(o);
        for (std::size_t r = 0; r < inst.phis.size(); ++r)
            inst.phis[r].producerOffsets.push_back(
                o.defined[r] ? o.lastDef[r] - o.iterStart : 0);
        std::fill(o.defined.begin(), o.defined.end(), false);
        inst.starts.push_back(now);
        o.iter += 1;
        o.iterStart = now;
        o.spAtIterStart = m_->stackPointer();
    }

    void
    close(std::uint64_t now)
    {
        Open &o = open_.back();
        record(o).exit = now;
        const auto &ws = watches_[o.ordinal];
        for (std::size_t s = 0; s < ws.size(); ++s)
            judge(ws[s], o.values[s]);
        open_.pop_back();
    }

    /**
     * A watched phi's values in one instance follow a polynomial of
     * degree <= depth in the iteration index exactly when every
     * (depth+1)-th finite difference (mod 2^64) is zero.
     */
    void
    judge(const Watch &w, std::vector<std::uint64_t> values)
    {
        rt::OracleCapture::State st;
        st.n = values.size();
        const unsigned order =
            std::min(w.depth, rt::OracleCapture::kMaxDepth) + 1;
        for (unsigned k = 0; k < order && !values.empty(); ++k) {
            for (std::size_t i = 0; i + 1 < values.size(); ++i)
                values[i] = values[i + 1] - values[i];
            values.pop_back();
        }
        st.broken = std::any_of(values.begin(), values.end(),
                                [](std::uint64_t v) { return v != 0; });
        out_.cap_.recordInstance(w.watch, st, w.depth);
    }

    SpecEvaluator &out_;
    const rt::ModulePlan &plan_;
    const interp::Machine *m_ = nullptr;
    std::vector<std::vector<Watch>> watches_; ///< by loop ordinal
    std::unordered_map<const Instruction *,
                       std::unique_ptr<predict::HybridPredictor>>
        predictors_;
    std::vector<std::size_t> frames_; ///< open_ depth at each entry
    std::vector<Open> open_;          ///< every frame's, innermost last
};

SpecEvaluator::SpecEvaluator(const rt::ModulePlan &plan) : plan_(plan)
{
    Recorder rec(*this);
    interp::Machine machine(plan.module(), &rec);
    rec.attach(machine);
    machine.run();
    cost_ = machine.cost();
}

SpecEvaluator::~SpecEvaluator() = default;

rt::ProgramReport
SpecEvaluator::evaluate(const rt::LPConfig &config, const std::string &name,
                        bool withOracle) const
{
    rt::LPConfig cfg = config;
    cfg.validate();

    // Static verdicts and the tracked prefix: every non-computable
    // header phi, plus the reductions under reduc0.
    std::vector<rt::LoopReport> rows(plan_.numLoops());
    std::vector<std::size_t> tracked(plan_.numLoops());
    for (const auto &fp : plan_.functionPlans()) {
        for (const rt::LoopPlan &lp : fp->loopPlans) {
            rt::LoopReport &row = rows[lp.ordinal];
            row.label = lp.loop->label();
            row.depth = lp.loop->depth();
            row.staticReason = rt::staticVerdict(lp, *fp, plan_, cfg);
            tracked[lp.ordinal] = cfg.reduc == 0
                                      ? lp.trackedAll.size()
                                      : lp.nonComputable.size();
        }
    }

    // Instances open after their enclosing instance, so walking them
    // backwards evaluates every child before the iteration it saves in.
    std::vector<std::vector<std::uint64_t>> saved(instances_.size());
    for (std::size_t i = 0; i < instances_.size(); ++i)
        saved[i].assign(instances_[i].starts.size(), 0);
    std::uint64_t programSaved = 0;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    std::map<std::pair<unsigned, std::size_t>,
             std::pair<std::uint64_t, std::uint64_t>>
        preds; // (loop, phi) -> (predictions, mispredicts)

    for (std::size_t id = instances_.size(); id-- > 0;) {
        const Instance &inst = instances_[id];
        rt::LoopReport &row = rows[inst.ordinal];
        const bool eligible = row.staticReason == rt::SerialReason::None;
        const std::size_t nTracked = eligible ? tracked[inst.ordinal] : 0;
        const std::uint64_t n = inst.starts.size() - 1; // completed

        // Iteration k's adjusted cost: its serial cost less what the
        // regions closed inside it saved (never below zero).  Index n
        // is the trailing partial iteration.
        std::vector<std::uint64_t> adj(n + 1);
        std::uint64_t adjSerial = 0;
        for (std::uint64_t k = 0; k <= n; ++k) {
            const std::uint64_t end = k < n ? inst.starts[k + 1] : inst.exit;
            const std::uint64_t serial = end - inst.starts[k];
            adj[k] = serial - std::min(saved[id][k], serial);
            adjSerial += adj[k];
        }
        const std::uint64_t rawSerial = inst.exit - inst.starts[0];
        const std::uint64_t tailAdj = adj[n];
        std::uint64_t slowest = 0;
        for (std::uint64_t k = 0; k < n; ++k)
            slowest = std::max(slowest, adj[k]);

        // Where an LCD manifests: the conflicting iterations of the
        // speculative models, and HELIX's synchronizations from
        // producer offset p to consumer offset c at distance dist, with
        // delta = max ceil((p - c) / dist) and the single-sync window
        // max p - min c.
        std::vector<bool> conflict(n + 1, false);
        std::uint64_t delta = 0, maxP = 0, minC = ~std::uint64_t{0};
        bool anySync = false;
        auto manifest = [&](std::uint64_t iter, std::uint64_t p,
                            std::uint64_t c, std::uint64_t dist) {
            conflict[iter] = true;
            if (p > c)
                delta = std::max(delta, (p - c + dist - 1) / dist);
            maxP = std::max(maxP, p);
            minC = std::min(minC, c);
            anySync = true;
        };
        if (eligible) {
            for (const Instance::Raw &raw : inst.raws)
                manifest(raw.consumerIter, raw.producerOffset,
                         raw.consumerOffset,
                         raw.consumerIter - raw.producerIter);
            // A register LCD is consumed by its phi at the top of the
            // next iteration: offset 0, distance 1.  Under dep1 every
            // carried value manifests, under dep2 the mispredicted ones.
            for (std::size_t r = 0; r < nTracked; ++r) {
                const Instance::Phi &pr = inst.phis[r];
                if (cfg.dep == 1) {
                    for (std::uint64_t k = 1; k <= n; ++k)
                        manifest(k, pr.producerOffsets[k - 1], 0, 1);
                } else if (cfg.dep == 2) {
                    for (std::uint64_t k : pr.missedIters)
                        manifest(k, pr.producerOffsets[k - 1], 0, 1);
                    auto &[p, m] = preds[{inst.ordinal, r}];
                    p += pr.predictions;
                    m += pr.missedIters.size();
                }
            }
            row.memConflicts += inst.raws.size();
        }
        const std::uint64_t conflicts = static_cast<std::uint64_t>(
            std::count(conflict.begin(), conflict.end(), true));

        bool parallelized = false;
        std::uint64_t parallel = adjSerial;
        if (eligible && n > 0) {
            switch (cfg.model) {
              case rt::ExecModel::DoAll:
                // Any LCD serializes the whole instance.
                if (conflicts == 0) {
                    parallel = slowest + tailAdj;
                    parallelized = true;
                }
                break;
              case rt::ExecModel::PartialDoAll: {
                // A conflicting iteration squashes and restarts: it
                // opens a new phase, and each phase costs its slowest
                // iteration.  Too many conflicting iterations: serial.
                if (static_cast<double>(conflicts) / static_cast<double>(n) >
                    cfg.pdoallSerialThreshold)
                    break;
                std::uint64_t phases = 0, phaseSlowest = 0;
                for (std::uint64_t k = 0; k < n; ++k) {
                    if (conflict[k]) {
                        phases += phaseSlowest;
                        phaseSlowest = 0;
                    }
                    phaseSlowest = std::max(phaseSlowest, adj[k]);
                }
                parallel = phases + phaseSlowest + tailAdj;
                parallelized = true;
                break;
              }
              case rt::ExecModel::Helix: {
                // HELIX_time = iter_slowest + delta_largest * num_iter.
                if (cfg.singleSyncDoacross)
                    delta = anySync && maxP > minC ? maxP - minC : 0;
                const std::uint64_t t = slowest + delta * n + tailAdj;
                if (t <= adjSerial) {
                    parallel = t;
                    parallelized = true;
                }
                break;
              }
            }
        }
        if (parallel > adjSerial) { // never slower than running it
            parallel = adjSerial;
            parallelized = false;
        }
        if (eligible && cfg.model == rt::ExecModel::PartialDoAll)
            row.conflictIterations += conflicts;

        row.instances += 1;
        row.iterations += n;
        row.serialCost += rawSerial;
        row.adjustedCost += adjSerial;
        row.parallelCost += parallel;
        if (!parallelized)
            row.serializedInstances += 1;
        if (parallelized)
            covered.emplace_back(inst.starts[0], inst.exit);

        const std::uint64_t saving = rawSerial - parallel;
        if (inst.parent < 0)
            programSaved += saving;
        else
            saved[static_cast<std::size_t>(inst.parent)][inst.parentIter] +=
                saving;
    }

    rt::ProgramReport rep;
    rep.program = name;
    rep.config = cfg;
    rep.serialCost = cost_;
    rep.parallelCost = cost_ - programSaved;

    // Coverage: the union of the parallelized instances' intervals.
    std::sort(covered.begin(), covered.end());
    std::uint64_t union_ = 0, reach = 0;
    for (const auto &[lo, hi] : covered) {
        const std::uint64_t from = std::max(lo, reach);
        if (hi > from)
            union_ += hi - from;
        reach = std::max(reach, hi);
    }
    rep.coverage = cost_ == 0 ? 0.0
                              : static_cast<double>(union_) /
                                    static_cast<double>(cost_);

    rt::Census &c = rep.census;
    for (unsigned ord = 0; ord < plan_.numLoops(); ++ord) {
        const rt::LoopPlan &lp = plan_.loopByOrdinal(ord);
        c.staticLoops += 1;
        c.canonicalLoops += lp.loop->isCanonical();
        c.computableIvs += lp.computablePhis.size();
        c.reductions += lp.reductions.size();
        c.loopsWithCalls += lp.hasCalls();
        // Memory LCD loops: frequent when over 5% of the iterations
        // conflicted.
        const rt::LoopReport &row = rows[ord];
        if (row.memConflicts > 0 && row.iterations > 0) {
            if (static_cast<double>(row.conflictIterations) /
                    static_cast<double>(row.iterations) >
                0.05)
                c.frequentMemLcdLoops += 1;
            else
                c.infrequentMemLcdLoops += 1;
        }
    }
    for (const auto &[key, pm] : preds) {
        const auto [predictions, mispredicts] = pm;
        if (predictions == 0)
            continue;
        rows[key.first].regPredictions += predictions;
        rows[key.first].regMispredicts += mispredicts;
        const double hit = 1.0 - static_cast<double>(mispredicts) /
                                     static_cast<double>(predictions);
        if (hit >= cfg.predictableThreshold)
            c.predictableRegLcds += 1;
        else
            c.unpredictableRegLcds += 1;
    }
    for (rt::LoopReport &row : rows)
        if (row.instances > 0)
            rep.loops.push_back(std::move(row));
    std::stable_sort(rep.loops.begin(), rep.loops.end(),
                     [](const rt::LoopReport &a, const rt::LoopReport &b) {
                         return a.serialCost > b.serialCost;
                     });

    if (withOracle) {
        lint::applyOracle(cap_, rep);
        lint::applyVerdictOracle(plan_.analyses().verdicts(), rep);
    }
    return rep;
}

std::vector<std::string>
SpecEvaluator::filterFindings() const
{
    std::vector<std::string> out;
    std::set<std::tuple<unsigned, const Instruction *, const Instruction *>>
        seen;
    for (const Instance &inst : instances_) {
        const rt::LoopPlan &lp = plan_.loopByOrdinal(inst.ordinal);
        for (const Instance::Raw &raw : inst.raws) {
            if (!lp.untrackedMem.count(raw.store) &&
                !lp.untrackedMem.count(raw.load))
                continue;
            if (!seen.insert({inst.ordinal, raw.store, raw.load}).second)
                continue;
            out.push_back(lp.loop->label() + ": a RAW from store " +
                          lint::locate(raw.store).str() + " to load " +
                          lint::locate(raw.load).str() +
                          " manifested on a statically filtered access");
        }
    }
    return out;
}

rt::LPConfig
configFromJson(const obs::Json &config)
{
    rt::LPConfig cfg;
    const std::string &model = config.at("model").asString();
    cfg.model = model == "DOALL"    ? rt::ExecModel::DoAll
                : model == "PDOALL" ? rt::ExecModel::PartialDoAll
                                    : rt::ExecModel::Helix;
    cfg.reduc = static_cast<int>(config.at("reduc").asInt());
    cfg.dep = static_cast<int>(config.at("dep").asInt());
    cfg.fn = static_cast<int>(config.at("fn").asInt());
    cfg.pdoallSerialThreshold =
        config.at("pdoall_serial_threshold").asDouble();
    cfg.predictableThreshold = config.at("predictable_threshold").asDouble();
    cfg.singleSyncDoacross = config.at("single_sync_doacross").asBool();
    return cfg;
}

namespace {

void
diffField(std::vector<std::string> &out, const std::string &path,
          const obs::Json *engine, const obs::Json *spec)
{
    const std::string e = engine ? engine->dump() : "<absent>";
    const std::string s = spec ? spec->dump() : "<absent>";
    if (e != s)
        out.push_back(path + ": engine " + e + " != spec " + s);
}

/** Compare two objects member by member, the union of their keys. */
void
diffObject(std::vector<std::string> &out, const std::string &path,
           const obs::Json &engine, const obs::Json &spec)
{
    std::vector<std::string> keys = engine.keys();
    for (const std::string &k : spec.keys())
        if (!engine.contains(k))
            keys.push_back(k);
    for (const std::string &k : keys) {
        const obs::Json *e = engine.contains(k) ? &engine.at(k) : nullptr;
        const obs::Json *s = spec.contains(k) ? &spec.at(k) : nullptr;
        const std::string at = path.empty() ? k : path + "." + k;
        if (k == "loops" && path.empty() && e && s) {
            // Per-loop rows, matched by label (row order is a sort of
            // equal keys, not a result).
            std::map<std::string, const obs::Json *> sRows;
            for (std::size_t i = 0; i < s->size(); ++i)
                sRows[s->at(i).at("label").asString()] = &s->at(i);
            for (std::size_t i = 0; i < e->size(); ++i) {
                const std::string label = e->at(i).at("label").asString();
                auto it = sRows.find(label);
                if (it == sRows.end()) {
                    out.push_back("loops[" + label +
                                  "]: only the engine reports it");
                    continue;
                }
                diffObject(out, "loops[" + label + "]", e->at(i),
                           *it->second);
                sRows.erase(it);
            }
            for (const auto &[label, row] : sRows)
                out.push_back("loops[" + label + "]: only the spec reports it");
        } else if (e && s && e->isObject() && s->isObject()) {
            diffObject(out, at, *e, *s);
        } else {
            diffField(out, at, e, s);
        }
    }
}

} // namespace

std::vector<std::string>
specDifferences(const obs::Json &engine, const obs::Json &spec)
{
    std::vector<std::string> out;
    diffObject(out, "", engine, spec);
    return out;
}

} // namespace lp::fuzz
