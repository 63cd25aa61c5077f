/**
 * @file
 * The spec evaluator: the independent reference for the execution
 * models (`lp::fuzz`).
 *
 * A deliberately naive evaluator, written from the model conventions
 * of DESIGN.md §3 and §6 (and PAPER.md §1), not from the lane engine
 * (rt/batch.*), which it never reads.  It interprets a program once
 * through the interp::ExecListener interface and records, for every
 * dynamic loop instance, everything a configuration could need:
 *
 *  - the start clock of every iteration, so each iteration's serial
 *    cost and the trailing partial iteration's;
 *  - where the instance's saving lands: the enclosing instance and the
 *    iteration it was open in (none = the program total);
 *  - every cross-iteration memory RAW that manifests, as (producer
 *    iteration, offset, store) -> (consumer iteration, offset, load),
 *    over every access outside the iteration's own stack: it does not
 *    trust the static filter (LoopPlan::untrackedMem), so the
 *    comparison checks the filter too, and filterFindings() names each
 *    RAW the filter would drop;
 *  - for each phi a configuration could track, its producer offset in
 *    every iteration and the iterations whose carried value the hybrid
 *    predictor missed.
 *
 * evaluate() then applies one configuration's static verdicts and
 * execution model to that record, innermost instances first: the
 * DOALL rule, the PDOALL phases and serialization threshold, the HELIX
 * delta (or the single-sync DOACROSS window), nested savings, and
 * coverage as a plain union of the parallelized instances' intervals.
 * The consistency-oracle evidence of the run goes to the evaluator's
 * own OracleCapture, judged from each instance's whole value sequence.
 *
 * tests/test_spec.cpp and the fuzz pair spec-vs-engine hold the engine
 * to it field by field (specDifferences()).
 */

#pragma once

#include <string>
#include <vector>

#include "obs/json.hpp"
#include "rt/config.hpp"
#include "rt/oracle_capture.hpp"
#include "rt/plan.hpp"
#include "rt/report.hpp"

namespace lp::fuzz {

/** One program's recorded run, evaluated under any configuration. */
class SpecEvaluator
{
  public:
    /**
     * Interpret @p plan's module once, under the default run budget,
     * recording every loop instance.  Throws what the run throws.
     */
    explicit SpecEvaluator(const rt::ModulePlan &plan);
    ~SpecEvaluator();

    /**
     * The report @p cfg's model semantics give the recorded run, named
     * @p name.  With @p withOracle the consistency oracle's and the
     * static verdicts' sections are judged into it, as --lint does.
     */
    rt::ProgramReport evaluate(const rt::LPConfig &cfg,
                               const std::string &name,
                               bool withOracle = false) const;

    /**
     * One line per (loop, store, load) whose cross-iteration RAW
     * manifested in the recorded run while the loop's
     * LoopPlan::untrackedMem holds the store or the load: a dependence
     * the engine's static filter drops.  In first-manifested order;
     * empty when the filter's claims held.
     */
    std::vector<std::string> filterFindings() const;

  private:
    struct Instance;
    class Recorder;

    const rt::ModulePlan &plan_;
    std::vector<Instance> instances_; ///< in the order they opened
    std::uint64_t cost_ = 0;          ///< the run's serial cost
    rt::OracleCapture cap_;
};

/**
 * The configuration a report's "config" section describes (as
 * rt::ProgramReport::toJson() writes it).
 */
rt::LPConfig configFromJson(const obs::Json &config);

/**
 * Field-by-field differences between two reports of one program and
 * configuration, as rt::ProgramReport::toJson() exports them: every
 * top-level field, the census, every per-loop row (matched by label)
 * and the oracle and static-verdict sections.  Each entry names the
 * field and both values; empty when the reports agree.
 */
std::vector<std::string> specDifferences(const obs::Json &engine,
                                         const obs::Json &spec);

} // namespace lp::fuzz
