#include "rt/report.hpp"

#include "support/table.hpp"
#include "support/text.hpp"

namespace lp::rt {

const char *
runStatusName(RunStatus s)
{
    switch (s) {
      case RunStatus::Ok: return "ok";
      case RunStatus::Failed: return "failed";
      case RunStatus::Skipped: return "skipped";
    }
    return "ok";
}

void
ProgramReport::print(std::ostream &os, bool perLoop) const
{
    os << "program " << program << "  [" << config.str() << "]\n";
    if (!ok()) {
        os << "  status        : " << runStatusName(status);
        if (!errorCode.empty())
            os << " [" << errorCode << "]";
        os << "\n";
        if (!errorMessage.empty())
            os << "  error         : " << errorMessage << "\n";
        if (attempts > 1)
            os << "  attempts      : " << attempts << "\n";
        return;
    }
    os << "  serial cost   : " << withCommas(serialCost)
       << " dynamic IR instructions\n";
    os << "  parallel cost : " << withCommas(parallelCost) << "\n";
    os << strf("  speedup       : %.2fx\n", speedup());
    os << strf("  coverage      : %.1f%%\n", coverage * 100.0);
    os << strf("  loops         : %llu static, %llu canonical\n",
               static_cast<unsigned long long>(census.staticLoops),
               static_cast<unsigned long long>(census.canonicalLoops));
    if (oracleRan) {
        os << strf("  oracle        : %llu phi(s) checked, "
                   "%llu mismatch(es)\n",
                   static_cast<unsigned long long>(oraclePhisChecked),
                   static_cast<unsigned long long>(oracleMismatches));
        for (const OracleFinding &f : oracleFindings)
            os << "    " << f.severity << " " << f.rule << " " << f.loop
               << " %" << f.phi << ": " << f.message << "\n";
    }
    if (staticVerdictsRan) {
        os << strf("  verdicts      : %llu loop(s) classified, "
                   "%llu contradiction(s)\n",
                   static_cast<unsigned long long>(staticVerdicts.size()),
                   static_cast<unsigned long long>(verdictContradictions));
        for (const OracleFinding &f : verdictFindings)
            os << "    " << f.severity << " " << f.rule << " " << f.loop
               << ": " << f.message << "\n";
    }

    if (!perLoop)
        return;
    TextTable t({"loop", "depth", "static", "insts", "iters", "serial",
                 "parallel", "speedup", "conflicts"});
    for (const LoopReport &lr : loops) {
        t.addRow({lr.label, std::to_string(lr.depth),
                  serialReasonName(lr.staticReason),
                  std::to_string(lr.instances),
                  std::to_string(lr.iterations), withCommas(lr.serialCost),
                  withCommas(lr.parallelCost),
                  TextTable::num(lr.speedup()) + "x",
                  std::to_string(lr.memConflicts)});
    }
    t.print(os);
}

obs::Json
ProgramReport::toJson() const
{
    using obs::Json;

    Json cfgJson = Json::object();
    cfgJson.set("label", config.str());
    cfgJson.set("model", execModelName(config.model));
    cfgJson.set("reduc", config.reduc);
    cfgJson.set("dep", config.dep);
    cfgJson.set("fn", config.fn);
    cfgJson.set("pdoall_serial_threshold", config.pdoallSerialThreshold);
    cfgJson.set("predictable_threshold", config.predictableThreshold);
    cfgJson.set("single_sync_doacross", config.singleSyncDoacross);

    Json censusJson = Json::object();
    censusJson.set("computable_ivs", census.computableIvs);
    censusJson.set("reductions", census.reductions);
    censusJson.set("predictable_reg_lcds", census.predictableRegLcds);
    censusJson.set("unpredictable_reg_lcds", census.unpredictableRegLcds);
    censusJson.set("frequent_mem_lcd_loops", census.frequentMemLcdLoops);
    censusJson.set("infrequent_mem_lcd_loops",
                   census.infrequentMemLcdLoops);
    censusJson.set("loops_with_calls", census.loopsWithCalls);
    censusJson.set("static_loops", census.staticLoops);
    censusJson.set("canonical_loops", census.canonicalLoops);

    Json loopsJson = Json::array();
    for (const LoopReport &lr : loops) {
        Json one = Json::object();
        one.set("label", lr.label);
        one.set("depth", lr.depth);
        one.set("static_reason", serialReasonName(lr.staticReason));
        one.set("instances", lr.instances);
        one.set("iterations", lr.iterations);
        one.set("serial_cost", lr.serialCost);
        one.set("adjusted_cost", lr.adjustedCost);
        one.set("parallel_cost", lr.parallelCost);
        one.set("speedup", lr.speedup());
        one.set("mem_conflicts", lr.memConflicts);
        one.set("reg_predictions", lr.regPredictions);
        one.set("reg_mispredicts", lr.regMispredicts);
        one.set("conflict_iterations", lr.conflictIterations);
        one.set("serialized_instances", lr.serializedInstances);
        loopsJson.push(std::move(one));
    }

    Json out = Json::object();
    out.set("program", program);
    // Only fuzz-generated programs carry a seed; emitting the field
    // conditionally keeps every pre-existing report byte-identical.
    if (seed != 0)
        out.set("seed", seed);
    out.set("config", std::move(cfgJson));
    out.set("status", std::string(runStatusName(status)));
    out.set("error_code", errorCode);
    if (!ok()) {
        out.set("error", errorMessage);
        out.set("attempts", attempts);
    }
    out.set("serial_cost", serialCost);
    out.set("parallel_cost", parallelCost);
    out.set("speedup", speedup());
    out.set("coverage", coverage);
    out.set("census", std::move(censusJson));
    out.set("loops", std::move(loopsJson));
    if (oracleRan) {
        // Section is present only when an OracleCapture was attached, so
        // reports of oracle-free runs are byte-identical to before.
        Json oracle = Json::object();
        oracle.set("phis_checked", oraclePhisChecked);
        oracle.set("mismatches", oracleMismatches);
        Json findings = Json::array();
        for (const OracleFinding &f : oracleFindings) {
            Json one = Json::object();
            one.set("rule", f.rule);
            one.set("severity", f.severity);
            one.set("loop", f.loop);
            one.set("phi", f.phi);
            one.set("message", f.message);
            findings.push(std::move(one));
        }
        oracle.set("findings", std::move(findings));
        out.set("oracle", std::move(oracle));
    }
    if (staticVerdictsRan) {
        // Same conditional-presence contract as "oracle": lint-off runs
        // stay byte-identical to reports from before the verdict oracle
        // existed.
        Json sv = Json::object();
        sv.set("contradictions", verdictContradictions);
        Json loopsV = Json::array();
        for (const StaticLoopVerdict &v : staticVerdicts) {
            Json one = Json::object();
            one.set("label", v.label);
            one.set("kind", v.kind);
            one.set("doomed_edges", v.doomedEdges);
            one.set("doomed_may", v.doomedMay);
            one.set("doomed_control", v.doomedControl);
            one.set("scc_count", v.sccCount);
            one.set("max_scc_cost", v.maxSccCost);
            loopsV.push(std::move(one));
        }
        sv.set("loops", std::move(loopsV));
        Json findings = Json::array();
        for (const OracleFinding &f : verdictFindings) {
            Json one = Json::object();
            one.set("rule", f.rule);
            one.set("severity", f.severity);
            one.set("loop", f.loop);
            one.set("phi", f.phi);
            one.set("message", f.message);
            findings.push(std::move(one));
        }
        sv.set("findings", std::move(findings));
        out.set("static_verdict", std::move(sv));
    }
    return out;
}

} // namespace lp::rt
