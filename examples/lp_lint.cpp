/**
 * @file
 * lp-lint: the standalone static diagnostics front end.
 *
 * Usage:
 *   lp-lint prog.lir [more.lir ...]      # lint .lir files
 *   lp-lint --all-suites                 # lint every bundled suite module
 *   lp-lint --format=sarif prog.lir      # text (default) | json | sarif
 *   lp-lint --sarif out.sarif prog.lir   # ALSO write SARIF to a file
 *   lp-lint --werror prog.lir            # promote warnings to errors
 *   lp-lint --deps prog.lir              # only the LCD classification
 *   lp-lint --list-rules                 # rule catalog and exit
 *
 * --sarif PATH is a side channel: the stdout output (table, json, or
 * deps) is byte-identical with and without it, so CI can archive a
 * SARIF artifact while humans keep reading the table.
 *
 * Exit status: 0 = no error-level findings, 1 = at least one error-level
 * finding, 2 = usage or input error (unreadable/unparseable file).
 *
 * See docs/static_analysis.md for the rule catalog and SARIF schema
 * notes.  Unlike run_study, lp-lint never executes anything — dirty
 * modules (including ones the verifier would reject) are surveyed in
 * full, which is exactly what the seeded-defect CI corpus needs.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "interp/stdlib.hpp"
#include "ir/parser.hpp"
#include "lint/engine.hpp"
#include "lint/sarif.hpp"
#include "suites/registry.hpp"
#include "support/error.hpp"

using namespace lp;

namespace {

int
listRules()
{
    for (const lint::RuleMeta &m : lint::standardRuleMeta())
        std::cout << m.id << " (" << lint::severityName(m.severity)
                  << "): " << m.description << "\n";
    return 0;
}

int
usage()
{
    std::cerr
        << "usage: lp-lint [--all-suites] [--format=text|json|sarif]\n"
        << "               [--sarif PATH] [--werror] [--deps] "
           "[--list-rules]\n"
        << "               [FILE.lir ...]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string format = "text";
    std::string sarifPath;
    bool werror = false;
    bool depsOnly = false;
    bool allSuites = false;
    std::vector<std::string> files;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--list-rules")
            return listRules();
        if (a == "--all-suites") {
            allSuites = true;
            continue;
        }
        if (a.rfind("--format=", 0) == 0) {
            format = a.substr(sizeof("--format=") - 1);
            if (format != "text" && format != "json" && format != "sarif") {
                std::cerr << "unknown format: " << format << "\n";
                return usage();
            }
            continue;
        }
        if (a == "--sarif") {
            if (i + 1 >= argc) {
                std::cerr << "--sarif requires a path\n";
                return usage();
            }
            sarifPath = argv[++i];
            continue;
        }
        if (a == "--werror") {
            werror = true;
            continue;
        }
        if (a == "--deps") {
            depsOnly = true;
            continue;
        }
        if (a.rfind("--", 0) == 0) {
            std::cerr << "unknown option: " << a << "\n";
            return usage();
        }
        files.push_back(std::move(a));
    }
    if (files.empty() && !allSuites)
        return usage();

    lint::LintOptions opts;
    opts.warningsAsErrors = werror;

    // Parse/build everything first: an unreadable input is a usage-level
    // failure (exit 2), distinct from "linted and found defects".
    std::vector<std::unique_ptr<ir::Module>> modules;
    std::vector<lint::LintResult> results;
    try {
        for (const std::string &path : files) {
            std::ifstream in(path);
            if (!in) {
                std::cerr << "cannot open " << path << "\n";
                return 2;
            }
            std::stringstream buf;
            buf << in.rdbuf();
            auto mod = ir::parseModule(buf.str(), interp::stdlibImplFor);
            lint::LintResult res = lint::lintModule(*mod, opts);
            res.artifact = path;
            results.push_back(std::move(res));
            modules.push_back(std::move(mod));
        }
        if (allSuites) {
            for (const core::BenchProgram &prog : suites::allPrograms()) {
                auto mod = prog.build();
                lint::LintResult res = lint::lintModule(*mod, opts);
                res.artifact = prog.suite + "/" + prog.name;
                results.push_back(std::move(res));
                modules.push_back(std::move(mod));
            }
        }
    } catch (const FatalError &e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    bool anyErrors = false;
    std::size_t findings = 0;
    for (const lint::LintResult &res : results) {
        anyErrors = anyErrors || res.hasErrors();
        findings += res.diags.size();
    }

    if (!sarifPath.empty()) {
        std::ofstream out(sarifPath);
        if (out)
            out << lint::toSarif(results).dump(2) << "\n" << std::flush;
        if (!out) {
            std::cerr << "cannot write " << sarifPath << "\n";
            return 2;
        }
    }

    if (depsOnly) {
        obs::Json deps = obs::Json::array();
        for (const lint::LintResult &res : results)
            deps.push(res.deps);
        std::cout << deps.dump(2) << "\n";
        return anyErrors ? 1 : 0;
    }
    if (format == "sarif") {
        std::cout << lint::toSarif(results).dump(2) << "\n";
        return anyErrors ? 1 : 0;
    }
    if (format == "json") {
        obs::Json doc = obs::Json::array();
        for (const lint::LintResult &res : results) {
            obs::Json one = obs::Json::object();
            one.set("module", res.module);
            one.set("artifact", res.artifact);
            obs::Json diags = obs::Json::array();
            for (const lint::Diagnostic &d : res.diags) {
                obs::Json j = obs::Json::object();
                j.set("rule", d.rule);
                j.set("severity",
                      std::string(lint::severityName(d.severity)));
                j.set("function", d.loc.function);
                j.set("block", d.loc.block);
                j.set("instr", d.loc.instr);
                j.set("line", d.loc.line);
                j.set("column", d.loc.column);
                j.set("message", d.message);
                diags.push(std::move(j));
            }
            one.set("findings", std::move(diags));
            one.set("deps", res.deps);
            doc.push(std::move(one));
        }
        std::cout << doc.dump(2) << "\n";
        return anyErrors ? 1 : 0;
    }

    for (const lint::LintResult &res : results) {
        if (res.diags.empty())
            continue;
        std::cout << res.artifact << ":\n";
        for (const lint::Diagnostic &d : res.diags)
            std::cout << "  " << d.str() << "\n";
    }
    std::cout << results.size() << " module(s) linted, " << findings
              << " finding(s)\n";
    return anyErrors ? 1 : 0;
}
