/**
 * @file
 * msim-lint: static annotation and memory-dependence verification
 * for multiscalar programs.
 *
 *   msim-lint [options] <workload-or-file>...
 *   msim-lint --all
 *
 * Each positional argument names either a registered workload or a
 * path to an assembly source file (anything containing '.' or '/' is
 * treated as a path). Options:
 *
 *   --all           lint every registered workload
 *   --scalar        assemble the scalar variant (no annotations;
 *                   useful to prove the shared source still parses)
 *   --define NAME   define an assembly variant symbol (repeatable)
 *   --format FMT    output format: text (default) or json
 *   --json          shorthand for --format json (msim-lint-v1)
 *   --passes LIST   run only the comma-separated passes (default:
 *                   all nine; names as in the README table)
 *   --strict        exit nonzero on warnings as well as errors
 *   --quiet         suppress clean-input chatter
 *
 * Exit status: 0 when no input has errors (nor, with --strict,
 * warnings); 1 when findings gate; 2 on usage or assembly failure.
 * Info-severity findings (mem-conflict) never gate, even with
 * --strict.
 *
 * Example diagnostic:
 *
 *   sc.ms.s:24: warning: create-mask register $19 of task MAIN
 *   reaches the stop on some path without a forward or release;
 *   successors stall until the task retires (tag the last update
 *   with !f or release the register) [missing-last-update]
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/mem_dep.hh"
#include "analysis/verifier.hh"
#include "asm/assembler.hh"
#include "common/logging.hh"
#include "workloads/workload.hh"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: msim-lint [--all] [--scalar] [--define NAME]\n"
                 "                 [--format text|json] [--json]\n"
                 "                 [--passes p1,p2,...] [--strict]\n"
                 "                 [--quiet] <workload-or-file>...\n"
                 "see the header of tools/msim_lint.cc for details\n");
    return 2;
}

struct Input
{
    std::string label;   // what to report the input as
    std::string source;  // assembly text
    std::string fileName;
};

bool
looksLikePath(const std::string &arg)
{
    return arg.find('.') != std::string::npos ||
           arg.find('/') != std::string::npos;
}

/** Parse a comma-separated pass list; nullopt on an unknown name. */
std::optional<std::set<msim::analysis::PassId>>
parsePasses(const std::string &list)
{
    std::set<msim::analysis::PassId> out;
    std::istringstream is(list);
    std::string name;
    while (std::getline(is, name, ',')) {
        if (name.empty())
            continue;
        const auto pass = msim::analysis::passByName(name);
        if (!pass) {
            std::fprintf(stderr, "msim-lint: unknown pass '%s'\n",
                         name.c_str());
            return std::nullopt;
        }
        out.insert(*pass);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool all = false;
    bool scalar = false;
    bool json = false;
    bool strict = false;
    bool quiet = false;
    std::optional<std::set<msim::analysis::PassId>> passFilter;
    std::set<std::string> defines;
    std::vector<std::string> args;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--all") {
            all = true;
        } else if (arg == "--scalar") {
            scalar = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--format") {
            if (++i >= argc)
                return usage();
            const std::string fmt = argv[i];
            if (fmt == "json") {
                json = true;
            } else if (fmt == "text") {
                json = false;
            } else {
                std::fprintf(stderr,
                             "msim-lint: unknown format '%s'\n",
                             fmt.c_str());
                return usage();
            }
        } else if (arg == "--passes") {
            if (++i >= argc)
                return usage();
            passFilter = parsePasses(argv[i]);
            if (!passFilter)
                return usage();
        } else if (arg == "--strict") {
            strict = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--define") {
            if (++i >= argc)
                return usage();
            defines.insert(argv[i]);
        } else if (arg.rfind("--", 0) == 0) {
            std::fprintf(stderr, "msim-lint: unknown option %s\n",
                         arg.c_str());
            return usage();
        } else {
            args.push_back(arg);
        }
    }
    if (!all && args.empty())
        return usage();

    std::vector<Input> inputs;
    if (all) {
        for (const auto &[name, factory] : msim::workloads::registry()) {
            const msim::workloads::Workload w = factory(1);
            inputs.push_back(
                {name, w.source, name + (scalar ? ".sc.s" : ".ms.s")});
        }
    }
    for (const std::string &arg : args) {
        const auto &reg = msim::workloads::registry();
        auto it = reg.find(arg);
        if (it != reg.end()) {
            const msim::workloads::Workload w = it->second(1);
            inputs.push_back(
                {arg, w.source, arg + (scalar ? ".sc.s" : ".ms.s")});
            continue;
        }
        if (!looksLikePath(arg)) {
            std::fprintf(stderr,
                         "msim-lint: '%s' is neither a registered "
                         "workload nor a file path\n",
                         arg.c_str());
            return 2;
        }
        std::ifstream in(arg);
        if (!in) {
            std::fprintf(stderr, "msim-lint: cannot open %s\n",
                         arg.c_str());
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        inputs.push_back({arg, text.str(), arg});
    }

    unsigned totalErrors = 0;
    unsigned totalWarnings = 0;
    for (const Input &input : inputs) {
        msim::assembler::AsmOptions opts;
        opts.multiscalar = !scalar;
        opts.defines = defines;
        opts.fileName = input.fileName;
        msim::Program prog;
        try {
            prog = msim::assembler::assemble(input.source, opts);
        } catch (const msim::FatalError &err) {
            std::fprintf(stderr, "msim-lint: %s: assembly failed: %s\n",
                         input.label.c_str(), err.what());
            return 2;
        }

        const msim::analysis::AnnotationVerifier verifier(prog);
        msim::analysis::AnalysisReport report = verifier.verify();

        // The memory passes ride on the verifier's CFGs; merge their
        // diagnostics and stats block into the one report.
        const msim::analysis::MemDepAnalysis memdep(prog, verifier);
        msim::analysis::AnalysisReport memRep = memdep.lint();
        report.mem = memRep.mem;
        report.diagnostics.insert(
            report.diagnostics.end(),
            std::make_move_iterator(memRep.diagnostics.begin()),
            std::make_move_iterator(memRep.diagnostics.end()));

        if (passFilter) {
            std::erase_if(report.diagnostics,
                          [&](const msim::analysis::Diagnostic &d) {
                              return !passFilter->count(d.pass);
                          });
        }

        totalErrors += report.errorCount();
        totalWarnings += report.warningCount();

        if (json) {
            std::fputs(report.toJson().c_str(), stdout);
        } else if (!report.diagnostics.empty()) {
            std::fputs(report.toText().c_str(), stdout);
        } else if (!quiet) {
            std::printf("%s: clean (%u task(s))\n", input.label.c_str(),
                        report.numTasks);
        }
    }

    if (totalErrors > 0)
        return 1;
    if (strict && totalWarnings > 0)
        return 1;
    return 0;
}
