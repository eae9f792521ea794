/**
 * @file
 * task_explorer: a command line front end for the whole simulator.
 *
 *   task_explorer <workload> [options]
 *
 * Options:
 *   --scalar            run the scalar baseline instead
 *   --units N           processing units (default 4)
 *   --width W           issue width 1|2 (default 1)
 *   --ooo               out-of-order issue units
 *   --predictor P       pas | last | static (default pas)
 *   --ring-hop N        ring hop latency in cycles (default 1)
 *   --arb-entries N     ARB entries per bank (default 256)
 *   --arb-stall         stall (not squash) when the ARB fills
 *   --intra-bp          enable the per-unit bimodal branch predictor
 *   --define NAME       assemble a workload variant (repeatable)
 *   --stats             dump every machine counter
 *   --lint              run the annotation verifier and exit (status 1
 *                       on any error)
 *   --dot               print the task graph in Graphviz dot form
 *   --list              list available workloads
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "analysis/verifier.hh"
#include "common/logging.hh"
#include "core/multiscalar_processor.hh"
#include "core/scalar_processor.hh"
#include "sim/runner.hh"
#include "workloads/workload.hh"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: task_explorer <workload|--list> [options]\n"
                 "run task_explorer with no arguments for the option "
                 "summary in the file header\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace msim;

    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "--list") == 0) {
        for (const auto &[name, factory] : workloads::registry()) {
            (void)factory;
            workloads::Workload w = workloads::get(name);
            std::printf("%-10s %s\n", name.c_str(),
                        w.description.c_str());
        }
        return 0;
    }

    RunSpec spec;
    spec.multiscalar = true;
    bool dump_stats = false;
    bool lint_only = false;
    bool dot_only = false;
    const std::string name = argv[1];

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            fatalIf(i + 1 >= argc, arg, " needs an argument");
            return argv[++i];
        };
        if (arg == "--scalar") {
            spec.multiscalar = false;
        } else if (arg == "--units") {
            spec.ms.numUnits = unsigned(std::stoul(next()));
        } else if (arg == "--width") {
            const unsigned w = unsigned(std::stoul(next()));
            spec.ms.pu.issueWidth = w;
            spec.scalar.pu.issueWidth = w;
        } else if (arg == "--ooo") {
            spec.ms.pu.outOfOrder = true;
            spec.scalar.pu.outOfOrder = true;
        } else if (arg == "--predictor") {
            spec.ms.predictor = next();
        } else if (arg == "--ring-hop") {
            spec.ms.ringHopLatency = unsigned(std::stoul(next()));
        } else if (arg == "--arb-entries") {
            spec.ms.arbEntriesPerBank = unsigned(std::stoul(next()));
        } else if (arg == "--arb-stall") {
            spec.ms.arbFullPolicy = ArbFullPolicy::kStall;
        } else if (arg == "--intra-bp") {
            spec.ms.pu.intraBranchPredict = true;
            spec.scalar.pu.intraBranchPredict = true;
        } else if (arg == "--define") {
            spec.defines.insert(next());
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--lint") {
            lint_only = true;
        } else if (arg == "--dot") {
            dot_only = true;
        } else {
            return usage();
        }
    }

    try {
        workloads::Workload w = workloads::get(name);
        // Re-run through the runner only when no stats are wanted;
        // with --stats we drive the processor directly to keep it.
        Program prog =
            assembleWorkload(w, spec.multiscalar, spec.defines);
        if (lint_only || dot_only) {
            const analysis::AnnotationVerifier verifier(prog);
            if (dot_only) {
                std::printf("%s", analysis::toDot(verifier).c_str());
                return 0;
            }
            const analysis::AnalysisReport report = verifier.verify();
            if (report.diagnostics.empty())
                std::printf("%s: clean (%u task(s))\n", name.c_str(),
                            report.numTasks);
            std::printf("%s", report.toText().c_str());
            return report.hasErrors() ? 1 : 0;
        }
        RunResult r;
        std::string stats_text;
        auto run = [&](auto &proc) {
            if (w.init)
                w.init(proc.memory(), prog);
            proc.setInput(w.input);
            r = proc.run(spec.maxCycles);
            stats_text = proc.stats().format();
        };
        if (spec.multiscalar) {
            MultiscalarProcessor proc(prog, spec.ms);
            run(proc);
        } else {
            ScalarProcessor proc(prog, spec.scalar);
            run(proc);
        }

        std::printf("workload        %s\n", name.c_str());
        std::printf("machine         %s\n",
                    spec.multiscalar
                        ? (std::to_string(spec.ms.numUnits) + "-unit "
                           "multiscalar")
                              .c_str()
                        : "scalar");
        std::printf("output          %s", r.output.c_str());
        std::printf("golden check    %s\n",
                    r.output == w.expected ? "PASS" : "FAIL");
        std::printf("cycles          %llu\n",
                    (unsigned long long)r.cycles);
        std::printf("instructions    %llu (+%llu squashed)\n",
                    (unsigned long long)r.instructions,
                    (unsigned long long)r.squashedInstructions);
        std::printf("IPC             %.3f\n", r.ipc());
        if (spec.multiscalar) {
            std::printf("tasks           %llu retired, %llu squashed\n",
                        (unsigned long long)r.tasksRetired,
                        (unsigned long long)r.tasksSquashed);
            std::printf("prediction      %.2f%% of %llu\n",
                        100.0 * r.predAccuracy(),
                        (unsigned long long)r.taskPredictions);
            std::printf("squashes        %llu control, %llu memory, "
                        "%llu arb-full\n",
                        (unsigned long long)r.controlSquashes,
                        (unsigned long long)r.memorySquashes,
                        (unsigned long long)r.arbFullSquashes);
        }
        if (dump_stats)
            std::printf("\n%s", stats_text.c_str());
        return r.output == w.expected ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
}
