/**
 * @file
 * msim-explore: the machine-shape and design-space command line.
 *
 *   msim-explore <command> [options]
 *
 * Commands:
 *
 *   list                      print the shipped shape presets
 *   lint                      validate every shape in the shape dir
 *                             (parse, validate(), name==basename,
 *                             round-trip identity); exit 1 on any
 *                             failure — CI's config-lint gate
 *   show <shape>              print a shape's canonical full-form
 *                             JSON (preset name or file path)
 *   cost <shape>              print the hardware-cost proxy of a
 *                             shape (KB-equivalents)
 *   sweep                     run a design-space sweep and print the
 *       [--base SHAPE]        Pareto frontier
 *       [--units A,B,...] [--ring A,B,...] [--arb A,B,...]
 *       [--policies squash,stall] [--predictors pas,last,static]
 *       [--workloads W1,W2,...] [--jobs N] [--smoke]
 *       [--json FILE] [--pareto FILE]
 *
 * The shape directory is <repo>/shapes by default; set
 * $MSIM_SHAPE_DIR to point somewhere else.
 *
 * Exit status: 0 on success, 1 on lint/sweep failures, 2 on usage
 * errors.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "config/cost_model.hh"
#include "config/machine_shape.hh"
#include "exp/explore.hh"

namespace {

using namespace msim;

int
usage()
{
    std::fprintf(stderr,
                 "usage: msim-explore <command> [options]\n"
                 "commands: list | lint | show <shape> | cost <shape>"
                 " | sweep\n"
                 "see the header of tools/msim_explore.cc for "
                 "details\n");
    return 2;
}

std::vector<unsigned>
parseUintList(const std::string &text, const char *flag)
{
    std::vector<unsigned> out;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        const std::string item =
            text.substr(pos, comma == std::string::npos
                                 ? std::string::npos
                                 : comma - pos);
        char *end = nullptr;
        const unsigned long v = std::strtoul(item.c_str(), &end, 10);
        if (item.empty() || end == nullptr || *end != '\0') {
            std::fprintf(stderr,
                         "msim-explore: %s: '%s' is not a number\n",
                         flag, item.c_str());
            std::exit(2);
        }
        out.push_back(unsigned(v));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

std::vector<std::string>
parseStringList(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= text.size()) {
        const std::size_t comma = text.find(',', pos);
        out.push_back(text.substr(pos, comma == std::string::npos
                                           ? std::string::npos
                                           : comma - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

int
cmdList()
{
    const std::vector<std::string> names = config::listShapeNames();
    std::printf("%zu shapes in %s:\n", names.size(),
                config::shapeDir().c_str());
    for (const std::string &name : names) {
        const config::MachineShape &shape = config::resolveShape(name);
        if (shape.multiscalar)
            std::printf("  %-18s multiscalar  %2u units, ring %u, "
                        "arb %u/%s, pred %s  (cost %.1f)\n",
                        name.c_str(), shape.ms.numUnits,
                        shape.ms.ringHopLatency,
                        shape.ms.arbEntriesPerBank,
                        shape.ms.arbFullPolicy ==
                                ArbFullPolicy::kSquash
                            ? "squash"
                            : "stall",
                        shape.ms.predictor.c_str(),
                        config::hardwareCostProxy(shape.ms));
        else
            std::printf("  %-18s scalar       %u-way%s\n",
                        name.c_str(), shape.scalar.pu.issueWidth,
                        shape.scalar.pu.outOfOrder ? ", out-of-order"
                                                   : "");
    }
    return 0;
}

int
cmdLint()
{
    const std::vector<config::ShapeLint> lints =
        config::lintShapeDir();
    std::size_t bad = 0;
    for (const config::ShapeLint &l : lints) {
        if (l.error.empty()) {
            std::printf("  OK   %s\n", l.file.c_str());
        } else {
            std::printf("  FAIL %s: %s\n", l.file.c_str(),
                        l.error.c_str());
            ++bad;
        }
    }
    std::printf("%zu shapes, %zu failures\n", lints.size(), bad);
    if (lints.empty()) {
        std::fprintf(stderr,
                     "msim-explore: no shapes found in %s\n",
                     config::shapeDir().c_str());
        return 1;
    }
    return bad == 0 ? 0 : 1;
}

int
cmdShow(const std::string &name)
{
    const config::MachineShape &shape = config::resolveShape(name);
    std::printf("%s\n", config::shapeToJson(shape).dump().c_str());
    return 0;
}

int
cmdCost(const std::string &name)
{
    const config::MachineShape &shape = config::resolveShape(name);
    if (!shape.multiscalar) {
        std::fprintf(stderr,
                     "msim-explore: '%s' is a scalar baseline; the "
                     "cost proxy covers multiscalar shapes\n",
                     name.c_str());
        return 1;
    }
    std::printf("%.2f\n", config::hardwareCostProxy(shape.ms));
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];

    try {
        if (command == "list")
            return cmdList();
        if (command == "lint")
            return cmdLint();
        if (command == "show" || command == "cost") {
            if (argc != 3)
                return usage();
            return command == "show" ? cmdShow(argv[2])
                                     : cmdCost(argv[2]);
        }
        if (command != "sweep") {
            std::fprintf(stderr,
                         "msim-explore: unknown command '%s'\n",
                         command.c_str());
            return usage();
        }

        exp::ExploreAxes axes;
        std::vector<std::string> workloads = bench::kPaperOrder;
        unsigned jobs = 0;
        bool smoke = false;
        std::string jsonPath, paretoPath;
        for (int i = 2; i < argc; ++i) {
            const std::string arg = argv[i];
            auto value = [&]() -> const char * {
                if (i + 1 >= argc) {
                    std::fprintf(stderr,
                                 "msim-explore: %s needs a value\n",
                                 arg.c_str());
                    std::exit(2);
                }
                return argv[++i];
            };
            if (arg == "--base") {
                axes.baseShape = value();
            } else if (arg == "--units") {
                axes.units = parseUintList(value(), "--units");
            } else if (arg == "--ring") {
                axes.ringHops = parseUintList(value(), "--ring");
            } else if (arg == "--arb") {
                axes.arbEntries = parseUintList(value(), "--arb");
            } else if (arg == "--policies") {
                axes.arbPolicies = parseStringList(value());
            } else if (arg == "--predictors") {
                axes.predictors = parseStringList(value());
            } else if (arg == "--workloads") {
                workloads = parseStringList(value());
            } else if (arg == "--jobs" || arg == "-j") {
                jobs = bench::parseJobs(value());
            } else if (arg == "--smoke") {
                smoke = true;
            } else if (arg == "--json") {
                jsonPath = value();
            } else if (arg == "--pareto") {
                paretoPath = value();
            } else {
                std::fprintf(stderr,
                             "msim-explore: unknown option '%s'\n",
                             arg.c_str());
                return usage();
            }
        }
        if (smoke) {
            const std::string base = axes.baseShape;
            axes = exp::ExploreAxes::smoke();
            axes.baseShape = base;
            workloads = bench::kSmokeOrder;
        }

        bench::BenchOptions opt;
        opt.jobs = jobs != 0 ? jobs : bench::defaultJobs();
        opt.jsonPath = jsonPath;
        exp::Experiment experiment("msim-explore");
        exp::declareExplore(experiment, axes, workloads);
        std::printf("msim-explore: %zu points x %zu workloads over "
                    "%s\n",
                    axes.numPoints(), workloads.size(),
                    axes.baseShape.c_str());
        const exp::SweepResult sweep =
            bench::runExperiment(experiment, opt);
        const exp::ExploreReport report =
            exp::computeExplore(sweep, axes, workloads);
        exp::renderExploreReport(report);
        if (!paretoPath.empty()) {
            std::ofstream os(paretoPath);
            fatalIf(!os, "cannot open --pareto file '", paretoPath,
                    "'");
            exp::writeExploreJson(os, report);
            std::printf("wrote explore report: %s\n",
                        paretoPath.c_str());
        }
        return sweep.failures() == 0 && !report.frontier.empty() ? 0
                                                                 : 1;
    } catch (const msim::FatalError &e) {
        std::fprintf(stderr, "msim-explore: %s\n", e.what());
        return 1;
    }
}
