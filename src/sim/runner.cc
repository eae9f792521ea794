#include "sim/runner.hh"

#include "asm/assembler.hh"
#include "common/logging.hh"
#include "core/multiscalar_processor.hh"

namespace msim {

Program
assembleWorkload(const workloads::Workload &workload, bool multiscalar,
                 const std::set<std::string> &defines)
{
    assembler::AsmOptions opts;
    opts.multiscalar = multiscalar;
    opts.defines = defines;
    opts.fileName = workload.name + (multiscalar ? ".ms.s" : ".sc.s");
    return assembler::assemble(workload.source, opts);
}

namespace {

/** Build a processor, run the session, return the raw result. */
template <typename Proc, typename Config>
RunResult
runSession(const CompiledWorkload &compiled, Config cfg,
           const RunSpec &spec)
{
    if (spec.trace.enabled)
        cfg.trace = spec.trace;
    Proc proc(compiled.program, cfg);
    if (compiled.workload.init)
        compiled.workload.init(proc.memory(), compiled.program);
    proc.setInput(compiled.workload.input);
    return proc.run(spec.maxCycles);
}

} // namespace

RunResult
runCompiled(const CompiledWorkload &compiled, const RunSpec &spec)
{
    fatalIf(spec.multiscalar != compiled.multiscalar,
            "runCompiled: spec wants the ",
            spec.multiscalar ? "multiscalar" : "scalar",
            " machine but '", compiled.workload.name,
            "' was assembled for the ",
            compiled.multiscalar ? "multiscalar" : "scalar", " one");
    fatalIf(spec.defines != compiled.defines,
            "runCompiled: spec defines differ from the ones '",
            compiled.workload.name, "' was assembled with");

    RunResult result =
        spec.multiscalar
            ? runSession<MultiscalarProcessor>(compiled, spec.ms, spec)
            : runSession<ScalarProcessor>(compiled, spec.scalar, spec);

    if (result.hitMaxCycles) {
        std::ostringstream os;
        os << "fatal: workload " << compiled.workload.name
           << " exhausted its cycle budget (maxCycles=" << spec.maxCycles
           << ") without reaching the exit syscall after "
           << result.cycles << " cycles";
        throw BudgetExhaustedError(os.str(), result.cycles,
                                   spec.maxCycles);
    }
    fatalIf(!result.exited, "workload ", compiled.workload.name,
            " stopped without exiting (and without hitting the cycle "
            "budget — simulator bug?)");
    if (spec.checkOutput) {
        fatalIf(result.output != compiled.workload.expected,
                "workload ", compiled.workload.name,
                " produced wrong output.\n  expected: ",
                compiled.workload.expected, "\n  actual:   ",
                result.output);
    }
    return result;
}

RunResult
runWorkload(const workloads::Workload &workload, const RunSpec &spec)
{
    auto compiled =
        compileWorkload(workload, spec.multiscalar, spec.defines);
    return runCompiled(*compiled, spec);
}

} // namespace msim
