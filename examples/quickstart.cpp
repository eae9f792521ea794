/**
 * @file
 * Quickstart: assemble a small multiscalar program, run it on a
 * 4-unit multiscalar processor and on the scalar baseline, and
 * compare. This is the smallest complete tour of the public API:
 *
 *   assembler::assemble() -> Program
 *   MultiscalarProcessor(program, MsConfig).run(max_cycles) -> RunResult
 *   ScalarProcessor(program, ScalarConfig).run(max_cycles) -> RunResult
 *
 * The program sums f(i) over i in [0, 20000) where each iteration of
 * the loop is one task: the induction variable is forwarded at the
 * top of the task (the paper's key software technique) so iterations
 * overlap across processing units.
 */

#include <cstdio>

#include "asm/assembler.hh"
#include "core/multiscalar_processor.hh"
#include "core/scalar_processor.hh"

namespace {

const char *const kProgram = R"(
        .text
main:
        li   $16, 0               # sum
        li   $20, 0               # i
        li   $21, 20000           # bound
@ms     b    LOOP             !s

@ms .task main
@ms .targets LOOP
@ms .create $16, $20, $21
@ms .endtask

@ms .task LOOP
@ms .targets LOOP:loop, DONE
@ms .create $16, $20
@ms .endtask
LOOP:
        addu $20, $20, 1      !f  # forward the induction variable
        subu $8, $20, 1           # local copy of i
        mul  $9, $8, $8           # f(i) = i*i + 3i
        mul  $10, $8, 3
        addu $9, $9, $10
        addu $16, $16, $9     !f  # accumulate (consumed late)
        bne  $20, $21, LOOP   !s

@ms .task DONE
@ms .endtask
DONE:
        move $4, $16
        li   $2, 1
        syscall                   # print the sum
        li   $2, 10
        syscall                   # exit
)";

} // namespace

int
main()
{
    using namespace msim;

    // One source, two binaries: @ms lines exist only in the
    // multiscalar assembly (task descriptors, tag bits).
    assembler::AsmOptions scalar_opts;
    scalar_opts.multiscalar = false;
    Program scalar_prog = assembler::assemble(kProgram, scalar_opts);

    assembler::AsmOptions ms_opts;
    ms_opts.multiscalar = true;
    Program ms_prog = assembler::assemble(kProgram, ms_opts);

    // A budget some ten times what either machine needs: a program
    // that loops fails in a second instead of spinning for minutes.
    const Cycle budget = 2'000'000;
    ScalarProcessor scalar(scalar_prog, ScalarConfig{});
    RunResult sr = scalar.run(budget);
    std::printf("scalar      : output=%-12s cycles=%-9llu IPC=%.2f\n",
                sr.output.c_str(), (unsigned long long)sr.cycles,
                sr.ipc());

    MsConfig cfg;
    cfg.numUnits = 4;
    MultiscalarProcessor ms(ms_prog, cfg);
    RunResult mr = ms.run(budget);
    std::printf("multiscalar : output=%-12s cycles=%-9llu IPC=%.2f\n",
                mr.output.c_str(), (unsigned long long)mr.cycles,
                mr.ipc());
    std::printf("speedup     : %.2fx with %u units "
                "(task prediction %.1f%%)\n",
                double(sr.cycles) / double(mr.cycles), cfg.numUnits,
                100.0 * mr.predAccuracy());
    return sr.output == mr.output ? 0 : 1;
}
