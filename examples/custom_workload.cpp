/**
 * @file
 * Building your own workload: a sparse matrix-vector product where
 * one task computes one row, with host-side data initialization
 * through symbol lookup and a host golden model checking the result.
 * This is the pattern every workload in src/workloads uses; start
 * here to add your own.
 */

#include <cstdio>
#include <vector>

#include "asm/assembler.hh"
#include "common/rng.hh"
#include "core/multiscalar_processor.hh"
#include "core/scalar_processor.hh"

namespace {

constexpr unsigned kRows = 400;
constexpr unsigned kNnzPerRow = 12;

// CSR-ish fixed-degree sparse matrix: for each row, kNnzPerRow
// (column, value) pairs. y[row] = sum(val * x[col]); the checksum
// folds all y values.
const char *const kProgram = R"(
        .data
NROWS:  .word 0
XVEC:   .space 4096               # x vector (host-poked)
ENTRIES: .space 38400             # rows x 12 x {col, val}
        .text
main:
        la   $20, ENTRIES
        lw   $9, NROWS
        mul  $9, $9, 96           # 12 pairs x 8 bytes per row
        addu $21, $20, $9
        la   $22, XVEC
        li   $19, 0               # checksum
@ms     b    ROW              !s

@ms .task main
@ms .targets ROW
@ms .create $19, $20, $21, $22
@ms .endtask

@ms .task ROW
@ms .targets ROW:loop, DONE
@ms .create $19, $20
@ms .endtask
ROW:
        addu $20, $20, 96     !f  # row pointer, forwarded early
        subu $8, $20, 96          # entry cursor
        li   $9, 0                # y[row]
ROWE:
        lw   $10, 0($8)           # column index
        sll  $10, $10, 2
        addu $10, $10, $22
        lw   $10, 0($10)          # x[col]
        lw   $11, 4($8)           # value
        mul  $10, $10, $11
        addu $9, $9, $10
        addu $8, $8, 8
        bne  $8, $20, ROWE
        mul  $12, $19, 7
        addu $19, $12, $9     !f  # fold y[row] (consumed late)
        bne  $20, $21, ROW    !s

@ms .task DONE
@ms .endtask
DONE:
        move $4, $19
        li   $2, 1
        syscall                   # print the checksum
        li   $4, 10
        li   $2, 11
        syscall                   # newline
        li   $2, 10
        syscall                   # exit
)";

} // namespace

int
main()
{
    using namespace msim;

    // Generate the data and compute the golden checksum on the host.
    Rng rng(2024);
    std::vector<std::int32_t> x(1024);
    for (auto &v : x)
        v = std::int32_t(rng.range(-100, 100));
    std::vector<std::uint32_t> entries;
    for (unsigned r = 0; r < kRows; ++r) {
        for (unsigned k = 0; k < kNnzPerRow; ++k) {
            entries.push_back(std::uint32_t(rng.below(x.size())));
            entries.push_back(std::uint32_t(rng.range(-9, 9)));
        }
    }
    std::uint32_t golden_u = 0;
    for (unsigned r = 0; r < kRows; ++r) {
        std::int32_t y = 0;
        for (unsigned k = 0; k < kNnzPerRow; ++k) {
            const std::uint32_t col = entries[(r * kNnzPerRow + k) * 2];
            const auto val = std::int32_t(
                entries[(r * kNnzPerRow + k) * 2 + 1]);
            y += x[col] * val;
        }
        // Wrapping fold, exactly as the 32-bit machine computes it.
        golden_u = golden_u * 7 + std::uint32_t(y);
    }
    const auto golden = std::int32_t(golden_u);

    auto poke = [&](MainMemory &mem, const Program &prog) {
        mem.write(*prog.symbol("NROWS"), kRows, 4);
        const Addr xv = *prog.symbol("XVEC");
        for (size_t i = 0; i < x.size(); ++i)
            mem.write(xv + Addr(4 * i), std::uint32_t(x[i]), 4);
        const Addr en = *prog.symbol("ENTRIES");
        for (size_t i = 0; i < entries.size(); ++i)
            mem.write(en + Addr(4 * i), entries[i], 4);
    };

    const std::string expected = std::to_string(golden) + "\n";
    std::printf("golden checksum: %d\n", golden);

    assembler::AsmOptions sc_opts;
    sc_opts.multiscalar = false;
    Program sc_prog = assembler::assemble(kProgram, sc_opts);
    // A budget some ten times what either machine needs: a program
    // that loops fails in a second instead of spinning for minutes.
    const Cycle budget = 1'000'000;
    ScalarProcessor scalar(sc_prog, ScalarConfig{});
    poke(scalar.memory(), sc_prog);
    RunResult sr = scalar.run(budget);
    std::printf("scalar : %-12s cycles=%llu %s\n",
                std::string(sr.output, 0, sr.output.find('\n')).c_str(),
                (unsigned long long)sr.cycles,
                sr.output == expected ? "PASS" : "FAIL");

    assembler::AsmOptions ms_opts;
    ms_opts.multiscalar = true;
    Program ms_prog = assembler::assemble(kProgram, ms_opts);
    MsConfig cfg;
    cfg.numUnits = 8;
    MultiscalarProcessor ms(ms_prog, cfg);
    poke(ms.memory(), ms_prog);
    RunResult mr = ms.run(budget);
    std::printf("8-unit : %-12s cycles=%llu %s (%.2fx)\n",
                std::string(mr.output, 0, mr.output.find('\n')).c_str(),
                (unsigned long long)mr.cycles,
                mr.output == expected ? "PASS" : "FAIL",
                double(sr.cycles) / double(mr.cycles));
    return (sr.output == expected && mr.output == expected) ? 0 : 1;
}
