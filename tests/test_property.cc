/**
 * @file
 * Property-based differential testing: randomly generated multiscalar
 * programs (random ALU bodies, random shared-memory loads and stores,
 * random cross-task register traffic, floating-point dataflow,
 * explicit and implicit register releases, and data-dependent
 * early-exit control flow) must produce exactly the output of the
 * sequential reference interpreter on every machine shape — scalar,
 * and multiscalar with varying unit counts, issue disciplines, ring
 * latencies and ARB capacities. The shared-memory traffic (4-byte
 * integer and 8-byte FP accesses over the same array) makes
 * dependence violations — and thus squash/recovery — common, and the
 * early-exit branches make task-successor mispredictions common, so
 * this sweeps the hardest paths of the whole machine. Every run also
 * asserts the exact cycle-accounting invariant and the multiscalar
 * default shape is additionally run with the quiescence fast-forward
 * disabled: the cycle counts must be bit-identical either way.
 *
 * Neither check pins the timing itself: the reference compares only
 * outputs, and a timing change that moves both fast-forward sides
 * alike passes the differential. So every seed's cycle counts, plus
 * a digest of every run's eight cycle-accounting totals, must also
 * match the checked-in snapshot tests/golden/fuzz_cycles.json.
 * Regenerating it after an *intended* timing change:
 *
 *     cd build && MSIM_REGEN_GOLDEN=1 ./tests/test_property
 *
 * rewrites the rows of the seeds that ran (the path is baked in via
 * the MSIM_GOLDEN_DIR compile definition) and keeps the others.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "asm/assembler.hh"
#include "common/fnv1a.hh"
#include "common/rng.hh"
#include "core/multiscalar_processor.hh"
#include "core/scalar_processor.hh"
#include "golden_file.hh"
#include "sim/compiled_workload.hh"
#include "sim/reference.hh"

namespace msim {
namespace {

/** Generate a random multiscalar program from a seed. */
std::string
generateProgram(std::uint64_t seed)
{
    Rng rng(seed);
    std::ostringstream os;

    const unsigned iters = 16 + unsigned(rng.below(48));
    const unsigned body_ops = 4 + unsigned(rng.below(10));
    const bool use_fp = rng.below(2) == 0;
    const bool early_exit = rng.below(5) < 2;

    os << "        .data\n";
    os << "DATA:   .space 256\n";
    os << "        .text\n";
    os << "main:\n";
    for (int r = 16; r <= 19; ++r)
        os << "        li   $" << r << ", " << rng.range(-999, 999)
           << "\n";
    os << "        li   $20, 0\n";
    os << "        li   $21, " << iters << "\n";
    os << "        la   $22, DATA\n";
    if (use_fp) {
        // FP cross registers start as exact small integers.
        os << "        cvt.d.w $f20, $16\n";
        os << "        cvt.d.w $f21, $17\n";
    }
    os << "@ms     b    LOOP !s\n";
    os << "@ms .task main\n";
    os << "@ms .targets LOOP\n";
    os << "@ms .create $16, $17, $18, $19, $20, $21, $22";
    if (use_fp)
        os << ", $f20, $f21";
    os << "\n";
    os << "@ms .endtask\n";

    // Generate the loop body, tracking which temporaries are defined
    // (a task must never read an inherited temporary) and the last
    // writer of each cross-task register (it gets the forward bit).
    struct Op
    {
        std::string text;
        int crossDest = -1;    // 16..19 when writing a cross register
        int fpCrossDest = -1;  // 20..21 when writing $f20/$f21
    };
    std::vector<Op> body;
    bool temp_defined[16] = {};     // $8..$15 -> [8..15]
    bool cross_written[20] = {};
    bool fp_temp_defined[12] = {};  // $f8..$f11 -> [8..11]
    bool fp_cross_written[22] = {}; // $f20/$f21 -> [20..21]

    auto src_reg = [&]() -> std::string {
        for (int tries = 0; tries < 8; ++tries) {
            const unsigned pick = unsigned(rng.below(14));
            if (pick < 8) {
                if (temp_defined[8 + pick])
                    return "$" + std::to_string(8 + pick);
            } else if (pick < 12) {
                return "$" + std::to_string(16 + (pick - 8));
            } else if (pick == 12) {
                return "$20";
            } else {
                return "$0";
            }
        }
        return "$20";
    };

    // An FP source: a defined FP temporary or an FP cross register.
    auto fp_src = [&]() -> std::string {
        for (int tries = 0; tries < 8; ++tries) {
            const unsigned pick = unsigned(rng.below(6));
            if (pick < 4) {
                if (fp_temp_defined[8 + pick])
                    return "$f" + std::to_string(8 + pick);
            } else {
                return "$f" + std::to_string(20 + (pick - 4));
            }
        }
        return "$f20";
    };

    for (unsigned i = 0; i < body_ops; ++i) {
        const unsigned kind = unsigned(rng.below(use_fp ? 14 : 10));
        Op op;
        if (kind >= 10) {
            if (kind == 10) {
                // FP ALU: dest is an FP temp (60%) or FP cross (40%).
                // Sources are drawn before the destination is marked
                // defined: a temp read before its first in-task write
                // would be stale across task boundaries.
                static const char *fops[] = {"add.d", "sub.d", "mul.d"};
                const char *mn = fops[rng.below(3)];
                const std::string s1 = fp_src();
                const std::string s2 = fp_src();
                std::string dest;
                if (rng.below(10) < 6) {
                    const int t = 8 + int(rng.below(4));
                    dest = "$f" + std::to_string(t);
                    fp_temp_defined[t] = true;
                } else {
                    const int c = 20 + int(rng.below(2));
                    dest = "$f" + std::to_string(c);
                    op.fpCrossDest = c;
                    fp_cross_written[c] = true;
                }
                op.text = "        " + std::string(mn) + " " + dest +
                          ", " + s1 + ", " + s2;
            } else if (kind == 11) {
                // Conversion round trip: an int32 survives the double
                // format exactly, so cvt.w.d stays in range (the raw
                // int cast in the executor is UB on overflow).
                const int ft = 8 + int(rng.below(4));
                const int t = 8 + int(rng.below(8));
                const std::string s = src_reg();
                fp_temp_defined[ft] = true;
                temp_defined[t] = true;
                op.text = "        cvt.d.w $f" + std::to_string(ft) +
                          ", " + s + "\n        cvt.w.d $" +
                          std::to_string(t) + ", $f" +
                          std::to_string(ft);
            } else if (kind == 12) {
                // 8-byte FP store over the shared (integer) array.
                const unsigned off = unsigned(rng.below(31)) * 8;
                op.text = "        sdc1 " + fp_src() + ", " +
                          std::to_string(off) + "($22)";
            } else {
                // 8-byte FP load (arbitrary bit patterns are fine:
                // both machines and the reference use host doubles).
                const int ft = 8 + int(rng.below(4));
                fp_temp_defined[ft] = true;
                const unsigned off = unsigned(rng.below(31)) * 8;
                op.text = "        ldc1 $f" + std::to_string(ft) +
                          ", " + std::to_string(off) + "($22)";
            }
            body.push_back(op);
            continue;
        }
        if (kind < 5) {
            // ALU: dest is a temp (60%) or a cross register (40%).
            static const char *ops[] = {"addu", "subu", "xor", "and",
                                        "or", "slt", "mul"};
            const char *mn = ops[rng.below(7)];
            // Draw sources before marking the destination defined: an
            // op must not read its own dest as a not-yet-written temp
            // (undeclared temps do not travel across task boundaries).
            const std::string s1 = src_reg();
            const std::string s2 = src_reg();
            std::string dest;
            if (rng.below(10) < 6) {
                const int t = 8 + int(rng.below(8));
                dest = "$" + std::to_string(t);
                temp_defined[t] = true;
            } else {
                const int c = 16 + int(rng.below(4));
                dest = "$" + std::to_string(c);
                op.crossDest = c;
                cross_written[c] = true;
            }
            op.text = "        " + std::string(mn) + " " + dest +
                      ", " + s1 + ", " + s2;
        } else if (kind < 7) {
            // ALU immediate (source drawn before the dest is marked
            // defined, as above).
            const int t = 8 + int(rng.below(8));
            const std::string s = src_reg();
            temp_defined[t] = true;
            op.text = "        addiu $" + std::to_string(t) + ", " +
                      s + ", " +
                      std::to_string(rng.range(-100, 100));
        } else if (kind < 9) {
            // Store to the shared array.
            const unsigned off = unsigned(rng.below(64)) * 4;
            op.text = "        sw   " + src_reg() + ", " +
                      std::to_string(off) + "($22)";
        } else {
            // Load from the shared array.
            const int t = 8 + int(rng.below(8));
            temp_defined[t] = true;
            const unsigned off = unsigned(rng.below(64)) * 4;
            op.text = "        lw   $" + std::to_string(t) + ", " +
                      std::to_string(off) + "($22)";
        }
        body.push_back(op);
    }

    // Forward bits on the last writer of each cross register.
    for (int c = 16; c <= 19; ++c) {
        for (auto it = body.rbegin(); it != body.rend(); ++it) {
            if (it->crossDest == c) {
                it->text += " !f";
                break;
            }
        }
    }
    for (int c = 20; c <= 21; ++c) {
        for (auto it = body.rbegin(); it != body.rend(); ++it) {
            if (it->fpCrossDest == c) {
                it->text += " !f";
                break;
            }
        }
    }

    // A data-dependent early exit: when a random value collides with
    // the iteration counter the task chain ends at DONE instead of
    // looping — the task predictor mispredicts, so squash-and-restart
    // of the in-flight successors becomes a common event.
    if (early_exit) {
        // The branch source must be a cross register: it can land at
        // any body position, and only create-mask registers have a
        // defined value at every point of a task. ($21 is the loop
        // bound, so $21==$20 fires exactly at the final iteration.)
        const int c = 16 + int(rng.below(6));
        Op op;
        op.text = "        beq  $" + std::to_string(c) +
                  ", $20, DONE !st";
        const size_t at = rng.below(body.size() + 1);
        body.insert(body.begin() + std::ptrdiff_t(at), op);
    }

    // Unwritten cross registers: some are released explicitly at a
    // random point (the inherited value travels on early), some stay
    // in the create mask with no writer and no release, exercising
    // the implicit release of inherited values at task exit.
    bool cross_released[20] = {};
    bool cross_inherit[20] = {};
    for (int c = 16; c <= 19; ++c) {
        if (cross_written[c])
            continue;
        const unsigned roll = unsigned(rng.below(4));
        if (roll == 0) {
            Op op;
            op.text = "@ms     release $" + std::to_string(c);
            const size_t at = rng.below(body.size() + 1);
            body.insert(body.begin() + std::ptrdiff_t(at), op);
            cross_released[c] = true;
        } else if (roll == 1) {
            cross_inherit[c] = true;
        }
    }

    os << "@ms .task LOOP\n";
    os << "@ms .targets LOOP:loop, DONE\n";
    os << "@ms .create $20";
    for (int c = 16; c <= 19; ++c) {
        if (cross_written[c] || cross_released[c] || cross_inherit[c])
            os << ", $" << c;
    }
    for (int c = 20; c <= 21; ++c) {
        if (fp_cross_written[c])
            os << ", $f" << c;
    }
    os << "\n@ms .endtask\n";
    os << "LOOP:\n";
    os << "        addu $20, $20, 1 !f\n";
    for (const Op &op : body)
        os << op.text << "\n";
    os << "        bne  $20, $21, LOOP !s\n";

    os << "@ms .task DONE\n";
    os << "@ms .endtask\n";
    os << "DONE:\n";
    if (use_fp) {
        // Fold the (possibly forwarded) FP cross registers into the
        // checksummed array as raw bit patterns — no conversion, so
        // unbounded FP values stay UB-free.
        os << "        sdc1 $f20, 0($22)\n";
        os << "        sdc1 $f21, 8($22)\n";
    }
    // Checksum: fold the cross registers and the shared array.
    os << "        li   $2, 0\n";
    for (int c = 16; c <= 19; ++c) {
        os << "        mul  $2, $2, 31\n";
        os << "        addu $2, $2, $" << c << "\n";
    }
    os << "        move $8, $22\n";
    os << "        addu $9, $22, 256\n";
    os << "CHK:    lw   $10, 0($8)\n";
    os << "        mul  $2, $2, 31\n";
    os << "        addu $2, $2, $10\n";
    os << "        addu $8, $8, 4\n";
    os << "        bne  $8, $9, CHK\n";
    os << "        move $4, $2\n";
    os << "        li   $2, 1\n";
    os << "        syscall\n";
    os << "        li   $2, 10\n";
    os << "        syscall\n";
    return os.str();
}

/** One seed's timing: cycles of every run, digest of its accounting. */
struct FuzzTiming
{
    std::vector<std::uint64_t> cycles;
    /** FNV-1a 64 over every run's eight CycleCat totals. */
    std::uint64_t digest = kFnv1aBasis;

    /** Fold @p r's accounting totals into the digest. */
    void
    fold(const RunResult &r)
    {
        for (std::uint64_t v : r.accounting.total)
            digest = fnv1a(digest, &v, sizeof v);
    }

    /** Record @p r's cycle count and fold its accounting. */
    void
    add(const RunResult &r)
    {
        cycles.push_back(r.cycles);
        fold(r);
    }
};

const GoldenFile &
fuzzGolden()
{
    static const GoldenFile file("fuzz_cycles.json", "test_property");
    return file;
}

/** Parse the snapshot: one `{ "seed": N, "cycles": [...], ... }` a line. */
std::map<int, FuzzTiming>
readFuzzGolden()
{
    std::map<int, FuzzTiming> rows;
    std::istringstream in(fuzzGolden().read());
    std::string line;
    while (std::getline(in, line)) {
        const size_t seed_at = line.find("\"seed\":");
        const size_t open = line.find('[');
        const size_t close = line.find(']');
        const size_t digest_at = line.find("\"digest\": \"");
        if (seed_at == std::string::npos || open == std::string::npos ||
            close == std::string::npos || digest_at == std::string::npos)
            continue;
        FuzzTiming row;
        const char *p = line.c_str() + open + 1;
        const char *end = line.c_str() + close;
        while (p < end) {
            char *next = nullptr;
            row.cycles.push_back(std::strtoull(p, &next, 10));
            p = next + 1;  // past the comma
        }
        row.digest = std::strtoull(line.c_str() + digest_at + 11,
                                   nullptr, 16);
        rows[std::atoi(line.c_str() + seed_at + 7)] = row;
    }
    return rows;
}

const std::map<int, FuzzTiming> &
fuzzRows()
{
    static const std::map<int, FuzzTiming> rows = readFuzzGolden();
    return rows;
}

/** Rows measured in MSIM_REGEN_GOLDEN=1 mode. */
std::map<int, FuzzTiming> &
regenRows()
{
    static std::map<int, FuzzTiming> rows;
    return rows;
}

/** Writes the regenerated snapshot after all seeds ran. */
class FuzzRegenWriter : public ::testing::Environment
{
  public:
    void
    TearDown() override
    {
        if (!GoldenFile::regenerating() || regenRows().empty())
            return;
        std::map<int, FuzzTiming> rows = readFuzzGolden();
        for (const auto &[seed, row] : regenRows())
            rows[seed] = row;
        std::ostringstream out;
        out << "{\n  \"schema\": \"msim-golden-fuzz-v1\",\n"
            << "  \"rows\": [\n";
        size_t i = 0;
        for (const auto &[seed, row] : rows) {
            out << "    { \"seed\": " << seed << ", \"cycles\": [";
            for (size_t k = 0; k < row.cycles.size(); ++k)
                out << (k ? ", " : "") << row.cycles[k];
            char digest[19];
            std::snprintf(digest, sizeof(digest), "0x%016llx",
                          static_cast<unsigned long long>(row.digest));
            out << "], \"digest\": \"" << digest << "\" }"
                << (++i < rows.size() ? "," : "") << "\n";
        }
        out << "  ]\n}\n";
        fuzzGolden().write(out.str());
    }
};

const ::testing::Environment *const kFuzzRegenWriter =
    ::testing::AddGlobalTestEnvironment(new FuzzRegenWriter);

class RandomProgram : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomProgram, AllMachinesMatchTheReference)
{
    const std::string src =
        generateProgram(std::uint64_t(GetParam()) * 1099511628211ull +
                        17);

    assembler::AsmOptions ms_opts;
    ms_opts.multiscalar = true;
    Program ms_prog = assembler::assemble(src, ms_opts);
    assembler::AsmOptions sc_opts;
    sc_opts.multiscalar = false;
    Program sc_prog = assembler::assemble(src, sc_opts);

    ReferenceResult ref = referenceRun(sc_prog);
    ASSERT_TRUE(ref.exited);
    FuzzTiming timing;

    {
        ScalarProcessor scalar(sc_prog, ScalarConfig{});
        RunResult r = scalar.run(5'000'000);
        ASSERT_TRUE(r.exited);
        EXPECT_EQ(r.output, ref.output) << "scalar\n" << src;
        EXPECT_EQ(r.instructions, ref.instructions);
        EXPECT_EQ(r.accounting.sum(),
                  r.cycles * r.accounting.numUnits)
            << "scalar accounting invariant\n" << src;
        timing.add(r);
    }

    struct Shape
    {
        const char *name;
        MsConfig cfg;
    };
    std::vector<Shape> shapes;
    // Every shape also runs with both dynamic oracles armed: the
    // write-set oracle (at each task retire the actually written and
    // explicitly forwarded register sets must be contained in the
    // static analysis' may-sets) and the memory-dependence oracle
    // (every ARB violation's store-task/load-task/address triple must
    // lie inside the static may-conflict prediction). Both panic on a
    // miss, so 200 seeds x 8 shapes continuously cross-check the
    // static analyses against the machine.
    {
        Shape s;
        s.name = "2-unit";
        s.cfg.numUnits = 2;
        s.cfg.writeSetOracle = true;
        s.cfg.memDepOracle = true;
        shapes.push_back(s);
    }
    {
        Shape s;
        s.name = "4-unit";
        s.cfg.numUnits = 4;
        s.cfg.writeSetOracle = true;
        s.cfg.memDepOracle = true;
        shapes.push_back(s);
    }
    {
        Shape s;
        s.name = "8-unit 2-way ooo";
        s.cfg.numUnits = 8;
        s.cfg.writeSetOracle = true;
        s.cfg.memDepOracle = true;
        s.cfg.pu.issueWidth = 2;
        s.cfg.pu.outOfOrder = true;
        shapes.push_back(s);
    }
    {
        Shape s;
        s.name = "4-unit slow ring";
        s.cfg.numUnits = 4;
        s.cfg.writeSetOracle = true;
        s.cfg.memDepOracle = true;
        s.cfg.ringHopLatency = 3;
        shapes.push_back(s);
    }
    {
        Shape s;
        s.name = "8-unit tiny arb (stall)";
        s.cfg.numUnits = 8;
        s.cfg.writeSetOracle = true;
        s.cfg.memDepOracle = true;
        s.cfg.arbEntriesPerBank = 2;
        s.cfg.arbFullPolicy = ArbFullPolicy::kStall;
        shapes.push_back(s);
    }
    {
        Shape s;
        s.name = "4-unit tiny arb (squash)";
        s.cfg.numUnits = 4;
        s.cfg.writeSetOracle = true;
        s.cfg.memDepOracle = true;
        s.cfg.arbEntriesPerBank = 2;
        s.cfg.arbFullPolicy = ArbFullPolicy::kSquash;
        shapes.push_back(s);
    }
    {
        // A deliberately tiny inclusive L2 (1 KB direct-mapped, one
        // bank, one MSHR): constant evictions, back-invalidations of
        // live L1 lines, and MSHR stalls, all under speculation.
        Shape s;
        s.name = "4-unit tiny inclusive L2";
        s.cfg.numUnits = 4;
        s.cfg.writeSetOracle = true;
        s.cfg.memDepOracle = true;
        s.cfg.l2.emplace();
        s.cfg.l2->sizeBytes = 1024;
        s.cfg.l2->assoc = 1;
        s.cfg.l2->numBanks = 1;
        s.cfg.l2->mshrsPerBank = 1;
        s.cfg.l2->inclusion = L2Inclusion::kInclusive;
        shapes.push_back(s);
    }
    {
        // Exclusive policy exercises the supply-and-invalidate and
        // victim-allocation paths instead.
        Shape s;
        s.name = "4-unit tiny exclusive L2";
        s.cfg.numUnits = 4;
        s.cfg.writeSetOracle = true;
        s.cfg.memDepOracle = true;
        s.cfg.l2.emplace();
        s.cfg.l2->sizeBytes = 2048;
        s.cfg.l2->assoc = 2;
        s.cfg.l2->numBanks = 2;
        s.cfg.l2->mshrsPerBank = 2;
        s.cfg.l2->inclusion = L2Inclusion::kExclusive;
        shapes.push_back(s);
    }

    std::uint64_t arbViolations = 0;
    for (const Shape &shape : shapes) {
        MultiscalarProcessor proc(ms_prog, shape.cfg);
        RunResult r = proc.run(5'000'000);
        ASSERT_TRUE(r.exited) << shape.name << "\n" << src;
        EXPECT_EQ(r.output, ref.output) << shape.name << "\n" << src;
        // The exact accounting invariant: every unit-cycle lands in
        // exactly one category, even across squashes and skips.
        EXPECT_EQ(r.accounting.sum(),
                  r.cycles * r.accounting.numUnits)
            << shape.name << " accounting invariant\n" << src;
        arbViolations += r.memorySquashes;
        timing.add(r);
    }
    // Every one of these violations passed through the mem-dep
    // oracle's containment check above (a miss panics); record the
    // per-seed count so squash-heavy seeds are identifiable from the
    // test log.
    RecordProperty("arb_violations",
                   static_cast<int>(arbViolations));
    std::printf("[seed %d] arb violations across shapes: %llu\n",
                GetParam(),
                static_cast<unsigned long long>(arbViolations));

    // The quiescence fast-forward must be cycle-exact on arbitrary
    // squash-heavy programs, not just the curated workloads: each
    // differential shape re-run with fast-forward disabled must
    // agree on every timing observable. The L2-enabled variant uses
    // the slow bus and a tiny single-MSHR L2 so quiescent windows
    // routinely end on an in-flight L2 fill (the nextEventCycle
    // extension this PR adds).
    auto ffDifferential = [&](MsConfig cfg, const char *tag) {
        MsConfig on_cfg = cfg;
        MsConfig off_cfg = cfg;
        on_cfg.writeSetOracle = true;
        off_cfg.writeSetOracle = true;
        on_cfg.memDepOracle = true;
        off_cfg.memDepOracle = true;
        off_cfg.fastForward = false;
        MultiscalarProcessor on_proc(ms_prog, on_cfg);
        MultiscalarProcessor off_proc(ms_prog, off_cfg);
        RunResult on = on_proc.run(5'000'000);
        RunResult off = off_proc.run(5'000'000);
        ASSERT_TRUE(on.exited && off.exited) << tag << "\n" << src;
        timing.add(on);
        timing.fold(off);
        EXPECT_EQ(on.cycles, off.cycles)
            << tag << " fast-forward drift\n" << src;
        EXPECT_EQ(on.output, off.output) << tag << "\n" << src;
        EXPECT_EQ(on.instructions, off.instructions) << tag << "\n"
                                                     << src;
        EXPECT_EQ(on.tasksSquashed, off.tasksSquashed) << tag << "\n"
                                                       << src;
        EXPECT_EQ(off.fastForwardedCycles, 0u) << tag << "\n" << src;
        for (size_t cat = 0; cat < kNumCycleCats; ++cat) {
            EXPECT_EQ(on.accounting.total[cat],
                      off.accounting.total[cat])
                << tag << " " << cycleCatName(CycleCat(cat)) << "\n"
                << src;
        }
    };
    ffDifferential(MsConfig{}, "default");
    {
        MsConfig l2_cfg;
        l2_cfg.bus.firstBeatLatency = 100;
        l2_cfg.l2.emplace();
        l2_cfg.l2->sizeBytes = 1024;
        l2_cfg.l2->assoc = 1;
        l2_cfg.l2->numBanks = 1;
        l2_cfg.l2->mshrsPerBank = 1;
        l2_cfg.l2->inclusion = L2Inclusion::kInclusive;
        ffDifferential(l2_cfg, "tiny inclusive L2 + slow bus");
    }

    // Cycles: scalar, the eight shapes, then the two fast-forward
    // configs (their FF-off twins fold into the digest only).
    if (GoldenFile::regenerating()) {
        regenRows()[GetParam()] = timing;
        return;
    }
    SCOPED_TRACE(fuzzGolden().regenHint());
    const auto it = fuzzRows().find(GetParam());
    ASSERT_NE(it, fuzzRows().end())
        << "no row for seed " << GetParam() << " in "
        << fuzzGolden().path();
    EXPECT_EQ(timing.cycles, it->second.cycles) << "seed " << GetParam();
    EXPECT_EQ(timing.digest, it->second.digest)
        << "seed " << GetParam() << " cycle-accounting digest";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgram,
                         ::testing::Range(0, 200));

/*
 * Shape space: every MsConfig that validate() accepts must run, and
 * fast-forward must be exact on it. Each case draws a seeded random
 * shape (units, issue, window, fetch buffer, ring latency, caches,
 * ARB size and full policy, predictor, bus, an optional L2) and runs
 * one small workload with fast-forward on and off. The two runs must
 * agree on cycles, output and the eight accounting totals, or throw
 * the same DeadlockError (cycle and dump); a PanicError fails the
 * case, and a run that exits must print the expected output.
 */

/** A shape and the workload it runs. */
struct ShapeCase
{
    std::string name;
    MsConfig cfg;
    const char *workload;
};

/** @return a random shape that validates, drawn from @p rng. */
MsConfig
randomShape(Rng &rng)
{
    MsConfig c;
    c.numUnits = unsigned(rng.range(1, 12));
    c.pu.issueWidth = unsigned(rng.range(1, 2));
    c.pu.outOfOrder = rng.below(2) == 0;
    c.pu.windowSize = unsigned(rng.range(1, 24));
    c.pu.fetchBufferSize = unsigned(rng.range(c.pu.issueWidth, 12));
    c.pu.intraBranchPredict = rng.below(2) == 0;
    c.ringHopLatency = unsigned(rng.range(1, 4));
    c.icache.sizeBytes = std::size_t(1) << rng.range(7, 15);
    c.numBanks = rng.below(2) == 0 ? 0 : unsigned(1) << rng.range(0, 4);
    c.bankSizeBytes = std::size_t(1) << rng.range(7, 13);
    c.arbEntriesPerBank =
        rng.below(3) == 0 ? 256 : unsigned(rng.range(1, 8));
    c.arbFullPolicy = rng.below(2) == 0 ? ArbFullPolicy::kSquash
                                        : ArbFullPolicy::kStall;
    c.predictor = std::array{"pas", "last", "static"}[rng.below(3)];
    c.rasEntries = unsigned(rng.range(1, 64));
    c.descCacheEntries = unsigned(1) << rng.range(0, 10);
    c.bus.firstBeatLatency = unsigned(rng.range(1, 100));
    if (rng.below(4) == 0) {
        L2Params l2;
        l2.numBanks = unsigned(1) << rng.range(0, 2);
        l2.assoc = unsigned(1) << rng.range(0, 2);
        l2.mshrsPerBank = unsigned(rng.range(1, 4));
        l2.sizeBytes = l2.numBanks * l2.assoc * 64 *
                       (std::size_t(1) << rng.range(2, 8));
        l2.inclusion = std::array{L2Inclusion::kNine,
                                  L2Inclusion::kInclusive,
                                  L2Inclusion::kExclusive}[rng.below(3)];
        c.l2 = l2;
    }
    c.validate();
    return c;
}

/** The pinned rows, then kRandomShapes seeded random ones. */
const std::vector<ShapeCase> &
shapeCases()
{
    constexpr int kRandomShapes = 48;
    static const std::vector<ShapeCase> cases = [] {
        std::vector<ShapeCase> out;
        // Every unit's oldest slot is a load due ~155k cycles later:
        // fast-forward once jumped past the watchdog and finished.
        MsConfig sc;
        sc.numUnits = 3;
        sc.pu.issueWidth = 2;
        sc.ringHopLatency = 2;
        sc.bankSizeBytes = 256;
        sc.arbEntriesPerBank = 5;
        sc.arbFullPolicy = ArbFullPolicy::kSquash;
        out.push_back({"sc_arb5_squash", sc, "sc"});
        const std::array workloads{"wc", "cmp", "eqntott", "sc", "xlisp"};
        for (int seed = 0; seed < kRandomShapes; ++seed) {
            Rng rng(0x5ba9e + std::uint64_t(seed));
            const MsConfig cfg = randomShape(rng);
            out.push_back({"seed" + std::to_string(seed), cfg,
                           workloads[rng.below(workloads.size())]});
        }
        return out;
    }();
    return cases;
}

/** How one run of a shape ended. */
struct ShapeOutcome
{
    RunResult result;
    /** Set when the watchdog fired: its cycle and dump. */
    std::optional<DeadlockError> deadlock;
};

ShapeOutcome
runShape(const CompiledWorkload &compiled, const MsConfig &cfg)
{
    MultiscalarProcessor proc(compiled.program, cfg);
    if (compiled.workload.init)
        compiled.workload.init(proc.memory(), compiled.program);
    proc.setInput(compiled.workload.input);
    ShapeOutcome out;
    try {
        out.result = proc.run(500'000);
    } catch (const DeadlockError &e) {
        out.deadlock = e;
    }
    return out;
}

class ShapeSpace : public ::testing::TestWithParam<size_t>
{
};

TEST_P(ShapeSpace, FastForwardIsExact)
{
    const ShapeCase &sc = shapeCases().at(GetParam());
    SCOPED_TRACE(sc.name + " " + sc.workload + " on " +
                 std::to_string(sc.cfg.numUnits) + " units");
    const auto compiled = compileWorkload(sc.workload, /*multiscalar=*/true);
    MsConfig off_cfg = sc.cfg;
    off_cfg.fastForward = false;
    const ShapeOutcome on = runShape(*compiled, sc.cfg);
    const ShapeOutcome off = runShape(*compiled, off_cfg);
    std::printf("[%s] %s: %s at cycle %llu\n", sc.name.c_str(),
                sc.workload,
                on.deadlock        ? "deadlock"
                : on.result.exited ? "exit"
                                   : "budget",
                static_cast<unsigned long long>(
                    on.deadlock ? on.deadlock->cycle : on.result.cycles));
    ASSERT_EQ(bool(on.deadlock), bool(off.deadlock));
    if (on.deadlock) {
        EXPECT_EQ(on.deadlock->cycle, off.deadlock->cycle);
        EXPECT_EQ(on.deadlock->state, off.deadlock->state);
        return;
    }
    EXPECT_EQ(on.result.cycles, off.result.cycles);
    EXPECT_EQ(on.result.output, off.result.output);
    EXPECT_EQ(off.result.fastForwardedCycles, 0u);
    for (size_t cat = 0; cat < kNumCycleCats; ++cat) {
        EXPECT_EQ(on.result.accounting.total[cat],
                  off.result.accounting.total[cat])
            << cycleCatName(CycleCat(cat));
    }
    if (on.result.exited) {
        EXPECT_EQ(on.result.output, compiled->workload.expected);
    }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeSpace,
                         ::testing::Range(size_t(0), shapeCases().size()),
                         [](const auto &info) {
                             return shapeCases().at(info.param).name;
                         });

} // namespace
} // namespace msim
