/**
 * @file
 * Static verifier tests: one minimal reproducer per diagnostic (each
 * register pass has a program that triggers it and a near-identical
 * clean twin; each task-structure check has a program that breaks
 * it), CFG construction facts (exits, halt detection,
 * context-sensitive walk, truncation on unbounded recursion), the
 * task graph's successors and Graphviz form, report formatting, the
 * msim-lint tool, the strict assembler gate, the memory-dependence
 * analysis and its oracle, and every shipped workload linting clean.
 */

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "analysis/mem_dep.hh"
#include "analysis/verifier.hh"
#include "asm/assembler.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "golden_file.hh"
#include "sim/runner.hh"
#include "workloads/workload.hh"

namespace msim {
namespace {

using analysis::AnalysisReport;
using analysis::AnnotationVerifier;
using analysis::PassId;
using analysis::Severity;
using analysis::TaskCfg;

Program
ms(const std::string &src)
{
    assembler::AsmOptions opts;
    opts.multiscalar = true;
    return assembler::assemble(src, opts);
}

/**
 * Assemble, verify, and return the report. The program is kept alive
 * for the verifier's lifetime inside this helper.
 */
AnalysisReport
lint(const std::string &src)
{
    Program p = ms(src);
    AnnotationVerifier v(p);
    return v.verify();
}

unsigned
count(const AnalysisReport &rep, PassId pass)
{
    unsigned n = 0;
    for (const auto &d : rep.diagnostics)
        if (d.pass == pass)
            ++n;
    return n;
}

const analysis::Diagnostic *
find(const AnalysisReport &rep, PassId pass)
{
    for (const auto &d : rep.diagnostics)
        if (d.pass == pass)
            return &d;
    return nullptr;
}

// A fully annotated two-task loop: every pass comes back clean.
const char *const kClean = R"(
        .text
main:   li   $20, 0 !f
        li   $21, 8 !f
        b    LOOP !s
.task main
.targets LOOP
.create $20, $21
.endtask
.task LOOP
.targets LOOP:loop, DONE
.create $20
.endtask
LOOP:
        addu $20, $20, 1 !f
        bne  $20, $21, LOOP !s
.task DONE
.endtask
DONE:
        move $4, $20
        li   $2, 1
        syscall
        li   $2, 10
        syscall
)";

TEST(Analysis, CleanProgramHasNoDiagnostics)
{
    const AnalysisReport rep = lint(kClean);
    EXPECT_TRUE(rep.diagnostics.empty()) << rep.toText();
    EXPECT_FALSE(rep.hasErrors());
    EXPECT_EQ(rep.numTasks, 3u);
    EXPECT_EQ(rep.truncatedTasks, 0u);
}

// ---- pass 1: mask soundness ----------------------------------------

// A writes $8 outside its create mask; B reads it before redefining.
// In scalar execution B sees 5; in multiscalar the write stays local
// to A's unit and B reads whatever $8 held before A.
const char *const kMaskUnsound = R"(
        .text
main:   li   $20, 0 !f
        b    A !s
.task main
.targets A
.create $20
.endtask
.task A
.targets B
.create $20
.endtask
A:      li   $8, 5
        addu $20, $20, 1 !f
        b    B !s
.task B
.endtask
B:      move $4, $8
        li   $2, 1
        syscall
        li   $2, 10
        syscall
)";

TEST(Analysis, MaskSoundnessFlagsEscapingWrite)
{
    const AnalysisReport rep = lint(kMaskUnsound);
    ASSERT_EQ(count(rep, PassId::kMaskSoundness), 1u) << rep.toText();
    const auto *d = find(rep, PassId::kMaskSoundness);
    EXPECT_EQ(d->severity, Severity::kError);
    EXPECT_EQ(d->taskName, "A");
    EXPECT_EQ(d->reg, 8);
    // The reader is named, and the companion use-before-def finding is
    // folded into this one rather than reported twice.
    EXPECT_NE(d->message.find("B"), std::string::npos);
    EXPECT_EQ(count(rep, PassId::kUseBeforeDef), 0u) << rep.toText();
    EXPECT_TRUE(rep.hasErrors());
}

TEST(Analysis, MaskSoundnessCleanWhenRegisterInMask)
{
    // Same program, but $8 travels legitimately: it joins A's create
    // mask and its last update carries the forward bit.
    std::string fixed = kMaskUnsound;
    fixed.replace(fixed.find(".create $20\n.endtask\n.task A"
                             "\n.targets B\n.create $20"),
                  std::string(".create $20\n.endtask\n.task A"
                              "\n.targets B\n.create $20")
                      .size(),
                  ".create $20\n.endtask\n.task A"
                  "\n.targets B\n.create $8, $20");
    fixed.replace(fixed.find("li   $8, 5"), std::string("li   $8, 5").size(),
                  "li   $8, 5 !f");
    const AnalysisReport rep = lint(fixed);
    EXPECT_TRUE(rep.diagnostics.empty()) << rep.toText();
}

// ---- pass 2: mask precision ----------------------------------------

TEST(Analysis, MaskPrecisionFlagsDeadEntry)
{
    // $9 sits in LOOP's create mask but no path writes or releases
    // it: successors that need $9 wait for LOOP to retire.
    std::string src = kClean;
    const std::string from = ".targets LOOP:loop, DONE\n.create $20";
    src.replace(src.find(from), from.size(),
                ".targets LOOP:loop, DONE\n.create $9, $20");
    const AnalysisReport rep = lint(src);
    ASSERT_EQ(count(rep, PassId::kMaskPrecision), 1u) << rep.toText();
    const auto *d = find(rep, PassId::kMaskPrecision);
    EXPECT_EQ(d->severity, Severity::kWarning);
    EXPECT_EQ(d->taskName, "LOOP");
    EXPECT_EQ(d->reg, 9);
    // The dead entry must not additionally warn as a missing last
    // update: there is no update to tag.
    EXPECT_EQ(count(rep, PassId::kMissingLastUpdate), 0u)
        << rep.toText();
    EXPECT_FALSE(rep.hasErrors());
}

// ---- pass 3: premature forward -------------------------------------

TEST(Analysis, PrematureForwardFlagsWriteAfterForward)
{
    std::string src = kClean;
    const std::string from = "        addu $20, $20, 1 !f";
    src.replace(src.find(from), from.size(),
                "        addu $20, $20, 1 !f\n"
                "        addu $20, $20, 1");
    const AnalysisReport rep = lint(src);
    ASSERT_EQ(count(rep, PassId::kPrematureForward), 1u)
        << rep.toText();
    const auto *d = find(rep, PassId::kPrematureForward);
    EXPECT_EQ(d->severity, Severity::kError);
    EXPECT_EQ(d->taskName, "LOOP");
    EXPECT_EQ(d->reg, 20);
    EXPECT_TRUE(rep.hasErrors());
}

TEST(Analysis, ForwardOnLastUpdateIsClean)
{
    // Two updates are fine when the forward sits on the last one.
    std::string src = kClean;
    const std::string from = "        addu $20, $20, 1 !f";
    src.replace(src.find(from), from.size(),
                "        addu $20, $20, 1\n"
                "        addu $20, $20, 1 !f");
    std::string fixed = src;
    const std::string bound = "li   $21, 8 !f";
    fixed.replace(fixed.find(bound), bound.size(), "li   $21, 16 !f");
    const AnalysisReport rep = lint(fixed);
    EXPECT_EQ(count(rep, PassId::kPrematureForward), 0u)
        << rep.toText();
}

// ---- pass 4: missing last update -----------------------------------

TEST(Analysis, MissingLastUpdateFlagsUnforwardedMaskRegister)
{
    std::string src = kClean;
    const std::string from = "        addu $20, $20, 1 !f";
    src.replace(src.find(from), from.size(),
                "        addu $20, $20, 1");
    const AnalysisReport rep = lint(src);
    ASSERT_EQ(count(rep, PassId::kMissingLastUpdate), 1u)
        << rep.toText();
    const auto *d = find(rep, PassId::kMissingLastUpdate);
    EXPECT_EQ(d->severity, Severity::kWarning);
    EXPECT_EQ(d->taskName, "LOOP");
    EXPECT_EQ(d->reg, 20);
    EXPECT_FALSE(rep.hasErrors());
}

TEST(Analysis, ReleaseSatisfiesLastUpdateOnUnwrittenPath)
{
    // A branchy task that writes $20 on one path and releases it on
    // the other: both paths forward, so no stall warning.
    const char *src = R"(
        .text
main:   li   $20, 0 !f
        li   $21, 8 !f
        b    LOOP !s
.task main
.targets LOOP
.create $20, $21
.endtask
.task LOOP
.targets LOOP:loop, DONE
.create $20
.endtask
LOOP:
        andi $8, $20, 1
        beq  $8, $0, SKIP
        addu $20, $20, 2 !f
        b    JOIN
SKIP:
        release $20
        addu $9, $20, 1
JOIN:
        slt  $8, $20, $21
        bne  $8, $0, LOOP !s
.task DONE
.endtask
DONE:
        li   $2, 10
        syscall
)";
    const AnalysisReport rep = lint(src);
    EXPECT_EQ(count(rep, PassId::kMissingLastUpdate), 0u)
        << rep.toText();
}

// ---- pass 5: use-before-def ----------------------------------------

TEST(Analysis, UseBeforeDefFlagsNeverDefinedRegister)
{
    // B consumes $9, but no task on any path from program start ever
    // defines it.
    const char *src = R"(
        .text
main:   li   $20, 0 !f
        b    B !s
.task main
.targets B
.create $20
.endtask
.task B
.endtask
B:      move $4, $9
        li   $2, 1
        syscall
        li   $2, 10
        syscall
)";
    const AnalysisReport rep = lint(src);
    ASSERT_EQ(count(rep, PassId::kUseBeforeDef), 1u) << rep.toText();
    const auto *d = find(rep, PassId::kUseBeforeDef);
    EXPECT_EQ(d->severity, Severity::kError);
    EXPECT_EQ(d->taskName, "B");
    EXPECT_EQ(d->reg, 9);
    EXPECT_TRUE(rep.hasErrors());
}

TEST(Analysis, UseBeforeDefCleanWhenPredecessorDefines)
{
    const char *src = R"(
        .text
main:   li   $20, 0 !f
        li   $9, 7 !f
        b    B !s
.task main
.targets B
.create $9, $20
.endtask
.task B
.endtask
B:      move $4, $9
        li   $2, 1
        syscall
        li   $2, 10
        syscall
)";
    const AnalysisReport rep = lint(src);
    EXPECT_TRUE(rep.diagnostics.empty()) << rep.toText();
}

// ---- CFG construction ----------------------------------------------

TEST(Analysis, CfgStopsAtExitSyscall)
{
    // The code after DONE's exit syscall is a helper function that
    // belongs to LOOP; DONE's walk must not fall through into it and
    // pick up its jr $31.
    const char *src = R"(
        .text
main:   li   $20, 0 !f
        li   $21, 4 !f
        b    LOOP !s
.task main
.targets LOOP
.create $20, $21
.endtask
.task LOOP
.targets LOOP:loop, DONE
.create $20
.endtask
LOOP:
        addu $20, $20, 1 !f
        jal  HELPER
        bne  $20, $21, LOOP !s
.task DONE
.endtask
DONE:
        move $4, $20
        li   $2, 1
        syscall
        li   $2, 10
        syscall
HELPER: move $9, $20
        jr   $31
)";
    Program p = ms(src);
    const TaskCfg cfg(p, p.symbols.at("DONE"));
    EXPECT_FALSE(cfg.truncated());
    EXPECT_FALSE(cfg.dynamicExit());
    EXPECT_EQ(cfg.reachablePcs().count(p.symbols.at("HELPER")), 0u);
    bool halted = false;
    for (const auto &b : cfg.blocks())
        halted |= b.haltEnd;
    EXPECT_TRUE(halted);

    // The same exit-syscall awareness keeps the verifier quiet: the
    // jal's $31 write in LOOP never reaches a phantom reader in DONE.
    AnnotationVerifier v(p);
    const AnalysisReport rep = v.verify();
    EXPECT_FALSE(rep.hasErrors()) << rep.toText();
}

TEST(Analysis, CfgWalksCallsContextSensitively)
{
    Program p = ms(R"(
        .text
main:   li   $20, 0 !f
        jal  HELPER
        jal  HELPER
        b    DONE !s
.task main
.targets DONE
.create $20
.endtask
.task DONE
.endtask
DONE:
        li   $2, 10
        syscall
HELPER: addu $9, $20, 1
        jr   $31
)");
    const TaskCfg cfg(p, p.symbols.at("main"));
    EXPECT_FALSE(cfg.truncated());
    EXPECT_FALSE(cfg.dynamicExit());
    // Both call sites reach the helper and return to the right
    // continuation, so the helper's pcs are reachable exactly once in
    // the pc set but appear in two contexts.
    EXPECT_EQ(cfg.reachablePcs().count(p.symbols.at("HELPER")), 1u);
    unsigned helperBlocks = 0;
    for (const auto &b : cfg.blocks())
        for (Addr pc : b.pcs)
            if (pc == p.symbols.at("HELPER"))
                ++helperBlocks;
    EXPECT_EQ(helperBlocks, 2u);
    EXPECT_EQ(cfg.staticExits().size(), 1u);
}

TEST(Analysis, UnboundedRecursionTruncatesWalkWithoutFalsePositives)
{
    // A binary-recursive callee blows the (pc, return stack) state
    // budget; the task's facts are incomplete, and the verifier must
    // stay optimistic about it instead of flagging the loop-carried
    // $20 as undefined.
    const char *src = R"(
        .text
main:   li   $20, 0 !f
        li   $21, 4 !f
        b    LOOP !s
.task main
.targets LOOP
.create $20, $21
.endtask
.task LOOP
.targets LOOP:loop, DONE
.create $20
.endtask
LOOP:
        addu $20, $20, 1 !f
        move $4, $20
        jal  REC
        bne  $20, $21, LOOP !s
.task DONE
.endtask
DONE:
        li   $2, 10
        syscall
REC:
        beq  $4, $0, RLEAF
        subu $29, $29, 8
        sw   $31, 0($29)
        sw   $4, 4($29)
        subu $4, $4, 1
        jal  REC
        lw   $4, 4($29)
        subu $4, $4, 1
        jal  REC
        lw   $31, 0($29)
        addu $29, $29, 8
        jr   $31
RLEAF:
        li   $2, 0
        jr   $31
)";
    Program p = ms(src);
    AnnotationVerifier v(p);
    ASSERT_NE(v.facts(p.symbols.at("LOOP")), nullptr);
    EXPECT_TRUE(v.facts(p.symbols.at("LOOP"))->incomplete);
    const AnalysisReport rep = v.verify();
    EXPECT_FALSE(rep.hasErrors()) << rep.toText();
    EXPECT_GE(rep.truncatedTasks, 1u);
}

// ---- pass 6: task structure ---------------------------------------
//
// The TaskGraph suite covers the task graph the verifier owns: its
// successors, the descriptors checked against the code, and its
// Graphviz form.

/** @return the task-structure finding whose message has @p text. */
const analysis::Diagnostic *
structureFinding(const AnalysisReport &rep, const std::string &text)
{
    for (const auto &d : rep.diagnostics)
        if (d.pass == PassId::kTaskStructure &&
            d.message.find(text) != std::string::npos)
            return &d;
    return nullptr;
}

// A call task and its continuation: main calls FN, which returns to
// CONT, the fall-through of the jal.
const char *const kCallTask = R"(
        .text
main:   jal  FN !s
.task main
.targets FN:call:CONT
.endtask
.task CONT
.endtask
CONT:   li   $2, 10
        syscall
.task FN
.targets ret
.endtask
FN:     jr   $31 !s
)";

TEST(TaskGraph, CleanProgramValidates)
{
    Program p = ms(kClean);
    AnnotationVerifier v(p);
    const AnalysisReport rep = v.verify();
    EXPECT_EQ(count(rep, PassId::kTaskStructure), 0u) << rep.toText();
    const Addr main = p.symbols.at("main");
    const Addr loop = p.symbols.at("LOOP");
    const Addr done = p.symbols.at("DONE");
    EXPECT_EQ(v.successors(main), std::vector<Addr>{loop});
    EXPECT_EQ(v.successors(loop), (std::vector<Addr>{loop, done}));
    EXPECT_TRUE(v.successors(done).empty());
    EXPECT_TRUE(v.successors(main + 4).empty());  // not a task

    // A kReturn task reaches every call continuation.
    Program c = ms(kCallTask);
    AnnotationVerifier cv(c);
    EXPECT_EQ(cv.successors(c.symbols.at("main")),
              std::vector<Addr>{c.symbols.at("FN")});
    EXPECT_EQ(cv.successors(c.symbols.at("FN")),
              std::vector<Addr>{c.symbols.at("CONT")});
    EXPECT_EQ(count(cv.verify(), PassId::kTaskStructure), 0u);
}

TEST(TaskGraph, WalkFindsExitsAndCounts)
{
    Program p = ms(kClean);
    const Addr loop = p.symbols.at("LOOP");
    const Addr done = p.symbols.at("DONE");
    const TaskCfg main(p, p.symbols.at("main"));
    EXPECT_EQ(main.staticExits(), std::vector<Addr>{loop});
    // The loop task exits to itself or to DONE.
    const TaskCfg body(p, loop);
    EXPECT_EQ(body.staticExits(), (std::vector<Addr>{loop, done}));
    EXPECT_TRUE(body.stopReachable());
    EXPECT_EQ(body.reachablePcs().size(), 2u);
    // DONE is terminal: no stop, no exits.
    const TaskCfg last(p, done);
    EXPECT_TRUE(last.staticExits().empty());
    EXPECT_FALSE(last.stopReachable());
}

TEST(TaskGraph, DetectsUndeclaredExit)
{
    // The gcc bug that motivated these checks: the loop stop's
    // fall-through lands on code that is not a declared target.
    const AnalysisReport rep = lint(R"(
        .text
main:   li   $20, 0
        b    LOOP !s
.task main
.targets LOOP
.create $20
.endtask
.task LOOP
.targets LOOP:loop, DONE
.create $20
.endtask
LOOP:
        addu $20, $20, 1 !f
        bne  $20, $0, LOOP !s
EXTRA:  nop
.task DONE
.endtask
DONE:
        li   $2, 10
        syscall
    )");
    const auto *d = structureFinding(
        rep, "task LOOP can exit to EXTRA which is not a declared target");
    ASSERT_NE(d, nullptr) << rep.toText();
    EXPECT_EQ(d->severity, Severity::kError);
    EXPECT_EQ(d->taskName, "LOOP");
    EXPECT_EQ(d->pc, 0u);
}

TEST(TaskGraph, DetectsMissingDescriptor)
{
    const AnalysisReport rep = lint(R"(
        .text
main:   b    NEXT !s
.task main
.targets NEXT
.endtask
NEXT:   li   $2, 10
        syscall
    )");
    const auto *d = structureFinding(
        rep, "task main declares target NEXT which has no task "
             "descriptor");
    ASSERT_NE(d, nullptr) << rep.toText();
    EXPECT_EQ(d->severity, Severity::kError);

    // A call's continuation needs a descriptor of its own.
    std::string src = kCallTask;
    const std::string cont = ".task CONT\n.endtask\n";
    src.erase(src.find(cont), cont.size());
    const AnalysisReport call = lint(src);
    EXPECT_NE(structureFinding(call, "task main declares continuation "
                                     "CONT which has no task descriptor"),
              nullptr)
        << call.toText();
}

TEST(TaskGraph, DetectsMissingEntryDescriptor)
{
    Program p = ms(R"(
        .text
main:   nop !s
OTHER:  nop
.task OTHER
.endtask
    )");
    const AnalysisReport rep = AnnotationVerifier(p).verify();
    const auto *d =
        structureFinding(rep, "entry point main has no task descriptor");
    ASSERT_NE(d, nullptr) << rep.toText();
    EXPECT_EQ(d->task, p.entry);
    EXPECT_EQ(d->pc, p.entry);
    EXPECT_EQ(d->severity, Severity::kError);
}

TEST(TaskGraph, DetectsForwardOutsideMask)
{
    Program p = ms(R"(
        .text
main:   addu $20, $20, 1 !f
        nop !s
.task main
.targets main:loop
.endtask
    )");
    const AnalysisReport rep = AnnotationVerifier(p).verify();
    const auto *d = structureFinding(
        rep, "task main forwards $20 at main outside its create mask");
    ASSERT_NE(d, nullptr) << rep.toText();
    EXPECT_EQ(d->pc, p.symbols.at("main"));
    EXPECT_EQ(d->reg, 20);
}

TEST(TaskGraph, DetectsReleaseOutsideMask)
{
    Program p = ms(R"(
        .text
main:   release $8
        nop !s
.task main
.targets main:loop
.endtask
    )");
    const AnalysisReport rep = AnnotationVerifier(p).verify();
    const auto *d = structureFinding(
        rep, "task main releases $8 at main outside its create mask");
    ASSERT_NE(d, nullptr) << rep.toText();
    EXPECT_EQ(d->pc, p.symbols.at("main"));
    EXPECT_EQ(d->reg, 8);
}

TEST(TaskGraph, DetectsMissingReturnSpec)
{
    const AnalysisReport rep = lint(R"(
        .text
main:   jr   $31 !s
.task main
.targets main:loop
.endtask
    )");
    EXPECT_NE(structureFinding(rep, "task main has a dynamic (jr) exit "
                                    "but no 'ret' target"),
              nullptr)
        << rep.toText();
}

TEST(TaskGraph, DetectsNoStopReachable)
{
    const AnalysisReport rep = lint(R"(
        .text
main:   li   $2, 10
        syscall
.task main
.targets main:loop
.endtask
    )");
    EXPECT_NE(structureFinding(rep, "task main declares successors but "
                                    "no stop condition is statically "
                                    "reachable"),
              nullptr)
        << rep.toText();
}

TEST(TaskGraph, CallReturnWalksThroughFunctions)
{
    Program p = ms(R"(
        .text
main:   li   $4, 1
        jal  helper
        addu $5, $2, $2
        nop  !s
.task main
.targets DONE
.create $5
.endtask
.task DONE
.endtask
DONE:
        li   $2, 10
        syscall
helper: addu $2, $4, $4
        jr   $31
    )");
    AnnotationVerifier v(p);
    const AnalysisReport rep = v.verify();
    EXPECT_EQ(count(rep, PassId::kTaskStructure), 0u) << rep.toText();
    // The walk followed the call and the return.
    EXPECT_EQ(v.cfg(p.symbols.at("main"))->reachablePcs().size(), 6u);
}

TEST(TaskGraph, DescriptorFreeProgramHasNoStructure)
{
    // The scalar assembly of a workload carries no descriptors: no
    // task graph, so nothing to check (not even the entry point).
    assembler::AsmOptions opts;
    opts.multiscalar = false;
    Program p = assembler::assemble(kClean, opts);
    ASSERT_TRUE(p.tasks.empty());
    const AnalysisReport rep = AnnotationVerifier(p).verify();
    EXPECT_TRUE(rep.diagnostics.empty()) << rep.toText();
}

TEST(TaskGraph, DotOutputHasNodesAndEdges)
{
    Program p = ms(kClean);
    EXPECT_EQ(analysis::toDot(AnnotationVerifier(p)),
              "digraph tasks {\n"
              "  node [shape=box, fontname=\"monospace\"];\n"
              "  \"main\" [label=\"main\\ncreate {$20,$21}\\n"
              "3 static instrs\"];\n"
              "  \"main\" -> \"LOOP\";\n"
              "  \"LOOP\" [label=\"LOOP\\ncreate {$20}\\n"
              "2 static instrs\"];\n"
              "  \"LOOP\" -> \"LOOP\" [color=blue, label=loop];\n"
              "  \"LOOP\" -> \"DONE\";\n"
              "  \"DONE\" [label=\"DONE\\ncreate {}\\n"
              "5 static instrs\"];\n"
              "}\n");

    Program c = ms(kCallTask);
    const std::string dot = analysis::toDot(AnnotationVerifier(c));
    EXPECT_NE(dot.find("\"main\" -> \"FN\" [color=darkgreen, "
                       "label=\"call ret=CONT\"];\n"),
              std::string::npos)
        << dot;
    EXPECT_NE(dot.find("\"FN\" -> \"(return)\" [style=dashed];\n"),
              std::string::npos)
        << dot;
}

// ---- report formats and the strict gate ----------------------------

TEST(Analysis, TextAndJsonReportsCarryTheDiagnostic)
{
    assembler::AsmOptions opts;
    opts.multiscalar = true;
    opts.fileName = "bad.ms.s";
    Program p = assembler::assemble(kMaskUnsound, opts);
    AnnotationVerifier v(p);
    const AnalysisReport rep = v.verify();
    ASSERT_TRUE(rep.hasErrors());

    const std::string text = rep.toText();
    EXPECT_NE(text.find("bad.ms.s:"), std::string::npos) << text;
    EXPECT_NE(text.find("error:"), std::string::npos) << text;
    EXPECT_NE(text.find("[mask-soundness]"), std::string::npos) << text;

    const std::string json = rep.toJson();
    EXPECT_NE(json.find("\"msim-lint-v1\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"mask-soundness\""), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"error\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"bad.ms.s\""), std::string::npos) << json;

    // The whole report parses, and each diagnostic's strings read back
    // unchanged.
    const json::Value doc = json::Value::parse(json);
    EXPECT_EQ(doc.find("schema")->asString(), "msim-lint-v1");
    EXPECT_EQ(doc.find("errors")->asInt(), std::int64_t(rep.errorCount()));
    const json::Value *diags = doc.find("diagnostics");
    ASSERT_NE(diags, nullptr);
    ASSERT_EQ(diags->items().size(), rep.diagnostics.size());
    for (std::size_t i = 0; i < rep.diagnostics.size(); ++i) {
        const json::Value &row = diags->items()[i];
        const analysis::Diagnostic &d = rep.diagnostics[i];
        EXPECT_EQ(row.find("task")->asString(), d.taskName);
        EXPECT_EQ(row.find("file")->asString(), d.file);
        EXPECT_EQ(row.find("line")->asInt(), d.line);
        EXPECT_EQ(row.find("message")->asString(), d.message);
    }
}

TEST(Analysis, TaskLevelDiagnosticsRenderWithAndWithoutAFile)
{
    // A task-level finding (pc 0) takes its line from the task's
    // descriptor; without a file name the text line starts at the
    // line number, and without either it starts at the severity.
    const char *const src = R"(
        .text
main:   b    NEXT !s
.task main
.targets NEXT
.endtask
NEXT:   li   $2, 10
        syscall
)";
    for (const std::string file : {"bad.ms.s", ""}) {
        assembler::AsmOptions opts;
        opts.multiscalar = true;
        opts.fileName = file;
        Program p = assembler::assemble(src, opts);
        const AnalysisReport rep = AnnotationVerifier(p).verify();
        const auto *d = find(rep, PassId::kTaskStructure);
        ASSERT_NE(d, nullptr) << rep.toText();
        EXPECT_EQ(d->pc, 0u);
        EXPECT_EQ(d->file, file);
        EXPECT_EQ(d->line, p.taskAt(p.entry)->lineNo);
        ASSERT_GT(d->line, 0);

        const std::string line = std::to_string(d->line);
        const std::string prefix =
            file.empty() ? line + ": " : file + ":" + line + ": ";
        EXPECT_EQ(rep.toText().rfind(prefix + "error: " + d->message +
                                         " [task-structure]\n",
                                     0),
                  0u)
            << rep.toText();

        const json::Value doc = json::Value::parse(rep.toJson());
        const json::Value &row = doc.find("diagnostics")->items()[0];
        EXPECT_EQ(row.find("pass")->asString(), "task-structure");
        EXPECT_EQ(row.find("task")->asString(), "main");
        EXPECT_EQ(row.find("pc")->asInt(), 0);
        EXPECT_EQ(row.find("file")->asString(), file);
        EXPECT_EQ(row.find("line")->asInt(), d->line);
    }

    // Neither file nor line: the severity opens the line.
    AnalysisReport bare;
    bare.numTasks = 1;
    bare.diagnostics.push_back(
        {PassId::kTaskStructure, Severity::kError, 0, "t", 0, kNoReg,
         "", 0, "no anchor"});
    EXPECT_EQ(bare.toText(),
              "error: no anchor [task-structure]\n"
              "1 error(s), 0 warning(s) across 1 task(s)\n");
}

TEST(Analysis, PassNamesRoundTrip)
{
    std::set<std::string> names;
    for (int i = 0; i <= int(PassId::kDeadStore); ++i) {
        const PassId pass = PassId(i);
        const std::string name = analysis::passName(pass);
        EXPECT_NE(name, "unknown") << i;
        EXPECT_TRUE(names.insert(name).second) << name;
        EXPECT_EQ(analysis::passByName(name), pass) << name;
    }
    EXPECT_EQ(names.size(), 9u);
    EXPECT_TRUE(names.count("task-structure"));
    EXPECT_EQ(analysis::passByName("no-such-pass"), std::nullopt);
    EXPECT_EQ(analysis::passByName(""), std::nullopt);
}

/** Exec the real msim-lint with @p args: {exit status, stdout}. */
std::pair<int, std::string>
runLint(const std::string &args)
{
    const std::string cmd = std::string(MSIM_LINT_BIN) + " " + args;
    FILE *pipe = popen(cmd.c_str(), "r");
    if (!pipe) {
        ADD_FAILURE() << "cannot run " << cmd;
        return {-1, ""};
    }
    std::string out;
    char buf[4096];
    size_t n;
    while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0)
        out.append(buf, n);
    const int status = pclose(pipe);
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

TEST(Analysis, LintPassesFlagSelectsTaskStructure)
{
    // kMaskUnsound plus a forward of $8, which A's mask lacks: one
    // mask-soundness and one task-structure error.
    std::string src = kMaskUnsound;
    src.replace(src.find("li   $8, 5"), 10, "li   $8, 5 !f");
    const std::string path =
        ::testing::TempDir() + "msim_lint_passes.ms.s";
    {
        std::ofstream f(path);
        f << src;
    }

    const auto [all_status, all] = runLint(path);
    EXPECT_EQ(all_status, 1) << all;
    EXPECT_NE(all.find("[mask-soundness]"), std::string::npos) << all;
    EXPECT_NE(all.find("[task-structure]"), std::string::npos) << all;

    const auto [status, only] = runLint("--passes task-structure " + path);
    EXPECT_EQ(status, 1) << only;
    EXPECT_NE(only.find("forwards $8 at A outside its create mask "
                        "[task-structure]"),
              std::string::npos)
        << only;
    EXPECT_EQ(only.find("[mask-soundness]"), std::string::npos) << only;
    std::remove(path.c_str());
}

TEST(Analysis, StrictAssemblerRejectsUnsoundProgram)
{
    assembler::AsmOptions opts;
    opts.multiscalar = true;
    opts.strict = true;
    EXPECT_THROW(assembler::assemble(kMaskUnsound, opts), FatalError);
    // The clean twin passes the same gate.
    Program p = assembler::assemble(kClean, opts);
    EXPECT_EQ(p.tasks.size(), 3u);
}

// ---- memory-dependence analysis (mem_dep.hh) -----------------------

using analysis::AbsVal;
using analysis::MemDepAnalysis;
using analysis::MemRegion;
using analysis::MemSummary;

/** Program + verifier + analysis with the right lifetimes. */
struct MemDep
{
    Program p;
    AnnotationVerifier v;
    MemDepAnalysis a;

    explicit MemDep(const std::string &src) : p(ms(src)), v(p), a(p, v)
    {
    }
};

TEST(MemDep, CosetLatticeJoinAndArithmetic)
{
    const AbsVal c0 = AbsVal::constant(0);
    const AbsVal c4 = AbsVal::constant(4);
    // Joining c and c+4 yields the stride-4 coset, which then absorbs
    // every further increment of 4 (loop convergence, no widening).
    const AbsVal s = join(c0, c4);
    EXPECT_EQ(s.kind, AbsVal::Kind::kStride);
    EXPECT_EQ(s.grainLog, 2u);
    EXPECT_EQ(join(s, add(s, c4)), s);
    // A decrementing induction lands in the same lattice point.
    const AbsVal dec = join(c0, AbsVal::constant(Word(0) - 4));
    EXPECT_EQ(dec.grainLog, 2u);
    // Join with Top and Bottom behave as the lattice bounds.
    EXPECT_EQ(join(AbsVal::top(), c0).kind, AbsVal::Kind::kTop);
    EXPECT_EQ(join(AbsVal::bottom(), c4), c4);
    // Shifting a stride scales its grain; shifting into bit 32 makes
    // the value exact again (everything but the base wraps away).
    EXPECT_EQ(shiftLeft(s, 3).grainLog, 5u);
    EXPECT_EQ(shiftLeft(s, 30).kind, AbsVal::Kind::kConst);
    // Odd strides coarsen to their largest power-of-two divisor.
    const AbsVal odd = join(c0, AbsVal::constant(12));
    EXPECT_EQ(odd.grainLog, 2u);
}

TEST(MemDep, RegionOverlapAndCover)
{
    const MemRegion word{0x1000, 32, 4, 0};
    const MemRegion sameWord{0x1002, 32, 2, 0};
    const MemRegion nextWord{0x1004, 32, 4, 0};
    EXPECT_TRUE(word.overlaps(sameWord));
    EXPECT_TRUE(sameWord.overlaps(word));
    EXPECT_FALSE(word.overlaps(nextWord));
    // A stride-16 coset of words hits 0x1000 but not 0x1004.
    const MemRegion strided{0x1000, 4, 4, 0};
    EXPECT_TRUE(strided.overlaps(word));
    EXPECT_FALSE(strided.overlaps(nextWord));
    EXPECT_TRUE(strided.covers(0x1230, 4));
    EXPECT_FALSE(strided.covers(0x1234, 4));
    // Wraparound: bytes on both sides of the grain boundary.
    const MemRegion high{0x100f, 4, 4, 0};
    EXPECT_TRUE(high.overlaps(word));
}

// Task STORE writes a global a later task LOAD reads: the canonical
// cross-task memory hazard the ARB exists to catch.
const char *const kConflict = R"(
        .data
VAR:    .word 0
OTHER:  .word 0
        .text
main:   li   $20, 7 !f
        b    STORE !s
.task main
.targets STORE
.create $20
.endtask
.task STORE
.targets LOAD
.endtask
STORE:  sw   $20, VAR
        b    LOAD !s
.task LOAD
.endtask
LOAD:   lw   $4, VAR
        li   $2, 1
        syscall
        li   $2, 10
        syscall
)";

TEST(MemDep, SummariesAndConflictPair)
{
    MemDep m(kConflict);
    const Addr store = m.p.symbols.at("STORE");
    const Addr load = m.p.symbols.at("LOAD");
    const Addr var = m.p.symbols.at("VAR");

    const MemSummary *ss = m.a.summary(store);
    ASSERT_NE(ss, nullptr);
    EXPECT_FALSE(ss->storeUnknown);
    ASSERT_EQ(ss->stores.size(), 1u);
    EXPECT_TRUE(ss->stores[0].exact());
    EXPECT_EQ(ss->stores[0].base, var);
    EXPECT_EQ(ss->stores[0].width, 4u);

    EXPECT_TRUE(m.a.conflict(store, load));
    EXPECT_FALSE(m.a.conflict(load, store));

    // The oracle containment query: the actual triple is predicted,
    // a disjoint address is not.
    EXPECT_TRUE(m.a.violationPredicted(store, load, var, 4));
    EXPECT_FALSE(m.a.violationPredicted(store, load, var + 64, 4));
}

TEST(MemDep, MemConflictFlagsCrossTaskOverlap)
{
    MemDep m(kConflict);
    const AnalysisReport rep = m.a.lint();
    ASSERT_EQ(count(rep, PassId::kMemConflict), 1u) << rep.toText();
    const analysis::Diagnostic *d = find(rep, PassId::kMemConflict);
    EXPECT_EQ(d->severity, Severity::kInfo);
    EXPECT_EQ(d->taskName, "STORE");
    EXPECT_NE(d->message.find("LOAD"), std::string::npos) << d->message;
    // Info findings never count as warnings or errors.
    EXPECT_EQ(rep.errorCount(), 0u);
    EXPECT_EQ(rep.warningCount(), 0u);
    EXPECT_EQ(rep.infoCount(), 1u);
    // The stats block reflects the one conflicting pair.
    EXPECT_TRUE(rep.mem.present);
    EXPECT_EQ(rep.mem.conflictPairs, 1u);
    EXPECT_GT(rep.mem.orderedPairs, rep.mem.conflictPairs);
    EXPECT_GT(rep.mem.density(), 0.0);
}

TEST(MemDep, MemConflictCleanOnDisjointAddresses)
{
    // The same shape, but the later task reads a different global.
    std::string src = kConflict;
    src.replace(src.find("lw   $4, VAR"), 12, "lw   $4, OTHER");
    MemDep m(src);
    const AnalysisReport rep = m.a.lint();
    EXPECT_EQ(count(rep, PassId::kMemConflict), 0u) << rep.toText();
    EXPECT_EQ(rep.mem.conflictPairs, 0u);
}

const char *const kUnbalancedSp = R"(
        .text
main:   addiu $sp, $sp, -16
        b     DONE !s
.task main
.targets DONE
.endtask
.task DONE
.endtask
DONE:   li   $2, 10
        syscall
)";

TEST(MemDep, StackDisciplineFlagsUnbalancedSp)
{
    MemDep m(kUnbalancedSp);
    const AnalysisReport rep = m.a.lint();
    ASSERT_EQ(count(rep, PassId::kStackDiscipline), 1u) << rep.toText();
    const analysis::Diagnostic *d = find(rep, PassId::kStackDiscipline);
    EXPECT_EQ(d->severity, Severity::kError);
    EXPECT_EQ(d->taskName, "main");
    EXPECT_NE(d->message.find("-16"), std::string::npos) << d->message;
    EXPECT_TRUE(rep.hasErrors());
}

TEST(MemDep, StackDisciplineCleanWhenBalanced)
{
    std::string src = kUnbalancedSp;
    src.replace(src.find("b     DONE !s"), 13,
                "addiu $sp, $sp, 16\n        b     DONE !s");
    MemDep m(src);
    const AnalysisReport rep = m.a.lint();
    EXPECT_EQ(count(rep, PassId::kStackDiscipline), 0u) << rep.toText();
}

const char *const kDeadStore = R"(
        .data
VAR:    .word 0
        .text
main:   li   $20, 1
        sw   $20, VAR
        li   $21, 2
        sw   $21, VAR
        lw   $4, VAR
        li   $2, 1
        syscall
        li   $2, 10
        syscall
.task main
.endtask
)";

TEST(MemDep, DeadStoreFlagsOverwrittenStore)
{
    MemDep m(kDeadStore);
    const AnalysisReport rep = m.a.lint();
    ASSERT_EQ(count(rep, PassId::kDeadStore), 1u) << rep.toText();
    const analysis::Diagnostic *d = find(rep, PassId::kDeadStore);
    EXPECT_EQ(d->severity, Severity::kWarning);
    EXPECT_NE(d->message.find("overwrites"), std::string::npos)
        << d->message;
}

TEST(MemDep, DeadStoreCleanWhenLoadIntervenes)
{
    std::string src = kDeadStore;
    src.replace(src.find("li   $21, 2"), 11,
                "lw   $22, VAR\n        li   $21, 2");
    MemDep m(src);
    const AnalysisReport rep = m.a.lint();
    EXPECT_EQ(count(rep, PassId::kDeadStore), 0u) << rep.toText();
}

TEST(MemDep, JsonCarriesMemStats)
{
    MemDep m(kConflict);
    const std::string json = m.a.lint().toJson();
    EXPECT_NE(json.find("\"mem\": {"), std::string::npos) << json;
    EXPECT_NE(json.find("\"conflict_pairs\": 1"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"conflict_density\":"), std::string::npos)
        << json;
    EXPECT_NE(json.find("\"infos\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"mem-conflict\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"info\""), std::string::npos) << json;
}

/**
 * End-to-end golden test of the lint tool's JSON output: exec the
 * real msim-lint binary in --format json mode on one workload with
 * every pass enabled and pin the bytes. Regenerate after an intended
 * report change with:
 *
 *     cd build && MSIM_REGEN_GOLDEN=1 ./tests/test_analysis
 */
TEST(MemDep, LintJsonMatchesGoldenSnapshot)
{
    const GoldenFile golden("lint_compress.json", "test_analysis");
    const auto [status, out] = runLint("--format json compress");
    // Exit 0: info findings (mem-conflict) never gate.
    EXPECT_EQ(status, 0) << out;

    if (GoldenFile::regenerating()) {
        golden.write(out);
        GTEST_SKIP() << "regenerated " << golden.path();
    }
    EXPECT_EQ(out, golden.read()) << golden.regenHint();
}

/**
 * The soundness gate over the shipped programs: run every registered
 * workload on the multiscalar machine with the memDepOracle armed.
 * Any ARB violation whose (store-task, load-task, address) triple is
 * not contained in the static may-conflict prediction panics the run.
 */
TEST(MemDep, OracleHoldsOnWorkloadRegistry)
{
    for (const auto &[name, factory] : workloads::registry()) {
        (void)factory;
        workloads::Workload w = workloads::get(name);
        RunSpec spec;
        spec.multiscalar = true;
        spec.ms.memDepOracle = true;
        RunResult r = runWorkload(w, spec);
        EXPECT_TRUE(r.exited) << name;
        EXPECT_EQ(r.output, w.expected) << name;
    }
}

/**
 * Predicted-vs-measured: the static conflict density is computable
 * for every shipped workload, and workloads that actually squash
 * (squashes > 0 measured) are predicted to have at least one
 * conflict pair — the lint side of the oracle's soundness.
 */
TEST(MemDep, PredictedDensityCoversMeasuredSquashes)
{
    for (const auto &[name, factory] : workloads::registry()) {
        (void)factory;
        workloads::Workload w = workloads::get(name);
        RunSpec spec;
        spec.multiscalar = true;
        RunResult r = runWorkload(w, spec);

        Program p = assembleWorkload(w, /*multiscalar=*/true);
        AnnotationVerifier v(p);
        MemDepAnalysis a(p, v);
        const AnalysisReport rep = a.lint();
        EXPECT_TRUE(rep.mem.present) << name;
        if (r.memorySquashes > 0) {
            EXPECT_GT(rep.mem.conflictPairs, 0u)
                << name << ": " << r.memorySquashes
                << " measured memory squashes but no predicted "
                   "conflict pair";
        }
    }
}

/**
 * CI's lint gate, in ctest: every registered workload and every
 * assembly variant verifies with zero errors and zero warnings, over
 * the annotation passes (task structure included) and the memory
 * passes alike. Info findings (mem-conflict) are expected.
 */
class WorkloadLint
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

TEST_P(WorkloadLint, EveryShippedWorkloadIsClean)
{
    const auto &[name, define] = GetParam();
    workloads::Workload w = workloads::get(name);
    std::set<std::string> defines;
    if (!define.empty())
        defines.insert(define);
    Program prog = assembleWorkload(w, true, defines);
    AnnotationVerifier v(prog);
    const AnalysisReport rep = v.verify();
    EXPECT_EQ(rep.errorCount(), 0u) << rep.toText();
    EXPECT_EQ(rep.warningCount(), 0u) << rep.toText();
    const AnalysisReport mem = MemDepAnalysis(prog, v).lint();
    EXPECT_EQ(mem.errorCount(), 0u) << mem.toText();
    EXPECT_EQ(mem.warningCount(), 0u) << mem.toText();
}

std::vector<std::tuple<std::string, std::string>>
lintCases()
{
    std::vector<std::tuple<std::string, std::string>> cases;
    for (const auto &[name, factory] : workloads::registry()) {
        (void)factory;
        cases.emplace_back(name, "");
    }
    cases.emplace_back("example", "OPTMASK");
    cases.emplace_back("sc", "SCGRID");
    cases.emplace_back("gcc", "SYNC");
    cases.emplace_back("wc", "EARLYV");
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadLint, ::testing::ValuesIn(lintCases()),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, std::string>> &info) {
        std::string n = std::get<0>(info.param);
        if (!std::get<1>(info.param).empty())
            n += "_" + std::get<1>(info.param);
        return n;
    });

} // namespace
} // namespace msim
