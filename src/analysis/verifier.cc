#include "analysis/verifier.hh"

#include <algorithm>
#include <deque>
#include <set>
#include <sstream>
#include <utility>

#include "analysis/dataflow.hh"
#include "isa/exec.hh"
#include "isa/instruction.hh"
#include "isa/registers.hh"

namespace msim::analysis {

namespace {

using isa::InstClass;
using isa::Instruction;
using isa::Opcode;

RegMask
fullMask()
{
    RegMask m;
    for (int r = 0; r < kNumRegs; ++r)
        m.set(r);
    return m;
}

/** $sp/$fp: exempt under the stack-discipline assumption. */
RegMask
stackRegs()
{
    return RegMask{isa::kRegSp, isa::kRegFp};
}

/** The register an instruction defines, or kNoReg ($0 filtered). */
RegIndex
defOf(const Instruction &inst)
{
    return inst.dest > 0 ? inst.dest : kNoReg;
}

/** Registers an instruction explicitly forwards (!f or release). */
RegMask
fwdPointsOf(const Instruction &inst)
{
    RegMask m;
    if (inst.tags.forward) {
        RegIndex d = defOf(inst);
        if (d > 0)
            m.set(d);
    }
    if (inst.opClass == InstClass::kRelease) {
        if (inst.rs > 0)
            m.set(inst.rs);
        if (inst.rel2 > 0)
            m.set(inst.rel2);
    }
    return m;
}

/** @return true when syscall @p code semantically reads $a0. */
bool
syscallReadsA0(int code)
{
    return code == 1 || code == 4 || code == 9 || code == 11;
}

/**
 * Source registers whose values must be meaningful at this
 * instruction, for use-before-def purposes. Exemptions (see file
 * comment in verifier.hh): release operands; the data operand of a
 * callee-save store through $sp/$fp; syscall argument registers the
 * (constant-propagated) syscall code does not read.
 *
 * @param a0Read whether a syscall here reads $a0: false only when a
 *               block-local li pinned $v0 to a code that does not.
 */
unsigned
usesForUbd(const Instruction &inst, bool a0Read, RegIndex out[4])
{
    unsigned n = 0;
    switch (inst.opClass) {
      case InstClass::kRelease:
        return 0;
      case InstClass::kSyscall:
        out[n++] = isa::intReg(isa::kRegV0);
        if (a0Read)
            out[n++] = isa::intReg(isa::kRegA0);
        return n;
      case InstClass::kStore:
        if (inst.rs > 0)
            out[n++] = inst.rs;
        if (inst.rt > 0 &&
            !(inst.rs == isa::kRegSp || inst.rs == isa::kRegFp))
            out[n++] = inst.rt;
        return n;
      default:
        if (inst.rs > 0)
            out[n++] = inst.rs;
        if (inst.rt > 0)
            out[n++] = inst.rt;
        return n;
    }
}

/**
 * Track block-local knowledge of $v0 for syscall-argument
 * resolution: a `li $v0, code` (addiu/ori with $zero source) pins
 * whether a syscall reads $a0; any other write means it may.
 */
void
trackV0(const Instruction &inst, bool &a0Read)
{
    RegIndex d = defOf(inst);
    if (d != isa::intReg(isa::kRegV0))
        return;
    const bool li = (inst.op == Opcode::kAddiu ||
                     inst.op == Opcode::kAddi ||
                     inst.op == Opcode::kOri) &&
                    inst.rs == isa::kRegZero;
    a0Read = !li || syscallReadsA0(inst.imm);
}

/** Per-block GEN sets for the def and forward dataflow problems. */
struct BlockGens
{
    std::vector<RegMask> def;
    std::vector<RegMask> fwd;
};

BlockGens
blockGens(const TaskCfg &cfg)
{
    BlockGens g;
    g.def.resize(cfg.blocks().size());
    g.fwd.resize(cfg.blocks().size());
    for (size_t b = 0; b < cfg.blocks().size(); ++b) {
        for (Addr pc : cfg.blocks()[b].pcs) {
            const Instruction *inst = cfg.program().instrAt(pc);
            RegIndex d = defOf(*inst);
            if (d > 0)
                g.def[b].set(d);
            g.fwd[b] |= fwdPointsOf(*inst);
        }
    }
    return g;
}

} // namespace

AnnotationVerifier::AnnotationVerifier(const Program &prog) : prog_(prog)
{
    for (const auto &[name, addr] : prog.symbols) {
        if (!names_.count(addr))
            names_[addr] = name;
    }
    for (const auto &[addr, desc] : prog.tasks)
        computeFacts(addr);

    // The task graph. kCall targets walk to the callee; the
    // continuation resumes when some descendant takes a kReturn exit,
    // so every task with a kReturn target conservatively gets an edge
    // to every continuation in the program.
    std::set<Addr> continuations;
    std::set<Addr> retTasks;
    for (const auto &[addr, f] : facts_) {
        auto &out = succs_[addr];
        for (const TaskTarget &t : f.desc->targets) {
            if (t.spec == TargetSpec::kReturn) {
                retTasks.insert(addr);
                continue;
            }
            if (facts_.count(t.addr))
                out.push_back(t.addr);
            if (t.spec == TargetSpec::kCall && facts_.count(t.returnTo))
                continuations.insert(t.returnTo);
        }
    }
    for (Addr addr : retTasks) {
        auto &out = succs_[addr];
        out.insert(out.end(), continuations.begin(), continuations.end());
    }
    for (auto &[addr, out] : succs_) {
        std::sort(out.begin(), out.end());
        out.erase(std::unique(out.begin(), out.end()), out.end());
    }
}

const std::vector<Addr> &
AnnotationVerifier::successors(Addr task) const
{
    static const std::vector<Addr> kNone;
    auto it = succs_.find(task);
    return it == succs_.end() ? kNone : it->second;
}

const TaskFacts *
AnnotationVerifier::facts(Addr task) const
{
    auto it = facts_.find(task);
    return it == facts_.end() ? nullptr : &it->second;
}

const TaskCfg *
AnnotationVerifier::cfg(Addr task) const
{
    auto it = cfgs_.find(task);
    return it == cfgs_.end() ? nullptr : it->second.get();
}

std::string
AnnotationVerifier::labelFor(Addr addr) const
{
    auto it = names_.find(addr);
    if (it != names_.end())
        return it->second;
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

Diagnostic
AnnotationVerifier::makeDiag(PassId pass, Severity sev, Addr task,
                             Addr pc, RegIndex reg,
                             std::string message) const
{
    Diagnostic d;
    d.pass = pass;
    d.severity = sev;
    d.task = task;
    d.taskName = labelFor(task);
    d.pc = pc;
    d.reg = reg;
    d.file = prog_.sourceName;
    if (pc != 0) {
        d.line = prog_.lineOf(pc);
    } else if (const TaskDescriptor *desc = prog_.taskAt(task)) {
        d.line = desc->lineNo;
    }
    d.message = std::move(message);
    return d;
}

void
AnnotationVerifier::computeFacts(Addr start)
{
    auto cfgPtr = std::make_unique<TaskCfg>(prog_, start);
    const TaskCfg &cfg = *cfgPtr;

    TaskFacts f;
    f.start = start;
    f.desc = prog_.taskAt(start);
    f.incomplete = cfg.truncated();
    for (const CfgBlock &b : cfg.blocks())
        if (b.opaqueEnd)
            f.incomplete = true;

    const BlockGens gens = blockGens(cfg);

    // May-facts and first sites: a linear scan is enough.
    for (const CfgBlock &b : cfg.blocks()) {
        for (Addr pc : b.pcs) {
            const Instruction *inst = prog_.instrAt(pc);
            RegIndex d = defOf(*inst);
            if (d > 0) {
                f.mayWrite.set(d);
                if (f.firstWritePc[d] == 0)
                    f.firstWritePc[d] = pc;
            }
            f.mayForward |= fwdPointsOf(*inst);
            if (inst->opClass == InstClass::kRelease) {
                if (inst->rs > 0)
                    f.releases.set(inst->rs);
                if (inst->rel2 > 0)
                    f.releases.set(inst->rel2);
            }
        }
    }

    // Use-before-def: walk each block with the must-define IN set.
    const std::vector<RegMask> mustDefIn =
        solveForward(cfg, gens.def, Meet::kMust);
    const RegMask exempt = stackRegs();
    for (size_t b = 0; b < cfg.blocks().size(); ++b) {
        RegMask defined = mustDefIn[b];
        bool a0Read = true;
        for (Addr pc : cfg.blocks()[b].pcs) {
            const Instruction *inst = prog_.instrAt(pc);
            RegIndex uses[4];
            unsigned n = usesForUbd(*inst, a0Read, uses);
            for (unsigned i = 0; i < n; ++i) {
                RegIndex u = uses[i];
                if (u <= 0 || exempt.test(u) || defined.test(u))
                    continue;
                f.useBeforeDef.set(u);
                if (f.firstUbdPc[u] == 0)
                    f.firstUbdPc[u] = pc;
            }
            trackV0(*inst, a0Read);
            RegIndex d = defOf(*inst);
            if (d > 0)
                defined.set(d);
        }
    }

    // Must-write: intersection of OUT over every task exit. A task
    // with no reachable exit never hands values to a successor, so
    // the vacuous intersection (everything) is safe. Opaque ends are
    // exits for this purpose: the writes seen so far are a lower
    // bound on what that path writes by the real task end.
    bool anyExit = false;
    RegMask mustWrite = fullMask();
    for (size_t b = 0; b < cfg.blocks().size(); ++b) {
        const CfgBlock &blk = cfg.blocks()[b];
        if (!blk.exitsTask() && !blk.opaqueEnd)
            continue;
        anyExit = true;
        mustWrite &= mustDefIn[b] | gens.def[b];
    }
    f.mustWrite = anyExit ? mustWrite : fullMask();

    facts_.emplace(start, std::move(f));
    cfgs_.emplace(start, std::move(cfgPtr));
}

AnalysisReport
AnnotationVerifier::verify() const
{
    AnalysisReport rep;
    rep.numTasks = unsigned(facts_.size());
    for (const auto &[addr, f] : facts_)
        if (f.incomplete)
            ++rep.truncatedTasks;

    const RegMask exempt = stackRegs();

    // Pass 2: mask precision. Also collected for pass 4 suppression
    // (a dead mask entry trivially reaches every stop unforwarded).
    std::map<Addr, RegMask> deadMaskEntries;
    for (const auto &[addr, f] : facts_) {
        if (f.incomplete)
            continue;
        RegMask dead = f.desc->createMask - f.mayWrite - f.releases;
        deadMaskEntries[addr] = dead;
        for (int r = 0; r < kNumRegs; ++r) {
            if (!dead.test(r))
                continue;
            rep.diagnostics.push_back(makeDiag(
                PassId::kMaskPrecision, Severity::kWarning, addr, 0,
                RegIndex(r),
                "create-mask entry " + isa::regName(RegIndex(r)) +
                    " of task " + labelFor(addr) +
                    " is never written and never released; successors "
                    "needing it wait until the task retires (drop it "
                    "from the mask or add a release)"));
        }
    }

    // Passes 3 and 4 share the forward-point GEN sets per task.
    for (const auto &[addr, f] : facts_) {
        const TaskCfg &cfg = *cfgs_.at(addr);
        const BlockGens gens = blockGens(cfg);

        // Pass 3: premature forward. May-analysis: on SOME path the
        // register was already sent when this write executes.
        const std::vector<RegMask> mayFwdIn =
            solveForward(cfg, gens.fwd, Meet::kMay);
        std::set<std::pair<Addr, RegIndex>> reported;
        for (size_t b = 0; b < cfg.blocks().size(); ++b) {
            RegMask forwarded = mayFwdIn[b];
            for (Addr pc : cfg.blocks()[b].pcs) {
                const Instruction *inst = prog_.instrAt(pc);
                RegIndex d = defOf(*inst);
                if (d > 0 && forwarded.test(d) &&
                    reported.emplace(pc, d).second) {
                    rep.diagnostics.push_back(makeDiag(
                        PassId::kPrematureForward, Severity::kError,
                        addr, pc, d,
                        "task " + labelFor(addr) + " writes " +
                            isa::regName(d) +
                            " after already forwarding it; successors "
                            "may have consumed the stale value (move "
                            "the !f/release to the last update)"));
                }
                forwarded |= fwdPointsOf(*inst);
            }
        }

        // Pass 4: missing last-update. Must-analysis: warn when a
        // mask register reaches a stop unforwarded on that path.
        if (f.desc->targets.empty())
            continue; // terminal task: nobody waits on its values
        const std::vector<RegMask> mustFwdIn =
            solveForward(cfg, gens.fwd, Meet::kMust);
        RegMask warned;
        auto deadIt = deadMaskEntries.find(addr);
        if (deadIt != deadMaskEntries.end())
            warned = deadIt->second;
        for (size_t b = 0; b < cfg.blocks().size(); ++b) {
            const CfgBlock &blk = cfg.blocks()[b];
            if (!blk.exitsTask())
                continue;
            const RegMask missing =
                f.desc->createMask - (mustFwdIn[b] | gens.fwd[b]) -
                warned;
            for (int r = 0; r < kNumRegs; ++r) {
                if (!missing.test(r))
                    continue;
                warned.set(r);
                const Addr stopPc = blk.pcs.back();
                rep.diagnostics.push_back(makeDiag(
                    PassId::kMissingLastUpdate, Severity::kWarning,
                    addr, stopPc, RegIndex(r),
                    "create-mask register " + isa::regName(RegIndex(r)) +
                        " of task " + labelFor(addr) +
                        " reaches the stop on some path without a "
                        "forward or release; successors stall until "
                        "the task retires (tag the last update with "
                        "!f or release the register)"));
            }
        }
    }

    // Pass 1: mask soundness. A write outside the mask is invisible
    // to successors in multiscalar execution but visible in scalar
    // execution; it is an error exactly when some successor task can
    // read the register before redefining it.
    std::set<std::pair<Addr, RegIndex>> staleReaders;
    for (const auto &[addr, f] : facts_) {
        RegMask stale = f.mayWrite - f.desc->createMask - exempt;
        for (int r = 0; r < kNumRegs; ++r) {
            if (!stale.test(r))
                continue;
            // Propagate the stale value through the task graph until
            // every path redefines the register.
            std::set<Addr> visited;
            std::deque<Addr> work;
            for (Addr s : successors(addr))
                work.push_back(s);
            Addr firstReader = 0;
            while (!work.empty()) {
                Addr s = work.front();
                work.pop_front();
                if (!visited.insert(s).second)
                    continue;
                const TaskFacts &sf = facts_.at(s);
                if (sf.useBeforeDef.test(r)) {
                    staleReaders.emplace(s, RegIndex(r));
                    if (firstReader == 0)
                        firstReader = s;
                }
                const bool kills = !sf.incomplete &&
                                   sf.mustWrite.test(r) &&
                                   !sf.useBeforeDef.test(r);
                if (kills)
                    continue;
                for (Addr nxt : successors(s))
                    work.push_back(nxt);
            }
            if (firstReader == 0)
                continue;
            const Addr pc = f.firstWritePc[r];
            const TaskFacts &rf = facts_.at(firstReader);
            std::ostringstream msg;
            msg << "task " << labelFor(addr) << " writes "
                << isa::regName(RegIndex(r))
                << " which is not in its create mask, so the write "
                   "never leaves the task; task "
                << labelFor(firstReader) << " (line "
                << prog_.lineOf(rf.firstUbdPc[r])
                << ") reads the stale value (add "
                << isa::regName(RegIndex(r))
                << " to the create mask or keep it task-local)";
            rep.diagnostics.push_back(
                makeDiag(PassId::kMaskSoundness, Severity::kError,
                         addr, pc, RegIndex(r), msg.str()));
        }
    }

    // Pass 5: use-before-def. Inter-task must-analysis of which
    // registers are well-defined (scalar and multiscalar execution
    // agree on their value) at task entry.
    const TaskFacts *entry = facts(prog_.entry);
    if (entry) {
        std::set<Addr> reachable;
        std::deque<Addr> work{prog_.entry};
        while (!work.empty()) {
            Addr t = work.front();
            work.pop_front();
            if (!reachable.insert(t).second)
                continue;
            for (Addr s : successors(t))
                work.push_back(s);
        }

        std::map<Addr, std::vector<Addr>> preds;
        for (Addr t : reachable)
            for (Addr s : successors(t))
                if (reachable.count(s))
                    preds[s].push_back(t);

        const RegMask full = fullMask();
        auto transfer = [&](Addr t, RegMask in) {
            const TaskFacts &tf = facts_.at(t);
            // A truncated or opaque walk has unreliable write sets.
            // Treat the task as the identity so its conservatism does
            // not cascade into errors elsewhere: a linter that killed
            // every fact through such a task (e.g. one whose walk
            // blew the state budget on a recursive callee) would cry
            // wolf on every register flowing around its loop.
            if (tf.incomplete)
                return in;
            const RegMask mask = tf.desc->createMask;
            // Mask registers leave the task: defined when inherited
            // defined or written on every path. Unmasked registers
            // revert to pre-task state in multiscalar but keep the
            // write in scalar: any may-write poisons them ($sp/$fp
            // exempt under stack discipline).
            const RegMask masked = (in | tf.mustWrite) & mask;
            const RegMask unmasked = (in - mask) - (tf.mayWrite - exempt);
            return masked | unmasked;
        };

        std::map<Addr, RegMask> wdIn, wdOut;
        for (Addr t : reachable) {
            wdIn[t] = full;
            wdOut[t] = transfer(t, full);
        }
        std::deque<Addr> wl(reachable.begin(), reachable.end());
        std::set<Addr> queued(reachable.begin(), reachable.end());
        while (!wl.empty()) {
            Addr t = wl.front();
            wl.pop_front();
            queued.erase(t);
            // The entry task's IN meets the program-start boundary,
            // where nothing but the runtime-initialized stack
            // registers (exempt anyway) is considered defined: a read
            // of a register no task ever defines is the classic
            // use-before-def even though the zeroed register files
            // happen to agree on it. Non-entry tasks start the meet
            // from the full set (they always have a predecessor — the
            // reachability BFS found them through one).
            RegMask in = (t == prog_.entry) ? RegMask{} : full;
            for (Addr p : preds[t])
                in &= wdOut.at(p);
            RegMask out = transfer(t, in);
            wdIn[t] = in;
            if (out == wdOut.at(t))
                continue;
            wdOut[t] = out;
            for (Addr s : successors(t)) {
                if (reachable.count(s) && queued.insert(s).second)
                    wl.push_back(s);
            }
        }

        for (Addr t : reachable) {
            const TaskFacts &tf = facts_.at(t);
            const RegMask undef = tf.useBeforeDef - wdIn.at(t);
            for (int r = 0; r < kNumRegs; ++r) {
                if (!undef.test(r))
                    continue;
                if (staleReaders.count({t, RegIndex(r)}))
                    continue; // already explained by pass 1
                rep.diagnostics.push_back(makeDiag(
                    PassId::kUseBeforeDef, Severity::kError, t,
                    tf.firstUbdPc[r], RegIndex(r),
                    "task " + labelFor(t) + " reads " +
                        isa::regName(RegIndex(r)) +
                        " before any definition, and no inter-task "
                        "path guarantees a well-defined value at "
                        "task entry (forward it from a predecessor "
                        "or define it locally)"));
            }
        }
    }

    checkStructure(rep);

    // Deterministic order: by pass, then task, then pc, then reg.
    std::stable_sort(
        rep.diagnostics.begin(), rep.diagnostics.end(),
        [](const Diagnostic &a, const Diagnostic &b) {
            if (a.pass != b.pass)
                return a.pass < b.pass;
            if (a.task != b.task)
                return a.task < b.task;
            if (a.pc != b.pc)
                return a.pc < b.pc;
            return a.reg < b.reg;
        });
    return rep;
}

void
AnnotationVerifier::checkStructure(AnalysisReport &rep) const
{
    if (facts_.empty())
        return; // no descriptors: nothing for the sequencer to walk
    auto error = [&](Addr task, Addr pc, RegIndex reg, std::string msg) {
        rep.diagnostics.push_back(makeDiag(PassId::kTaskStructure,
                                           Severity::kError, task, pc,
                                           reg, std::move(msg)));
    };

    if (!facts_.count(prog_.entry)) {
        error(prog_.entry, prog_.entry, kNoReg,
              "entry point " + labelFor(prog_.entry) +
                  " has no task descriptor");
    }

    for (const auto &[addr, f] : facts_) {
        const TaskCfg &cfg = *cfgs_.at(addr);
        const TaskDescriptor &desc = *f.desc;
        const std::string name = labelFor(addr);
        bool retTarget = false;
        std::set<Addr> declared;
        for (const TaskTarget &t : desc.targets) {
            if (t.spec == TargetSpec::kReturn) {
                retTarget = true;
                continue;
            }
            declared.insert(t.addr);
            if (!facts_.count(t.addr)) {
                error(addr, 0, kNoReg,
                      "task " + name + " declares target " +
                          labelFor(t.addr) +
                          " which has no task descriptor");
            }
            if (t.spec == TargetSpec::kCall && !facts_.count(t.returnTo)) {
                error(addr, 0, kNoReg,
                      "task " + name + " declares continuation " +
                          labelFor(t.returnTo) +
                          " which has no task descriptor");
            }
        }

        if (!retTarget) {
            for (Addr exit : cfg.staticExits()) {
                if (!declared.count(exit)) {
                    error(addr, 0, kNoReg,
                          "task " + name + " can exit to " +
                              labelFor(exit) +
                              " which is not a declared target");
                }
            }
        }
        if (!desc.targets.empty() && !retTarget && cfg.dynamicExit()) {
            error(addr, 0, kNoReg,
                  "task " + name +
                      " has a dynamic (jr) exit but no 'ret' target");
        }
        if (!desc.targets.empty() && !cfg.stopReachable() &&
            !cfg.dynamicExit()) {
            error(addr, 0, kNoReg,
                  "task " + name +
                      " declares successors but no stop condition is "
                      "statically reachable");
        }

        // Forward and release points must name create-mask registers.
        for (Addr pc : cfg.reachablePcs()) {
            const Instruction &inst = *prog_.instrAt(pc);
            if (inst.tags.forward && inst.dest > 0 &&
                !desc.createMask.test(inst.dest)) {
                error(addr, pc, inst.dest,
                      "task " + name + " forwards " +
                          isa::regName(inst.dest) + " at " +
                          labelFor(pc) + " outside its create mask");
            }
            if (inst.opClass != InstClass::kRelease)
                continue;
            for (RegIndex r : {inst.rs, inst.rel2}) {
                if (r > 0 && !desc.createMask.test(r)) {
                    error(addr, pc, r,
                          "task " + name + " releases " +
                              isa::regName(r) + " at " + labelFor(pc) +
                              " outside its create mask");
                }
            }
        }
    }
}

std::string
toDot(const AnnotationVerifier &verifier)
{
    std::ostringstream os;
    os << "digraph tasks {\n";
    os << "  node [shape=box, fontname=\"monospace\"];\n";
    for (const auto &[addr, f] : verifier.allFacts()) {
        const std::string name = verifier.labelFor(addr);
        os << "  \"" << name << "\" [label=\"" << name << "\\ncreate {"
           << f.desc->createMask.toString() << "}\\n"
           << verifier.cfg(addr)->reachablePcs().size()
           << " static instrs\"];\n";
        for (const TaskTarget &t : f.desc->targets) {
            if (t.spec == TargetSpec::kReturn) {
                os << "  \"" << name
                   << "\" -> \"(return)\" [style=dashed];\n";
                continue;
            }
            os << "  \"" << name << "\" -> \"" << verifier.labelFor(t.addr)
               << "\"";
            switch (t.spec) {
              case TargetSpec::kLoop:
                os << " [color=blue, label=loop]";
                break;
              case TargetSpec::kCall:
                os << " [color=darkgreen, label=\"call ret="
                   << verifier.labelFor(t.returnTo) << "\"]";
                break;
              default:
                break;
            }
            os << ";\n";
        }
    }
    os << "}\n";
    return os.str();
}

} // namespace msim::analysis
