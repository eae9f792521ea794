#include "analysis/mem_dep.hh"

#include <algorithm>
#include <bit>
#include <deque>
#include <sstream>
#include <utility>

#include "isa/exec.hh"
#include "isa/instruction.hh"
#include "isa/registers.hh"

namespace msim::analysis {

namespace {

using isa::InstClass;
using isa::Instruction;
using isa::Opcode;

/** Trailing zeros of a 32-bit difference; 32 for zero. */
unsigned
tz(Word w)
{
    return w == 0 ? 32u : unsigned(std::countr_zero(w));
}

/** Access width in bytes of a load/store opcode. */
unsigned
accessWidth(Opcode op)
{
    switch (op) {
      case Opcode::kLb:
      case Opcode::kLbu:
      case Opcode::kSb:
        return 1;
      case Opcode::kLh:
      case Opcode::kLhu:
      case Opcode::kSh:
        return 2;
      case Opcode::kLw:
      case Opcode::kSw:
      case Opcode::kLwc1:
      case Opcode::kSwc1:
        return 4;
      case Opcode::kLdc1:
      case Opcode::kSdc1:
        return 8;
      default:
        return 0;
    }
}

/** Bottom absorbs: an unreached operand yields an unreached result. */
AbsVal
widen(const AbsVal &a)
{
    return a.kind == AbsVal::Kind::kBottom ? AbsVal::bottom()
                                           : AbsVal::top();
}

} // namespace

// --------------------------------------------------------------------
// AbsVal lattice
// --------------------------------------------------------------------

AbsVal
AbsVal::stride(Word base, unsigned grain_log)
{
    if (grain_log == 0)
        return top();
    if (grain_log >= 32)
        return constant(base);
    return {Kind::kStride, base, grain_log};
}

AbsVal
join(const AbsVal &a, const AbsVal &b)
{
    using Kind = AbsVal::Kind;
    if (a.kind == Kind::kBottom)
        return b;
    if (b.kind == Kind::kBottom)
        return a;
    if (a.kind == Kind::kTop || b.kind == Kind::kTop)
        return AbsVal::top();
    // Both cosets (a constant is the grain-2^32 coset): the join is
    // the smallest coset containing both, whose grain divides both
    // grains and the difference of the bases.
    unsigned ga = a.kind == Kind::kConst ? 32 : a.grainLog;
    unsigned gb = b.kind == Kind::kConst ? 32 : b.grainLog;
    unsigned g = std::min({ga, gb, tz(a.base - b.base)});
    return AbsVal::stride(a.base, g);
}

AbsVal
add(const AbsVal &a, const AbsVal &b)
{
    using Kind = AbsVal::Kind;
    if (a.kind == Kind::kBottom || b.kind == Kind::kBottom)
        return AbsVal::bottom();
    if (a.kind == Kind::kTop || b.kind == Kind::kTop)
        return AbsVal::top();
    unsigned ga = a.kind == Kind::kConst ? 32 : a.grainLog;
    unsigned gb = b.kind == Kind::kConst ? 32 : b.grainLog;
    return AbsVal::stride(a.base + b.base, std::min(ga, gb));
}

AbsVal
negate(const AbsVal &a)
{
    using Kind = AbsVal::Kind;
    if (a.kind == Kind::kConst)
        return AbsVal::constant(Word(0) - a.base);
    if (a.kind == Kind::kStride)
        return AbsVal::stride(Word(0) - a.base, a.grainLog);
    return a;
}

AbsVal
shiftLeft(const AbsVal &a, unsigned amount)
{
    using Kind = AbsVal::Kind;
    if (a.kind == Kind::kConst)
        return AbsVal::constant(a.base << amount);
    if (a.kind == Kind::kStride)
        return AbsVal::stride(a.base << amount, a.grainLog + amount);
    return a;
}

// --------------------------------------------------------------------
// Regions and summaries
// --------------------------------------------------------------------

bool
MemRegion::overlaps(const MemRegion &other) const
{
    // The difference a2 - a1 over all element pairs ranges over the
    // coset (other.base - base) + <2^min(grains)>. The byte intervals
    // [a1, a1+w1) and [a2, a2+w2) intersect iff some difference lies
    // in (-w2, w1); with r the difference's residue in [0, g), that
    // means r < w1 (a2 ahead, within our width) or g - r < w2 (a2
    // behind, within the other's width).
    const std::uint64_t g = std::uint64_t(1)
                            << std::min({grainLog, other.grainLog, 32u});
    const std::uint64_t r = Word(other.base - base) % g;
    return r < width || g - r < other.width;
}

bool
MemRegion::covers(Addr addr, unsigned size) const
{
    const std::uint64_t g = std::uint64_t(1) << std::min(grainLog, 32u);
    for (unsigned i = 0; i < size; ++i) {
        if (Word(addr + i - base) % g >= width)
            return false;
    }
    return true;
}

bool
MemSummary::mayLoad(Addr addr, unsigned size) const
{
    if (loadUnknown)
        return true;
    const MemRegion probe{addr, 32, size, 0};
    for (const MemRegion &r : loads)
        if (r.overlaps(probe))
            return true;
    return false;
}

bool
MemSummary::storesCover(Addr addr, unsigned size) const
{
    if (storeUnknown)
        return true;
    for (unsigned i = 0; i < size; ++i) {
        bool hit = false;
        for (const MemRegion &r : stores) {
            if (r.covers(Addr(addr + i), 1)) {
                hit = true;
                break;
            }
        }
        if (!hit)
            return false;
    }
    return true;
}

// --------------------------------------------------------------------
// MemDepAnalysis
// --------------------------------------------------------------------

MemDepAnalysis::MemDepAnalysis(const Program &prog,
                               const AnnotationVerifier &verifier)
    : prog_(prog), verifier_(verifier)
{
    const auto &facts = verifier_.allFacts();

    // The CFG walker silently cuts call edges past its depth cap
    // (kMaxWalkCallDepth), leaving blocks with no successors that
    // neither exit nor halt. Paths beyond the cut perform memory
    // accesses the walk never saw, so such tasks must be treated
    // exactly like truncated ones: summaries unknown, oracle
    // trivially contained.
    for (const auto &[addr, f] : facts) {
        if (f.incomplete) {
            cut_.insert(addr);
            continue;
        }
        const TaskCfg *cfg = verifier_.cfg(addr);
        if (!cfg)
            continue;
        for (const CfgBlock &b : cfg->blocks()) {
            if (b.succs.empty() && !b.exitsTask() && !b.haltEnd &&
                !b.opaqueEnd) {
                cut_.insert(addr);
                break;
            }
        }
    }

    // Reachability from the program entry (the sequencer only ever
    // walks declared targets, so unreachable tasks never run).
    if (facts.count(prog.entry)) {
        std::deque<Addr> work{prog.entry};
        while (!work.empty()) {
            Addr t = work.front();
            work.pop_front();
            if (!reachable_.insert(t).second)
                continue;
            for (Addr s : verifier_.successors(t))
                work.push_back(s);
        }
    }

    // One-or-more-edge reachability per task (conflict pair scope).
    for (const auto &[addr, f] : facts) {
        const std::vector<Addr> &out = verifier_.successors(addr);
        std::set<Addr> &seen = reachFrom_[addr];
        std::deque<Addr> work(out.begin(), out.end());
        while (!work.empty()) {
            Addr t = work.front();
            work.pop_front();
            if (!seen.insert(t).second)
                continue;
            for (Addr s : verifier_.successors(t))
                work.push_back(s);
        }
    }

    // Inter-task fixpoint of the entry environments. The program
    // entry starts from the architectural reset state; values only
    // climb the (finite) lattice, so joining into the accumulated
    // environment converges.
    if (facts.count(prog.entry)) {
        Env seed;
        seed.fill(AbsVal::constant(0));
        seed[size_t(isa::kRegSp)] = AbsVal::constant(kStackTop);
        entryEnv_[prog.entry] = seed;

        std::deque<Addr> work{prog.entry};
        std::set<Addr> queued{prog.entry};
        while (!work.empty()) {
            const Addr t = work.front();
            work.pop_front();
            queued.erase(t);

            const TaskFacts &f = facts.at(t);
            const Env &in = entryEnv_.at(t);
            Env out;
            if (cut_.count(t)) {
                out.fill(AbsVal::top());
            } else {
                const TaskEnvs envs = solveTask(t, in);
                for (int r = 0; r < kNumRegs; ++r) {
                    // Mask registers leave the task through the ring
                    // (at a forward point or retirement); everything
                    // else reverts to the walk-ledger value from
                    // before the task.
                    if (f.desc->createMask.test(r)) {
                        out[size_t(r)] = join(envs.exitJoin[size_t(r)],
                                              envs.fwdVals[size_t(r)]);
                    } else {
                        out[size_t(r)] = in[size_t(r)];
                    }
                }
            }
            for (Addr s : verifier_.successors(t)) {
                auto [it, inserted] = entryEnv_.try_emplace(s);
                Env &sin = it->second;
                bool changed = inserted;
                for (size_t r = 0; r < kNumRegs; ++r) {
                    AbsVal v = join(sin[r], out[r]);
                    if (!(v == sin[r])) {
                        sin[r] = v;
                        changed = true;
                    }
                }
                if (changed && queued.insert(s).second)
                    work.push_back(s);
            }
        }
    }

    buildSummaries();
    buildConflicts();
}

const MemSummary *
MemDepAnalysis::summary(Addr task) const
{
    auto it = summaries_.find(task);
    return it == summaries_.end() ? nullptr : &it->second;
}

AbsVal
MemDepAnalysis::valueOf(const Env &env, RegIndex reg) const
{
    if (reg == 0)
        return AbsVal::constant(0);
    if (reg < 0)
        return AbsVal::top();
    return env[size_t(reg)];
}

void
MemDepAnalysis::transfer(Env &env, const Instruction &inst) const
{
    const RegIndex d = inst.dest;
    if (d <= 0)
        return;

    const AbsVal a = valueOf(env, inst.rs);
    const AbsVal b = valueOf(env, inst.rt);
    AbsVal v;
    switch (inst.op) {
      case Opcode::kAddi:
      case Opcode::kAddiu:
        v = add(a, AbsVal::constant(Word(inst.imm)));
        break;
      case Opcode::kAdd:
      case Opcode::kAddu:
        v = add(a, b);
        break;
      case Opcode::kSub:
      case Opcode::kSubu:
        v = add(a, negate(b));
        break;
      case Opcode::kLui:
        v = AbsVal::constant(Word(inst.imm) << 16);
        break;
      case Opcode::kOri:
        v = a.kind == AbsVal::Kind::kConst
                ? AbsVal::constant(a.base | Word(inst.imm))
                : widen(a);
        break;
      case Opcode::kAndi:
        v = a.kind == AbsVal::Kind::kConst
                ? AbsVal::constant(a.base & Word(inst.imm))
                : widen(a);
        break;
      case Opcode::kXori:
        v = a.kind == AbsVal::Kind::kConst
                ? AbsVal::constant(a.base ^ Word(inst.imm))
                : widen(a);
        break;
      case Opcode::kSll:
        v = shiftLeft(a, unsigned(inst.imm) & 31u);
        break;
      case Opcode::kSrl:
        v = a.kind == AbsVal::Kind::kConst
                ? AbsVal::constant(a.base >> (unsigned(inst.imm) & 31u))
                : widen(a);
        break;
      case Opcode::kSra:
        v = a.kind == AbsVal::Kind::kConst
                ? AbsVal::constant(Word(std::int32_t(a.base) >>
                                        (unsigned(inst.imm) & 31u)))
                : widen(a);
        break;
      case Opcode::kOr:
        if (a.kind == AbsVal::Kind::kConst &&
            b.kind == AbsVal::Kind::kConst) {
            v = AbsVal::constant(a.base | b.base);
        } else {
            v = widen(join(a, b));
        }
        break;
      case Opcode::kMul:
        if (a.kind == AbsVal::Kind::kConst &&
            b.kind == AbsVal::Kind::kConst) {
            // Truncated product: identical bits signed or unsigned.
            v = AbsVal::constant(a.base * b.base);
        } else {
            v = widen(join(a, b));
        }
        break;
      default:
        // Loads, divisions, FP, jumps, syscalls: not address
        // arithmetic we track. Stay Bottom on unreached inputs.
        v = widen(join(a, b));
        break;
    }
    env[size_t(d)] = v;
}

MemDepAnalysis::TaskEnvs
MemDepAnalysis::solveTask(Addr start, const Env &entry) const
{
    const TaskCfg *cfg = verifier_.cfg(start);
    TaskEnvs out;

    Env bottom;
    bottom.fill(AbsVal::bottom());
    out.exitJoin = bottom;
    out.fwdVals = bottom;
    if (!cfg || cfg->blocks().empty())
        return out;

    const auto &blocks = cfg->blocks();
    const auto &preds = cfg->preds();
    const size_t n = blocks.size();
    out.blockIn.assign(n, bottom);
    std::vector<Env> blockOut(n, bottom);

    auto joinEnv = [](Env &into, const Env &from) {
        for (size_t r = 0; r < kNumRegs; ++r)
            into[r] = join(into[r], from[r]);
    };
    auto runBlock = [&](size_t b, Env env) {
        for (Addr pc : blocks[b].pcs)
            transfer(env, *prog_.instrAt(pc));
        return env;
    };

    std::deque<unsigned> work;
    std::vector<bool> queued(n, true);
    for (unsigned b = 0; b < n; ++b)
        work.push_back(b);

    while (!work.empty()) {
        const unsigned b = work.front();
        work.pop_front();
        queued[b] = false;

        Env in = bottom;
        if (b == 0)
            in = entry;
        for (unsigned p : preds[b])
            joinEnv(in, blockOut[p]);
        out.blockIn[b] = in;
        Env newOut = runBlock(b, std::move(in));
        if (newOut == blockOut[b])
            continue;
        blockOut[b] = std::move(newOut);
        for (unsigned s : blocks[b].succs) {
            if (!queued[s]) {
                work.push_back(s);
                queued[s] = true;
            }
        }
    }

    // Collect exit and forward-point values from the converged
    // environments. A forwarded definition sends the value the
    // instruction just computed; a release sends the current values
    // of its operands.
    for (size_t b = 0; b < n; ++b) {
        Env env = out.blockIn[b];
        for (Addr pc : blocks[b].pcs) {
            const Instruction *inst = prog_.instrAt(pc);
            if (inst->opClass == InstClass::kRelease) {
                if (inst->rs > 0) {
                    out.fwdVals[size_t(inst->rs)] =
                        join(out.fwdVals[size_t(inst->rs)],
                             valueOf(env, inst->rs));
                }
                if (inst->rel2 > 0) {
                    out.fwdVals[size_t(inst->rel2)] =
                        join(out.fwdVals[size_t(inst->rel2)],
                             valueOf(env, inst->rel2));
                }
            }
            transfer(env, *inst);
            const RegIndex d = inst->dest;
            if (inst->tags.forward && d > 0) {
                out.fwdVals[size_t(d)] =
                    join(out.fwdVals[size_t(d)], env[size_t(d)]);
            }
        }
        if (blocks[b].exitsTask()) {
            out.anyExit = true;
            joinEnv(out.exitJoin, env);
        }
    }
    return out;
}

void
MemDepAnalysis::buildSummaries()
{
    Env top;
    top.fill(AbsVal::top());

    for (const auto &[addr, f] : verifier_.allFacts()) {
        MemSummary s;
        s.start = addr;
        s.incomplete = cut_.count(addr) != 0;
        if (s.incomplete) {
            // The walk left the analyzable region: the sets are
            // lower bounds, so the summary claims nothing.
            s.loadUnknown = s.storeUnknown = true;
            summaries_.emplace(addr, std::move(s));
            continue;
        }

        // Tasks never reached by the inter-task fixpoint (or not
        // reachable at all) are analyzed with an all-Top entry so the
        // lint passes still see them.
        auto eit = entryEnv_.find(addr);
        const Env &entry = eit != entryEnv_.end() ? eit->second : top;
        const TaskEnvs envs = solveTask(addr, entry);
        const TaskCfg *cfg = verifier_.cfg(addr);

        auto addRegion = [](std::vector<MemRegion> &regions,
                            const MemRegion &region) {
            for (const MemRegion &r : regions) {
                if (r.base == region.base &&
                    r.grainLog == region.grainLog &&
                    r.width >= region.width) {
                    return;
                }
            }
            regions.push_back(region);
        };

        for (size_t b = 0; b < cfg->blocks().size(); ++b) {
            Env env = envs.blockIn[b];
            for (Addr pc : cfg->blocks()[b].pcs) {
                const Instruction *inst = prog_.instrAt(pc);
                if (inst->memOp) {
                    const AbsVal v =
                        add(valueOf(env, inst->rs),
                            AbsVal::constant(Word(inst->imm)));
                    const unsigned width = accessWidth(inst->op);
                    const bool isLoad =
                        inst->opClass == InstClass::kLoad;
                    if (v.kind == AbsVal::Kind::kConst ||
                        v.kind == AbsVal::Kind::kStride) {
                        const MemRegion region{
                            v.base,
                            v.kind == AbsVal::Kind::kConst ? 32u
                                                           : v.grainLog,
                            width, pc};
                        addRegion(isLoad ? s.loads : s.stores, region);
                    } else {
                        // Top (or a blocked Bottom path, folded in
                        // conservatively): may touch anything.
                        (isLoad ? s.loadUnknown : s.storeUnknown) =
                            true;
                    }
                }
                transfer(env, *inst);
            }
        }
        summaries_.emplace(addr, std::move(s));
    }
}

void
MemDepAnalysis::buildConflicts()
{
    for (Addr e : reachable_) {
        const MemSummary &se = summaries_.at(e);
        const bool anyStore = se.storeUnknown || !se.stores.empty();
        for (Addr l : reachFrom_.at(e)) {
            if (!reachable_.count(l))
                continue;
            ++orderedPairs_;
            if (!anyStore)
                continue;
            const MemSummary &sl = summaries_.at(l);
            bool hit = false;
            if (se.storeUnknown) {
                hit = sl.loadUnknown || !sl.loads.empty();
            } else if (sl.loadUnknown) {
                hit = true;
            } else {
                for (const MemRegion &st : se.stores) {
                    for (const MemRegion &ld : sl.loads) {
                        if (st.overlaps(ld)) {
                            hit = true;
                            break;
                        }
                    }
                    if (hit)
                        break;
                }
            }
            if (hit)
                conflictPairs_.insert({e, l});
        }
    }
}

bool
MemDepAnalysis::violationPredicted(Addr store_task, Addr load_task,
                                   Addr addr, unsigned size) const
{
    const MemSummary *se = summary(store_task);
    const MemSummary *sl = summary(load_task);
    if (!se || !sl)
        return false;
    if (se->incomplete || sl->incomplete)
        return true;
    if (!conflict(store_task, load_task))
        return false;
    // The store wrote every byte of [addr, addr+size); the violated
    // task loaded at least one of them.
    return se->storesCover(addr, size) && sl->mayLoad(addr, size);
}

AnalysisReport
MemDepAnalysis::lint() const
{
    AnalysisReport rep;
    rep.numTasks = unsigned(summaries_.size());
    for (const auto &[addr, s] : summaries_)
        if (s.incomplete)
            ++rep.truncatedTasks;

    lintStackDiscipline(rep);
    lintDeadStore(rep);
    lintMemConflict(rep);

    rep.mem.present = true;
    rep.mem.tasks = unsigned(summaries_.size());
    rep.mem.reachableTasks = unsigned(reachable_.size());
    rep.mem.orderedPairs = orderedPairs_;
    rep.mem.conflictPairs = unsigned(conflictPairs_.size());
    for (const auto &[addr, s] : summaries_) {
        if (s.loadUnknown)
            ++rep.mem.unknownLoadTasks;
        if (s.storeUnknown)
            ++rep.mem.unknownStoreTasks;
    }
    return rep;
}

void
MemDepAnalysis::lintStackDiscipline(AnalysisReport &rep) const
{
    for (const auto &[addr, f] : verifier_.allFacts()) {
        (void)f;
        if (cut_.count(addr))
            continue;
        const TaskCfg *cfg = verifier_.cfg(addr);
        if (!cfg || cfg->blocks().empty())
            continue;
        // Track $sp relative to task entry: seed it with 0 and every
        // other register with Top, then check each exit path's
        // displacement.
        Env entry;
        entry.fill(AbsVal::top());
        entry[size_t(isa::kRegSp)] = AbsVal::constant(0);
        const TaskEnvs envs = solveTask(addr, entry);

        for (size_t b = 0; b < cfg->blocks().size(); ++b) {
            const CfgBlock &blk = cfg->blocks()[b];
            if (!blk.exitsTask())
                continue;
            Env env = envs.blockIn[b];
            for (Addr pc : blk.pcs)
                transfer(env, *prog_.instrAt(pc));
            const AbsVal sp = env[size_t(isa::kRegSp)];
            if (sp.kind != AbsVal::Kind::kConst || sp.base == 0)
                continue;
            std::ostringstream msg;
            msg << "task " << verifier_.labelFor(addr)
                << " reaches a task exit with $sp displaced by "
                << std::int32_t(sp.base)
                << " bytes from its entry value; unbalanced "
                   "save/restore breaks the stack-discipline "
                   "assumption the annotation verifier relies on "
                   "(restore $sp before every stop)";
            rep.diagnostics.push_back(verifier_.makeDiag(
                PassId::kStackDiscipline, Severity::kError, addr,
                blk.pcs.back(), kNoReg, msg.str()));
            break; // one finding per task is enough
        }
    }
}

void
MemDepAnalysis::lintDeadStore(AnalysisReport &rep) const
{
    for (const auto &[addr, f] : verifier_.allFacts()) {
        (void)f;
        if (cut_.count(addr))
            continue;
        const TaskCfg *cfg = verifier_.cfg(addr);
        if (!cfg || cfg->blocks().empty())
            continue;
        const auto &blocks = cfg->blocks();

        Env top;
        top.fill(AbsVal::top());
        auto eit = entryEnv_.find(addr);
        const TaskEnvs envs = solveTask(
            addr, eit != entryEnv_.end() ? eit->second : top);

        // Precompute one memory event per instruction occurrence.
        struct Event
        {
            enum class Kind : std::uint8_t {
                kNone,
                kLoad,
                kStore,
                kSyscall
            };
            Kind kind = Kind::kNone;
            MemRegion region;
            bool unknown = false;
        };
        std::vector<std::vector<Event>> events(blocks.size());
        for (size_t b = 0; b < blocks.size(); ++b) {
            Env env = envs.blockIn[b];
            events[b].resize(blocks[b].pcs.size());
            for (size_t i = 0; i < blocks[b].pcs.size(); ++i) {
                const Instruction *inst =
                    prog_.instrAt(blocks[b].pcs[i]);
                Event &ev = events[b][i];
                if (inst->opClass == InstClass::kSyscall) {
                    ev.kind = Event::Kind::kSyscall;
                } else if (inst->memOp) {
                    ev.kind = inst->opClass == InstClass::kLoad
                                  ? Event::Kind::kLoad
                                  : Event::Kind::kStore;
                    const AbsVal v =
                        add(valueOf(env, inst->rs),
                            AbsVal::constant(Word(inst->imm)));
                    if (v.kind == AbsVal::Kind::kConst ||
                        v.kind == AbsVal::Kind::kStride) {
                        ev.region = MemRegion{
                            v.base,
                            v.kind == AbsVal::Kind::kConst ? 32u
                                                           : v.grainLog,
                            accessWidth(inst->op), blocks[b].pcs[i]};
                    } else {
                        ev.unknown = true;
                    }
                }
                transfer(env, *inst);
            }
        }

        // Is the exact store R at (block b0, index i0) overwritten on
        // every path before anything can observe it? A path is
        // observing when it reaches a may-aliasing load, any syscall,
        // or a task exit (successor tasks may read); it is killed by
        // a covering store or a machine halt.
        auto isDead = [&](size_t b0, size_t i0, const MemRegion &R) {
            std::set<size_t> visited;
            std::deque<std::pair<size_t, size_t>> work;
            work.push_back({b0, i0 + 1});
            while (!work.empty()) {
                auto [b, i] = work.front();
                work.pop_front();
                bool killed = false;
                for (; i < events[b].size(); ++i) {
                    const Event &ev = events[b][i];
                    if (ev.kind == Event::Kind::kSyscall)
                        return false;
                    if (ev.kind == Event::Kind::kLoad) {
                        if (ev.unknown || ev.region.overlaps(R))
                            return false;
                    } else if (ev.kind == Event::Kind::kStore) {
                        if (!ev.unknown && ev.region.exact() &&
                            ev.region.covers(R.base, R.width)) {
                            killed = true;
                            break;
                        }
                    }
                }
                if (killed)
                    continue;
                const CfgBlock &blk = blocks[b];
                if (blk.exitsTask() || blk.opaqueEnd)
                    return false;
                if (blk.haltEnd)
                    continue; // the machine halts: unobservable
                for (unsigned s : blk.succs) {
                    if (visited.insert(s).second)
                        work.push_back({s, 0});
                }
            }
            return true;
        };

        // A store overwritten inside its task is still transiently
        // visible to concurrently-live later tasks through the ARB;
        // removing it would change violation timing. Only stores no
        // reachable successor task may load are truly unobservable.
        auto loadedDownstream = [&](const MemRegion &R) {
            auto rit = reachFrom_.find(addr);
            if (rit == reachFrom_.end())
                return false;
            for (Addr t : rit->second) {
                const MemSummary &s = summaries_.at(t);
                if (s.loadUnknown)
                    return true;
                for (const MemRegion &ld : s.loads)
                    if (ld.overlaps(R))
                        return true;
            }
            return false;
        };

        // A store instruction may appear in several call contexts;
        // report it only when every occurrence is dead.
        std::map<Addr, std::pair<bool, MemRegion>> verdicts;
        for (size_t b = 0; b < blocks.size(); ++b) {
            for (size_t i = 0; i < events[b].size(); ++i) {
                const Event &ev = events[b][i];
                if (ev.kind != Event::Kind::kStore || ev.unknown ||
                    !ev.region.exact()) {
                    continue;
                }
                if (loadedDownstream(ev.region))
                    continue;
                const bool dead = isDead(b, i, ev.region);
                auto [it, inserted] = verdicts.try_emplace(
                    ev.region.pc, dead, ev.region);
                if (!inserted)
                    it->second.first &= dead;
            }
        }
        for (const auto &[pc, verdict] : verdicts) {
            if (!verdict.first)
                continue;
            std::ostringstream msg;
            msg << "task " << verifier_.labelFor(addr) << " stores to 0x"
                << std::hex << verdict.second.base << std::dec
                << " but every path overwrites the value before any "
                   "load, syscall, or task exit can observe it "
                   "(remove the store or forward the value)";
            rep.diagnostics.push_back(verifier_.makeDiag(
                PassId::kDeadStore, Severity::kWarning, addr, pc, kNoReg,
                msg.str()));
        }
    }
}

void
MemDepAnalysis::lintMemConflict(AnalysisReport &rep) const
{
    // Per-CFG set of pcs that sit on an intra-task cycle, for the
    // loop-depth ranking.
    std::map<Addr, std::set<Addr>> cyclicPcs;
    auto pcsInCycles = [&](Addr task) -> const std::set<Addr> & {
        auto it = cyclicPcs.find(task);
        if (it != cyclicPcs.end())
            return it->second;
        std::set<Addr> &pcs = cyclicPcs[task];
        const TaskCfg *cfg = verifier_.cfg(task);
        if (!cfg)
            return pcs;
        const auto &blocks = cfg->blocks();
        for (size_t b = 0; b < blocks.size(); ++b) {
            // Can block b reach itself?
            std::set<unsigned> seen;
            std::deque<unsigned> work(blocks[b].succs.begin(),
                                      blocks[b].succs.end());
            bool cyclic = false;
            while (!work.empty() && !cyclic) {
                unsigned s = work.front();
                work.pop_front();
                if (s == b) {
                    cyclic = true;
                    break;
                }
                if (!seen.insert(s).second)
                    continue;
                for (unsigned nxt : blocks[s].succs)
                    work.push_back(nxt);
            }
            if (cyclic)
                pcs.insert(blocks[b].pcs.begin(), blocks[b].pcs.end());
        }
        return pcs;
    };

    struct Finding
    {
        unsigned depth;
        Addr store;
        Addr load;
        Addr pc;
        std::string message;
    };
    std::vector<Finding> findings;

    for (const auto &[e, l] : conflictPairs_) {
        const MemSummary &se = summaries_.at(e);
        const MemSummary &sl = summaries_.at(l);
        // Anchor the finding at the first conflicting store site.
        Addr sitePc = 0;
        if (!se.storeUnknown) {
            for (const MemRegion &st : se.stores) {
                if (sl.loadUnknown) {
                    sitePc = st.pc;
                    break;
                }
                for (const MemRegion &ld : sl.loads) {
                    if (st.overlaps(ld)) {
                        sitePc = st.pc;
                        break;
                    }
                }
                if (sitePc != 0)
                    break;
            }
        }

        unsigned depth = 0;
        // The pair sits on a task-graph cycle: the conflict recurs
        // every traversal.
        auto rit = reachFrom_.find(l);
        if (rit != reachFrom_.end() && rit->second.count(e))
            ++depth;
        if (sitePc != 0 && pcsInCycles(e).count(sitePc))
            ++depth;

        std::ostringstream msg;
        msg << "task " << verifier_.labelFor(e)
            << " may store to an address task " << verifier_.labelFor(l)
            << " speculatively loads (predicted ARB squash source, "
               "loop depth "
            << depth << ")";
        findings.push_back({depth, e, l, sitePc, msg.str()});
    }

    // Rank by loop depth, deepest (most squash-prone) first.
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.depth != b.depth)
                             return a.depth > b.depth;
                         if (a.store != b.store)
                             return a.store < b.store;
                         return a.load < b.load;
                     });
    for (const Finding &f : findings) {
        rep.diagnostics.push_back(verifier_.makeDiag(
            PassId::kMemConflict, Severity::kInfo, f.store, f.pc, kNoReg,
            f.message));
    }
}

} // namespace msim::analysis
