#include "analysis/cfg.hh"

#include <algorithm>
#include <deque>
#include <map>

#include "isa/exec.hh"
#include "isa/instruction.hh"
#include "isa/registers.hh"

namespace msim::analysis {

namespace {

using isa::InstClass;
using isa::Instruction;
using isa::Opcode;
using isa::StopKind;

/** Exploration state: a pc plus a bounded static call stack. */
struct WalkState
{
    Addr pc;
    std::vector<Addr> retStack;

    bool
    operator<(const WalkState &o) const
    {
        if (pc != o.pc)
            return pc < o.pc;
        return retStack < o.retStack;
    }
};

/** Per-state facts gathered during the walk. */
struct StateInfo
{
    std::vector<unsigned> succs;
    std::vector<Addr> exits;
    bool stopDyn = false;
    bool opaque = false;
    bool halt = false;

    bool
    endsBlock() const
    {
        return !exits.empty() || stopDyn || opaque || halt ||
               succs.size() != 1;
    }
};

/**
 * Peephole for the exit syscall: a syscall whose textual predecessor
 * is `li $v0, 10` halts the machine, so the walk must not fall
 * through it (the code below an exit sequence is typically a helper
 * function whose reads belong to its callers, not to this task).
 * Arriving at such a syscall by a jump with a different $v0 would be
 * misclassified, but the pre-peephole behavior — falling through
 * unconditionally — was wrong for that case too.
 */
bool
isExitSyscall(const Program &prog, Addr pc)
{
    const Instruction *prev = prog.instrAt(pc - kInstrBytes);
    if (!prev)
        return false;
    if (prev->op != Opcode::kAddiu && prev->op != Opcode::kAddi &&
        prev->op != Opcode::kOri)
        return false;
    return prev->dest == isa::intReg(isa::kRegV0) &&
           prev->rs == isa::kRegZero && prev->imm == 10;
}

} // namespace

TaskCfg::TaskCfg(const Program &prog, Addr start)
    : prog_(prog), start_(start)
{
    build();
}

void
TaskCfg::build()
{
    // Phase 1: explore the state graph. States whose pc has no
    // instruction are never interned: a path that runs off the text
    // image simply dead-ends (the runtime guards it).
    std::map<WalkState, unsigned> ids;
    std::vector<WalkState> states;
    std::vector<StateInfo> info;
    std::deque<unsigned> work;

    auto intern = [&](WalkState st) -> int {
        auto it = ids.find(st);
        if (it != ids.end())
            return int(it->second);
        if (states.size() >= kMaxWalkStates) {
            truncated_ = true;
            return -1;
        }
        unsigned id = unsigned(states.size());
        ids.emplace(st, id);
        states.push_back(std::move(st));
        info.emplace_back();
        work.push_back(id);
        return int(id);
    };

    if (prog_.instrAt(start_))
        intern({start_, {}});

    std::set<Addr> exitSet;

    while (!work.empty()) {
        const unsigned id = work.front();
        work.pop_front();
        // Copy: intern() may grow `states` while we hold references.
        const WalkState st = states[id];
        const Instruction *inst = prog_.instrAt(st.pc);
        reachable_.insert(st.pc);

        const StopKind stop = inst->tags.stop;
        const Addr fallthrough = st.pc + kInstrBytes;

        auto addEdge = [&](Addr pc, std::vector<Addr> retStack) {
            if (!prog_.instrAt(pc))
                return;
            int t = intern({pc, std::move(retStack)});
            if (t >= 0)
                info[id].succs.push_back(unsigned(t));
        };
        auto addExit = [&](Addr a) {
            stopReachable_ = true;
            info[id].exits.push_back(a);
            exitSet.insert(a);
        };

        if (inst->isCondBranch()) {
            // The "b" pseudo (beq r,r) and its bne r,r dual have only
            // one real path.
            if (inst->isAlwaysTaken() || inst->isNeverTaken()) {
                const Addr next = inst->isAlwaysTaken()
                                      ? inst->target
                                      : fallthrough;
                const bool exits =
                    stop == StopKind::kAlways ||
                    (stop == StopKind::kIfTaken &&
                     inst->isAlwaysTaken()) ||
                    (stop == StopKind::kIfNotTaken &&
                     inst->isNeverTaken());
                if (exits)
                    addExit(next);
                else
                    addEdge(next, st.retStack);
                continue;
            }
            switch (stop) {
              case StopKind::kAlways:
                addExit(inst->target);
                addExit(fallthrough);
                continue;
              case StopKind::kIfTaken:
                addExit(inst->target);
                addEdge(fallthrough, st.retStack);
                continue;
              case StopKind::kIfNotTaken:
                addExit(fallthrough);
                addEdge(inst->target, st.retStack);
                continue;
              case StopKind::kNone:
                addEdge(inst->target, st.retStack);
                addEdge(fallthrough, st.retStack);
                continue;
            }
        }
        if (inst->op == Opcode::kJ) {
            if (stop == StopKind::kAlways)
                addExit(inst->target);
            else
                addEdge(inst->target, st.retStack);
            continue;
        }
        if (inst->op == Opcode::kJal || inst->op == Opcode::kJalr) {
            if (stop == StopKind::kAlways) {
                stopReachable_ = true;
                if (inst->op == Opcode::kJal) {
                    info[id].exits.push_back(inst->target);
                    exitSet.insert(inst->target);
                } else {
                    info[id].stopDyn = true;
                    dynamicExit_ = true;
                }
                continue;
            }
            if (inst->op == Opcode::kJalr) {
                // Indirect call with no stop: cannot follow.
                info[id].opaque = true;
                dynamicExit_ = true;
                continue;
            }
            if (st.retStack.size() < kMaxWalkCallDepth) {
                std::vector<Addr> callee = st.retStack;
                callee.push_back(fallthrough);
                addEdge(inst->target, std::move(callee));
            }
            continue;
        }
        if (inst->op == Opcode::kJr) {
            if (stop == StopKind::kAlways) {
                stopReachable_ = true;
                info[id].stopDyn = true;
                dynamicExit_ = true;
                continue;
            }
            if (!st.retStack.empty()) {
                std::vector<Addr> ret = st.retStack;
                ret.pop_back();
                addEdge(st.retStack.back(), std::move(ret));
            } else {
                // A return with no statically known caller.
                info[id].opaque = true;
                dynamicExit_ = true;
            }
            continue;
        }
        // Straight-line instruction. An exit syscall halts the
        // machine: no successors, and the halt outranks any stop tag.
        if (inst->opClass == InstClass::kSyscall &&
            isExitSyscall(prog_, st.pc)) {
            info[id].halt = true;
            continue;
        }
        if (stop == StopKind::kAlways) {
            addExit(fallthrough);
            continue;
        }
        addEdge(fallthrough, st.retStack);
    }

    staticExits_.assign(exitSet.begin(), exitSet.end());

    // Phase 2: condense states into basic blocks. A state leads a
    // block when it is the entry, has other than exactly one
    // predecessor, or its predecessor ends a block (multiple
    // successors or exit facts of its own).
    const size_t n = states.size();
    if (n == 0)
        return;

    std::vector<unsigned> predCount(n, 0);
    for (const StateInfo &si : info)
        for (unsigned t : si.succs)
            ++predCount[t];

    std::vector<bool> leader(n, false);
    leader[0] = true;
    for (size_t s = 0; s < n; ++s) {
        if (predCount[s] != 1)
            leader[s] = true;
        if (info[s].endsBlock())
            for (unsigned t : info[s].succs)
                leader[t] = true;
    }

    std::vector<int> blockOf(n, -1);
    for (size_t s = 0; s < n; ++s) {
        if (!leader[s])
            continue;
        const unsigned b = unsigned(blocks_.size());
        blocks_.emplace_back();
        unsigned cur = unsigned(s);
        for (;;) {
            blockOf[cur] = int(b);
            blocks_[b].pcs.push_back(states[cur].pc);
            if (info[cur].endsBlock() || leader[info[cur].succs[0]])
                break;
            cur = info[cur].succs[0];
        }
        blocks_[b].exits = info[cur].exits;
        blocks_[b].stopDynamicExit = info[cur].stopDyn;
        blocks_[b].opaqueEnd = info[cur].opaque;
        blocks_[b].haltEnd = info[cur].halt;
        // Record the terminal state; succs resolve after all blocks
        // exist.
        blocks_[b].succs.assign(info[cur].succs.begin(),
                                info[cur].succs.end());
    }
    for (CfgBlock &b : blocks_)
        for (unsigned &t : b.succs)
            t = unsigned(blockOf[t]);

    preds_.assign(blocks_.size(), {});
    for (unsigned b = 0; b < blocks_.size(); ++b)
        for (unsigned t : blocks_[b].succs)
            preds_[t].push_back(b);
}

} // namespace msim::analysis
