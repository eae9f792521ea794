#include "program/task_graph.hh"

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/cfg.hh"
#include "isa/exec.hh"
#include "isa/instruction.hh"
#include "isa/registers.hh"

namespace msim {

using isa::Instruction;
using isa::StopKind;

TaskGraph::TaskGraph(const Program &prog) : prog_(prog)
{
    for (const auto &[name, addr] : prog.symbols) {
        // Prefer the first symbol alphabetically per address.
        if (!names_.count(addr))
            names_[addr] = name;
    }
    for (const auto &[addr, desc] : prog.tasks) {
        Node node;
        node.start = addr;
        node.desc = &desc;
        nodes_.push_back(node);
    }
    std::sort(nodes_.begin(), nodes_.end(),
              [](const Node &a, const Node &b) {
                  return a.start < b.start;
              });
    // The per-task facts all derive from the shared CFG walker
    // (src/analysis/cfg.hh), which the annotation verifier also runs
    // its dataflow passes over.
    for (Node &node : nodes_) {
        const analysis::TaskCfg cfg(prog_, node.start);
        node.staticExits = cfg.staticExits();
        node.dynamicExit = cfg.dynamicExit();
        node.stopReachable = cfg.stopReachable();
        node.reachableInstructions = unsigned(cfg.reachablePcs().size());
        node.reachable = cfg.reachablePcs();
    }
}

std::vector<TaskGraphIssue>
TaskGraph::validate() const
{
    std::vector<TaskGraphIssue> issues;
    using Kind = TaskGraphIssue::Kind;

    auto hex = [](Addr a) {
        std::ostringstream os;
        os << "0x" << std::hex << a;
        return os.str();
    };

    if (!prog_.taskAt(prog_.entry)) {
        issues.push_back({Kind::kNoEntryDescriptor, 0, prog_.entry,
                          "entry point " + hex(prog_.entry) +
                              " has no task descriptor"});
    }

    for (const Node &node : nodes_) {
        const std::string name = labelFor(node.start);
        bool has_ret_target = false;
        std::set<Addr> declared;
        for (const TaskTarget &t : node.desc->targets) {
            if (t.spec == TargetSpec::kReturn) {
                has_ret_target = true;
                continue;
            }
            declared.insert(t.addr);
            if (!prog_.taskAt(t.addr)) {
                issues.push_back(
                    {Kind::kMissingDescriptor, node.start, t.addr,
                     "task " + name + " declares target " +
                         labelFor(t.addr) +
                         " which has no task descriptor"});
            }
            if (t.spec == TargetSpec::kCall &&
                !prog_.taskAt(t.returnTo)) {
                issues.push_back(
                    {Kind::kMissingDescriptor, node.start, t.returnTo,
                     "task " + name + " declares continuation " +
                         labelFor(t.returnTo) +
                         " which has no task descriptor"});
            }
        }

        for (Addr exit : node.staticExits) {
            if (!declared.count(exit) && !has_ret_target) {
                issues.push_back(
                    {Kind::kUndeclaredExit, node.start, exit,
                     "task " + name + " can exit to " +
                         labelFor(exit) +
                         " which is not a declared target"});
            }
        }
        if (node.dynamicExit && !has_ret_target &&
            !node.desc->targets.empty()) {
            issues.push_back(
                {Kind::kMissingReturnSpec, node.start, 0,
                 "task " + name + " has a dynamic (jr) exit but no "
                 "'ret' target"});
        }
        if (!node.desc->targets.empty() && !node.stopReachable &&
            !node.dynamicExit) {
            issues.push_back(
                {Kind::kNoStopReachable, node.start, 0,
                 "task " + name +
                     " declares successors but no stop condition is "
                     "statically reachable"});
        }

        // Forward/release mask checks over the task's reachable
        // instructions, as recorded by the shared CFG walk. These
        // are membership checks, so the pc set is all they need.
        for (Addr pc : node.reachable) {
            const Instruction *inst = prog_.instrAt(pc);
            const RegIndex fwd = inst->dest;
            if (inst->tags.forward && fwd > 0 &&
                !node.desc->createMask.test(fwd)) {
                issues.push_back(
                    {Kind::kForwardOutsideMask, node.start, pc,
                     "task " + name + " forwards " +
                         isa::regName(fwd) + " at " + labelFor(pc) +
                         " outside its create mask"});
            }
            if (inst->opClass == isa::InstClass::kRelease) {
                for (RegIndex r : {inst->rs, inst->rel2}) {
                    if (r > 0 && !node.desc->createMask.test(r)) {
                        issues.push_back(
                            {Kind::kReleaseOutsideMask, node.start, pc,
                             "task " + name + " releases " +
                                 isa::regName(r) + " at " +
                                 labelFor(pc) +
                                 " outside its create mask"});
                    }
                }
            }
        }
    }
    return issues;
}

std::string
TaskGraph::labelFor(Addr addr) const
{
    auto it = names_.find(addr);
    if (it != names_.end())
        return it->second;
    std::ostringstream os;
    os << "0x" << std::hex << addr;
    return os.str();
}

std::string
TaskGraph::toDot() const
{
    std::ostringstream os;
    os << "digraph tasks {\n";
    os << "  node [shape=box, fontname=\"monospace\"];\n";
    for (const Node &node : nodes_) {
        os << "  \"" << labelFor(node.start) << "\" [label=\""
           << labelFor(node.start) << "\\ncreate {"
           << node.desc->createMask.toString() << "}\\n"
           << node.reachableInstructions << " static instrs\"];\n";
        for (const TaskTarget &t : node.desc->targets) {
            if (t.spec == TargetSpec::kReturn) {
                os << "  \"" << labelFor(node.start)
                   << "\" -> \"(return)\" [style=dashed];\n";
                continue;
            }
            os << "  \"" << labelFor(node.start) << "\" -> \""
               << labelFor(t.addr) << "\"";
            switch (t.spec) {
              case TargetSpec::kLoop:
                os << " [color=blue, label=loop]";
                break;
              case TargetSpec::kCall:
                os << " [color=darkgreen, label=\"call ret="
                   << labelFor(t.returnTo) << "\"]";
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

} // namespace msim
