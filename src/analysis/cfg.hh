/**
 * @file
 * Per-task control flow graphs for multiscalar programs.
 *
 * A task's code region is not a syntactic range: it is everything
 * reachable from the task's start address by following intra-task
 * control flow (conditional branches, direct jumps, and calls with a
 * bounded static call stack) until a satisfied stop condition hands
 * control to the sequencer. TaskCfg performs that walk once,
 * context-sensitively — a walk state is (pc, return stack), so one
 * helper function called from two sites is analyzed per call site and
 * its returns go back to the right continuation — and condenses the
 * reachable states into basic blocks.
 *
 * The CFG is the shared substrate of the static tooling: the
 * annotation verifier (verifier.hh) checks each task's exits, stop
 * reachability and forward points against its descriptor and runs
 * bit-vector dataflow over its blocks, and the memory-dependence
 * analysis (mem_dep.hh) runs its address dataflow over the same
 * blocks.
 */

#ifndef MSIM_ANALYSIS_CFG_HH
#define MSIM_ANALYSIS_CFG_HH

#include <set>
#include <vector>

#include "program/program.hh"

namespace msim::analysis {

/** Exploration limits of the static walk. */
inline constexpr size_t kMaxWalkStates = 20000;
inline constexpr size_t kMaxWalkCallDepth = 16;

/**
 * One basic block: a maximal straight-line run of walk states.
 *
 * Because the walk is context-sensitive, the same instruction address
 * can appear in more than one block (one per distinct call context);
 * dataflow over the blocks is then automatically context-sensitive.
 */
struct CfgBlock
{
    /** Instruction addresses in execution order. */
    std::vector<Addr> pcs;
    /** Intra-task successor blocks. */
    std::vector<unsigned> succs;
    /**
     * Task-exit addresses reachable through a satisfied stop
     * condition on the last instruction of this block.
     */
    std::vector<Addr> exits;
    /** A stop on a jr/jalr makes this block's exit dynamic. */
    bool stopDynamicExit = false;
    /**
     * Control leaves the analyzable region without a stop: an
     * indirect call with no stop, or a return with no statically
     * known caller. These count as dynamic exits too.
     */
    bool opaqueEnd = false;
    /**
     * This block ends in an exit syscall (`li $v0, 10; syscall`):
     * the machine halts, so the path neither continues nor hands
     * values to a successor task.
     */
    bool haltEnd = false;

    /** @return true when a stop condition can exit the task here. */
    bool
    exitsTask() const
    {
        return !exits.empty() || stopDynamicExit;
    }
};

/** The control flow graph of one task. */
class TaskCfg
{
  public:
    /**
     * Build the CFG by walking the task starting at @p start. The
     * program must outlive the graph.
     */
    TaskCfg(const Program &prog, Addr start);

    const Program &program() const { return prog_; }
    Addr start() const { return start_; }

    /** @return the basic blocks; block 0 is the entry (when any). */
    const std::vector<CfgBlock> &blocks() const { return blocks_; }

    /** @return every distinct instruction address in the task. */
    const std::set<Addr> &reachablePcs() const { return reachable_; }

    /** @return sorted distinct task-exit addresses through stops. */
    const std::vector<Addr> &staticExits() const { return staticExits_; }

    /** @return true when any satisfied stop condition is reachable. */
    bool stopReachable() const { return stopReachable_; }

    /**
     * @return true when the task can leave through an address not
     * known statically (jr/jalr stop, unmatched return, indirect
     * call with no stop).
     */
    bool dynamicExit() const { return dynamicExit_; }

    /** @return true when the walk hit kMaxWalkStates and gave up. */
    bool truncated() const { return truncated_; }

    /** @return block predecessor lists (parallel to blocks()). */
    const std::vector<std::vector<unsigned>> &preds() const
    {
        return preds_;
    }

  private:
    void build();

    const Program &prog_;
    Addr start_;
    std::vector<CfgBlock> blocks_;
    std::vector<std::vector<unsigned>> preds_;
    std::set<Addr> reachable_;
    std::vector<Addr> staticExits_;
    bool stopReachable_ = false;
    bool dynamicExit_ = false;
    bool truncated_ = false;
};

} // namespace msim::analysis

#endif // MSIM_ANALYSIS_CFG_HH
