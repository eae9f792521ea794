/**
 * @file
 * Task descriptors: the static per-task information a multiscalar
 * program carries beside the code (paper section 2.2). A descriptor
 * names the registers the task may create (create mask) and the
 * possible successor tasks the sequencer can choose from (up to four
 * targets, each with a spec that tells the predictor how to treat it).
 */

#ifndef MSIM_PROGRAM_TASK_DESCRIPTOR_HH
#define MSIM_PROGRAM_TASK_DESCRIPTOR_HH

#include <cstdint>
#include <vector>

#include "common/reg_mask.hh"
#include "common/types.hh"

namespace msim {

/** How the sequencer should treat a successor target. */
enum class TargetSpec : std::uint8_t {
    kNormal,  //!< plain static successor
    kLoop,    //!< back edge to the same (or an enclosing) loop task
    kCall,    //!< enters a function; push returnTo on the RAS
    kReturn,  //!< successor comes from the return address stack
};

/** One possible successor task. */
struct TaskTarget
{
    /** Successor task start address (unused for kReturn). */
    Addr addr = 0;
    TargetSpec spec = TargetSpec::kNormal;
    /** Continuation pushed on the RAS for kCall targets. */
    Addr returnTo = 0;

    bool operator==(const TaskTarget &) const = default;
};

/** Maximum number of successor targets per task (paper section 5.1). */
inline constexpr unsigned kMaxTaskTargets = 4;

/** Static description of one task. */
struct TaskDescriptor
{
    /** Address of the first instruction of the task. */
    Addr start = 0;
    /** Registers this task may produce (paper: create mask). */
    RegMask createMask;
    /** Possible successors, at most kMaxTaskTargets. */
    std::vector<TaskTarget> targets;

    /** Source line of the .task directive (0 = unknown). */
    int lineNo = 0;
};

} // namespace msim

#endif // MSIM_PROGRAM_TASK_DESCRIPTOR_HH
