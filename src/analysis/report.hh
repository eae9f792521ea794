/**
 * @file
 * Diagnostics produced by the static annotation verifier.
 *
 * A diagnostic carries enough source context (file, line, task,
 * register) to render either as GCC-style one-per-line text —
 * `file:line: error: message` — or as a JSON document for tooling.
 */

#ifndef MSIM_ANALYSIS_REPORT_HH
#define MSIM_ANALYSIS_REPORT_HH

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hh"

namespace msim::analysis {

/**
 * The verification passes: six annotation passes (verifier.hh) and
 * three memory-dependence passes (mem_dep.hh).
 */
enum class PassId : std::uint8_t {
    kMaskSoundness,      //!< write outside mask reaches a stale read
    kMaskPrecision,      //!< mask entry never written nor released
    kPrematureForward,   //!< write after the register was forwarded
    kMissingLastUpdate,  //!< path reaches a stop without forwarding
    kUseBeforeDef,       //!< read of a value no path defines
    kTaskStructure,      //!< descriptors disagree with the task code
    kMemConflict,        //!< cross-task may-store/may-load overlap
    kStackDiscipline,    //!< unbalanced $sp adjustment across a task
    kDeadStore,          //!< store overwritten before any may-read
};

/**
 * Finding severities. kInfo never gates an exit status (even under
 * --strict): it marks expected-but-noteworthy behavior, like the
 * predicted ARB squash sources of mem-conflict.
 */
enum class Severity : std::uint8_t { kInfo, kWarning, kError };

/** @return the stable kebab-case name of a pass ("mask-soundness"). */
const char *passName(PassId pass);

/** @return the pass with the given kebab-case name, if any. */
std::optional<PassId> passByName(std::string_view name);

/** One finding. */
struct Diagnostic
{
    PassId pass;
    Severity severity = Severity::kError;
    /** Start address of the task the finding belongs to. */
    Addr task = 0;
    /** Symbolic name of the task (label), when known. */
    std::string taskName;
    /** Instruction address the finding anchors to (0 = task-level). */
    Addr pc = 0;
    /** Unified register index the finding is about. */
    RegIndex reg = kNoReg;
    /** Source file (from the program; may be empty). */
    std::string file;
    /** Source line (0 = unknown). */
    int line = 0;
    /** Human-readable description, no file/line prefix. */
    std::string message;
};

/**
 * Aggregate numbers of the memory-dependence analysis (mem_dep.hh):
 * the statically predicted cross-task conflict density of a program,
 * for correlating lint output with measured squash counters.
 */
struct MemDepStats
{
    /** True once a MemDepAnalysis filled these numbers in. */
    bool present = false;
    /** Tasks with a memory summary. */
    unsigned tasks = 0;
    /** Tasks reachable from the program entry over the task graph. */
    unsigned reachableTasks = 0;
    /** Ordered reachable (earlier, later) task pairs considered. */
    unsigned orderedPairs = 0;
    /** Pairs whose may-store/may-load sets overlap. */
    unsigned conflictPairs = 0;
    /** Tasks whose may-load set widened to unknown. */
    unsigned unknownLoadTasks = 0;
    /** Tasks whose may-store set widened to unknown. */
    unsigned unknownStoreTasks = 0;

    /** @return predicted conflict density in [0, 1]. */
    double
    density() const
    {
        return orderedPairs ? double(conflictPairs) / orderedPairs : 0.0;
    }
};

/** Everything the verifier found for one program. */
struct AnalysisReport
{
    std::vector<Diagnostic> diagnostics;
    /** Number of task descriptors analyzed. */
    unsigned numTasks = 0;
    /** Tasks whose CFG walk hit the state cap (facts incomplete). */
    unsigned truncatedTasks = 0;
    /** Predicted conflict density (filled by MemDepAnalysis::lint). */
    MemDepStats mem;

    unsigned errorCount() const;
    unsigned warningCount() const;
    unsigned infoCount() const;
    bool hasErrors() const { return errorCount() > 0; }

    /**
     * Render one `file:line: severity: message [pass]` line per
     * diagnostic, errors first, then a summary line when anything
     * was found.
     */
    std::string toText() const;

    /** Render as a JSON document (schema "msim-lint-v1"). */
    std::string toJson() const;
};

} // namespace msim::analysis

#endif // MSIM_ANALYSIS_REPORT_HH
