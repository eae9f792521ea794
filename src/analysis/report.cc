#include "analysis/report.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/json.hh"

namespace msim::analysis {

const char *
passName(PassId pass)
{
    switch (pass) {
      case PassId::kMaskSoundness:
        return "mask-soundness";
      case PassId::kMaskPrecision:
        return "mask-precision";
      case PassId::kPrematureForward:
        return "premature-forward";
      case PassId::kMissingLastUpdate:
        return "missing-last-update";
      case PassId::kUseBeforeDef:
        return "use-before-def";
      case PassId::kTaskStructure:
        return "task-structure";
      case PassId::kMemConflict:
        return "mem-conflict";
      case PassId::kStackDiscipline:
        return "stack-discipline";
      case PassId::kDeadStore:
        return "dead-store";
    }
    return "unknown";
}

std::optional<PassId>
passByName(std::string_view name)
{
    for (auto pass :
         {PassId::kMaskSoundness, PassId::kMaskPrecision,
          PassId::kPrematureForward, PassId::kMissingLastUpdate,
          PassId::kUseBeforeDef, PassId::kTaskStructure,
          PassId::kMemConflict, PassId::kStackDiscipline,
          PassId::kDeadStore}) {
        if (name == passName(pass))
            return pass;
    }
    return std::nullopt;
}

namespace {

unsigned
countOf(const std::vector<Diagnostic> &diags, Severity sev)
{
    return unsigned(std::count_if(
        diags.begin(), diags.end(),
        [sev](const Diagnostic &d) { return d.severity == sev; }));
}

const char *
severityName(Severity sev)
{
    switch (sev) {
      case Severity::kError:
        return "error";
      case Severity::kWarning:
        return "warning";
      case Severity::kInfo:
        return "info";
    }
    return "unknown";
}

void
renderLine(std::ostringstream &os, const Diagnostic &d)
{
    if (!d.file.empty())
        os << d.file << ":";
    if (d.line > 0)
        os << d.line << ":";
    if (!d.file.empty() || d.line > 0)
        os << " ";
    os << severityName(d.severity) << ": " << d.message << " ["
       << passName(d.pass) << "]\n";
}

} // namespace

unsigned
AnalysisReport::errorCount() const
{
    return countOf(diagnostics, Severity::kError);
}

unsigned
AnalysisReport::warningCount() const
{
    return countOf(diagnostics, Severity::kWarning);
}

unsigned
AnalysisReport::infoCount() const
{
    return countOf(diagnostics, Severity::kInfo);
}

std::string
AnalysisReport::toText() const
{
    std::ostringstream os;
    for (auto sev :
         {Severity::kError, Severity::kWarning, Severity::kInfo}) {
        for (const Diagnostic &d : diagnostics)
            if (d.severity == sev)
                renderLine(os, d);
    }
    if (!diagnostics.empty()) {
        os << errorCount() << " error(s), " << warningCount()
           << " warning(s)";
        if (infoCount() > 0)
            os << ", " << infoCount() << " info(s)";
        os << " across " << numTasks << " task(s)\n";
    }
    return os.str();
}

std::string
AnalysisReport::toJson() const
{
    std::ostringstream os;
    os << "{\n";
    os << "  \"schema\": \"msim-lint-v1\",\n";
    os << "  \"tasks\": " << numTasks << ",\n";
    os << "  \"truncated_tasks\": " << truncatedTasks << ",\n";
    os << "  \"errors\": " << errorCount() << ",\n";
    os << "  \"warnings\": " << warningCount() << ",\n";
    os << "  \"infos\": " << infoCount() << ",\n";
    if (mem.present) {
        char density[32];
        std::snprintf(density, sizeof(density), "%.4f", mem.density());
        os << "  \"mem\": {\"tasks\": " << mem.tasks
           << ", \"reachable_tasks\": " << mem.reachableTasks
           << ", \"ordered_pairs\": " << mem.orderedPairs
           << ", \"conflict_pairs\": " << mem.conflictPairs
           << ", \"unknown_load_tasks\": " << mem.unknownLoadTasks
           << ", \"unknown_store_tasks\": " << mem.unknownStoreTasks
           << ", \"conflict_density\": " << density << "},\n";
    }
    os << "  \"diagnostics\": [";
    bool first = true;
    for (const Diagnostic &d : diagnostics) {
        os << (first ? "\n" : ",\n");
        first = false;
        os << "    {\"pass\": \"" << passName(d.pass) << "\", "
           << "\"severity\": \"" << severityName(d.severity) << "\", "
           << "\"task\": \"" << json::escape(d.taskName) << "\", "
           << "\"pc\": " << d.pc << ", "
           << "\"reg\": " << int(d.reg) << ", "
           << "\"file\": \"" << json::escape(d.file) << "\", "
           << "\"line\": " << d.line << ", "
           << "\"message\": \"" << json::escape(d.message) << "\"}";
    }
    os << (first ? "]" : "\n  ]") << "\n}\n";
    return os.str();
}

} // namespace msim::analysis
