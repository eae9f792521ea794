#include "exp/report.hh"

#include <algorithm>
#include <cinttypes>

#include "common/json.hh"
#include "trace/cycle_accounting.hh"

namespace msim::exp {

void
ReportTable::header(std::vector<std::string> cells)
{
    header_ = std::move(cells);
}

void
ReportTable::row(std::vector<std::string> cells)
{
    cells.resize(header_.empty() ? cells.size() : header_.size());
    rows_.push_back(std::move(cells));
}

void
ReportTable::print(std::FILE *out) const
{
    std::vector<std::size_t> width(header_.size(), 0);
    auto widen = [&](const std::vector<std::string> &cells) {
        if (cells.size() > width.size())
            width.resize(cells.size(), 0);
        for (std::size_t i = 0; i < cells.size(); ++i)
            width[i] = std::max(width[i], cells[i].size());
    };
    widen(header_);
    for (const auto &r : rows_)
        widen(r);

    auto emit = [&](const std::vector<std::string> &cells) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const int w = int(width[i]);
            if (i == 0)
                std::fprintf(out, "%-*s", w, cells[i].c_str());
            else
                std::fprintf(out, "  %*s", w, cells[i].c_str());
        }
        std::fprintf(out, "\n");
    };

    if (!title_.empty())
        std::fprintf(out, "\n%s\n", title_.c_str());
    if (!header_.empty())
        emit(header_);
    for (const auto &r : rows_)
        emit(r);
}

std::string
ReportTable::num(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

std::string
ReportTable::pct(double fraction, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision,
                  100.0 * fraction);
    return buf;
}

std::string
ReportTable::count(std::uint64_t v)
{
    return std::to_string(v);
}

namespace {

/** One msim-sweep-v1 cell row, an element of the "cells" array. */
void
writeJsonCell(std::ostream &os, const CellResult &c)
{
    const RunResult &r = c.result;
    const std::string indent = "    ";
    const std::string in = indent + "  ";
    os << indent << "{\n";
    os << in << "\"name\": \"" << json::escape(c.name) << "\",\n";
    os << in << "\"workload\": \"" << json::escape(c.workload)
       << "\",\n";
    os << in << "\"ok\": " << (c.ok ? "true" : "false") << ",\n";
    if (c.ok)
        os << in << "\"error\": null,\n";
    else
        os << in << "\"error\": \"" << json::escape(c.error) << "\",\n";
    os << in << "\"wall_seconds\": " << c.wallSeconds << ",\n";
    os << in << "\"cycles\": " << r.cycles << ",\n";
    os << in << "\"instructions\": " << r.instructions << ",\n";
    os << in << "\"squashed_instructions\": " << r.squashedInstructions
       << ",\n";
    os << in << "\"ipc\": " << r.ipc() << ",\n";
    os << in << "\"tasks_retired\": " << r.tasksRetired << ",\n";
    os << in << "\"tasks_squashed\": " << r.tasksSquashed << ",\n";
    os << in << "\"task_predictions\": " << r.taskPredictions << ",\n";
    os << in << "\"task_pred_hits\": " << r.taskPredHits << ",\n";
    os << in << "\"pred_accuracy\": " << r.predAccuracy() << ",\n";
    os << in << "\"control_squashes\": " << r.controlSquashes << ",\n";
    os << in << "\"memory_squashes\": " << r.memorySquashes << ",\n";
    os << in << "\"arb_full_squashes\": " << r.arbFullSquashes
       << ",\n";
    os << in << "\"accounting\": {";
    bool first = true;
    for (std::size_t i = 0; i < kNumCycleCats; ++i) {
        if (!first)
            os << ", ";
        first = false;
        os << "\"" << cycleCatName(CycleCat(i))
           << "\": " << r.accounting[CycleCat(i)];
    }
    os << "}\n";
    os << indent << "}";
}

} // namespace

void
writeJsonReport(std::ostream &os, const SweepResult &sweep)
{
    os << "{\n";
    os << "  \"schema\": \"msim-sweep-v1\",\n";
    os << "  \"experiment\": \"" << json::escape(sweep.experiment)
       << "\",\n";
    os << "  \"jobs\": " << sweep.jobs << ",\n";
    os << "  \"wall_seconds\": " << sweep.wallSeconds << ",\n";
    os << "  \"cells_total\": " << sweep.cells.size() << ",\n";
    os << "  \"cells_failed\": " << sweep.failures() << ",\n";
    os << "  \"program_cache\": {\"hits\": " << sweep.cacheHits
       << ", \"misses\": " << sweep.cacheMisses << "},\n";
    os << "  \"cells\": [\n";
    for (std::size_t i = 0; i < sweep.cells.size(); ++i) {
        writeJsonCell(os, sweep.cells[i]);
        os << (i + 1 < sweep.cells.size() ? ",\n" : "\n");
    }
    os << "  ]\n";
    os << "}\n";
}

} // namespace msim::exp
