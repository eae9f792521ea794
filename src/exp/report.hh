/**
 * @file
 * Sweep reporting: paper-style text tables and the machine-readable
 * JSON report.
 *
 * ReportTable renders an aligned text table from string cells (the
 * bench binaries build the paper's Tables 2-4 and every ablation
 * grid with it). writeJsonReport emits the documented
 * "msim-sweep-v1" JSON schema: sweep metadata, program-cache
 * counters, and one row per cell — including failed cells, which
 * keep a well-formed row with `ok:false` and the error message.
 */

#ifndef MSIM_EXP_REPORT_HH
#define MSIM_EXP_REPORT_HH

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "exp/scheduler.hh"

namespace msim::exp {

/** An aligned text table (fixed column count, auto widths). */
class ReportTable
{
  public:
    /** @param title printed above the table. */
    explicit ReportTable(std::string title) : title_(std::move(title)) {}

    /** Set the header row; fixes the column count. */
    void header(std::vector<std::string> cells);
    /** Append a data row (padded / truncated to the column count). */
    void row(std::vector<std::string> cells);
    /** Render to @p out. First column left-aligned, rest right. */
    void print(std::FILE *out = stdout) const;

    /** Format helpers for numeric cells. */
    static std::string num(double v, int precision = 2);
    static std::string pct(double fraction, int precision = 1);
    static std::string count(std::uint64_t v);

  private:
    std::string title_;
    std::vector<std::string> header_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Write the msim-sweep-v1 JSON report (see README "JSON report
 * format"): experiment name, jobs, wall time, cache counters, and a
 * row per cell with headline counters and the cycle-accounting
 * categories. Failed cells appear with ok:false, their error string,
 * and zeroed counters, so the report is always well-formed.
 */
void writeJsonReport(std::ostream &os, const SweepResult &sweep);

} // namespace msim::exp

#endif // MSIM_EXP_REPORT_HH
