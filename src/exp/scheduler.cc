#include "exp/scheduler.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>
#include <thread>

#include "common/logging.hh"

namespace msim::exp {

namespace {

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

} // namespace

const CellResult *
SweepResult::find(const std::string &name) const
{
    for (const CellResult &c : cells)
        if (c.name == name)
            return &c;
    return nullptr;
}

const CellResult &
SweepResult::cell(const std::string &name) const
{
    const CellResult *c = find(name);
    fatalIf(c == nullptr, "sweep '", experiment, "': no cell named '",
            name, "'");
    return *c;
}

const RunResult &
SweepResult::result(const std::string &name) const
{
    const CellResult &c = cell(name);
    fatalIf(!c.ok, "sweep '", experiment, "': cell '", name,
            "' failed: ", c.error);
    return c.result;
}

std::size_t
SweepResult::failures() const
{
    std::size_t n = 0;
    for (const CellResult &c : cells)
        n += c.ok ? 0 : 1;
    return n;
}

unsigned
SweepScheduler::parseJobs(const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (!std::isdigit((unsigned char)text[0]) || *end != '\0' ||
        errno == ERANGE || v > std::numeric_limits<unsigned>::max())
        return 0;
    return unsigned(v);
}

unsigned
SweepScheduler::defaultJobs()
{
    if (const char *env = std::getenv("MSIM_JOBS")) {
        const unsigned jobs = parseJobs(env);
        fatalIf(jobs == 0, "MSIM_JOBS: '", env,
                "' is not a positive integer");
        return jobs;
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

SweepScheduler::SweepScheduler(unsigned jobs)
    : jobs_(jobs == 0 ? defaultJobs() : jobs)
{
}

SweepResult
SweepScheduler::run(const Experiment &experiment)
{
    const std::vector<Cell> &cells = experiment.cells();

    SweepResult sweep;
    sweep.experiment = experiment.name();
    sweep.jobs = jobs_;
    sweep.cells.resize(cells.size());

    const std::uint64_t hits0 = cache_.hits();
    const std::uint64_t misses0 = cache_.misses();
    const auto sweep_t0 = std::chrono::steady_clock::now();

    // Workers pull cell indices from a shared counter and write into
    // their preassigned slot, so the result vector keeps registration
    // order no matter which thread finishes when.
    auto runOne = [&](std::size_t i) {
        const Cell &cell = cells[i];
        CellResult &out = sweep.cells[i];
        out.name = cell.name;
        out.workload = cell.workload;
        const auto t0 = std::chrono::steady_clock::now();
        try {
            auto compiled =
                cache_.get(cell.workload, cell.spec.multiscalar,
                           cell.spec.defines, cell.scale);
            out.result = runCompiled(*compiled, cell.spec);
            out.ok = true;
        } catch (const std::exception &e) {
            out.ok = false;
            out.error = e.what();
        } catch (...) {
            out.ok = false;
            out.error = "unknown exception";
        }
        out.wallSeconds = secondsSince(t0);
    };

    const unsigned workers =
        unsigned(std::min<std::size_t>(jobs_, cells.size()));
    if (workers <= 1) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            runOne(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                for (std::size_t i = next.fetch_add(1);
                     i < cells.size(); i = next.fetch_add(1))
                    runOne(i);
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    sweep.wallSeconds = secondsSince(sweep_t0);
    sweep.cacheHits = cache_.hits() - hits0;
    sweep.cacheMisses = cache_.misses() - misses0;
    return sweep;
}

} // namespace msim::exp
