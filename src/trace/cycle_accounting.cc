#include "trace/cycle_accounting.hh"

namespace msim {

const char *
cycleCatName(CycleCat cat)
{
    switch (cat) {
      case CycleCat::kBusy:
        return "busy";
      case CycleCat::kRingWait:
        return "ring_wait";
      case CycleCat::kMemWait:
        return "mem_wait";
      case CycleCat::kIntraWait:
        return "intra_wait";
      case CycleCat::kFetchStall:
        return "fetch_stall";
      case CycleCat::kRetireWait:
        return "retire_wait";
      case CycleCat::kSquashed:
        return "squashed";
      case CycleCat::kIdle:
        return "idle";
      default:
        return "?";
    }
}

CycleAccounting::CycleAccounting(unsigned num_units)
    : numUnits_(num_units), final_(num_units), pending_(num_units),
      open_(num_units)
{
    fatalIf(num_units == 0, "cycle accounting needs at least one unit");
}

void
CycleAccounting::startRun(unsigned unit, CycleCat cat, Cycle at)
{
    Run &run = open_[unit];
    panicIf(at < run.start, "cycle accounting: unit ", unit,
            " closed at cycle ", at, " a run from cycle ", run.start);
    Counts &into = run.cat == CycleCat::kIdle ? final_[unit]
                                              : pending_[unit];
    into[size_t(run.cat)] += at - run.start;
    run = {cat, at};
}

void
CycleAccounting::commitTask(unsigned unit, Cycle end)
{
    panicIf(unit >= numUnits_, "cycle accounting: bad unit");
    startRun(unit, CycleCat::kIdle, end);
    Counts &p = pending_[unit];
    Counts &f = final_[unit];
    for (size_t c = 0; c < kNumCycleCats; ++c) {
        f[c] += p[c];
        p[c] = 0;
    }
}

void
CycleAccounting::squashTask(unsigned unit, Cycle end)
{
    panicIf(unit >= numUnits_, "cycle accounting: bad unit");
    startRun(unit, CycleCat::kIdle, end);
    Counts &p = pending_[unit];
    std::uint64_t wasted = 0;
    for (size_t c = 0; c < kNumCycleCats; ++c) {
        wasted += p[c];
        p[c] = 0;
    }
    final_[unit][size_t(CycleCat::kSquashed)] += wasted;
}

CycleAccountingResult
CycleAccounting::finish(Cycle cycles_simulated) const
{
    CycleAccountingResult out;
    out.numUnits = numUnits_;
    out.perUnit.resize(numUnits_);
    for (unsigned u = 0; u < numUnits_; ++u) {
        const Run &run = open_[u];
        panicIf(run.cat != CycleCat::kIdle,
                "cycle accounting finished with an open task run on "
                "unit ", u, " (unresolved task fate)");
        for (size_t c = 0; c < kNumCycleCats; ++c) {
            panicIf(pending_[u][c] != 0,
                    "cycle accounting finished with pending counts on "
                    "unit ", u, " (unresolved task fate)");
            out.perUnit[u][c] = final_[u][c];
        }
        // The idle run in progress; books closed past the end break
        // the invariant below.
        if (cycles_simulated > run.start)
            out.perUnit[u][size_t(CycleCat::kIdle)] +=
                cycles_simulated - run.start;
        for (size_t c = 0; c < kNumCycleCats; ++c)
            out.total[c] += out.perUnit[u][c];
    }
    panicIf(out.sum() != std::uint64_t(cycles_simulated) * numUnits_,
            "cycle accounting invariant broken: categories sum to ",
            out.sum(), " but ", cycles_simulated, " cycles x ",
            numUnits_, " units = ",
            std::uint64_t(cycles_simulated) * numUnits_);
    return out;
}

void
exportStats(const CycleAccountingResult &res, StatGroup &group)
{
    for (unsigned u = 0; u < res.numUnits; ++u) {
        const std::string dist = "pu" + std::to_string(u);
        for (size_t c = 0; c < kNumCycleCats; ++c)
            group.addToDist(dist, cycleCatName(CycleCat(c)),
                            res.perUnit[u][c]);
    }
}

} // namespace msim
