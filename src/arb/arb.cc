#include "arb/arb.hh"

#include <algorithm>

#include "common/logging.hh"

namespace msim {

Arb::Arb(StatGroup &stats, MainMemory &mem, const Params &params,
         Tracer *tracer)
    : stats_{stats}, mem_(mem), params_(params), tracer_(tracer),
      banks_(params.numBanks)
{
    fatalIf(params.numBanks == 0, "ARB needs at least one bank");
    fatalIf(params.entriesPerBank == 0, "ARB needs at least one entry");
    for (Bank &bank : banks_)
        bank.reserve(params.entriesPerBank);
}

Arb::TaskRecord *
Arb::findRecord(Entry &entry, TaskSeq seq, bool create, bool *created)
{
    auto it = std::lower_bound(
        entry.records.begin(), entry.records.end(), seq,
        [](const TaskRecord &r, TaskSeq s) { return r.seq < s; });
    if (it != entry.records.end() && it->seq == seq)
        return &*it;
    if (!create)
        return nullptr;
    TaskRecord rec;
    rec.seq = seq;
    if (created)
        *created = true;
    return &*entry.records.insert(it, rec);
}

bool
Arb::hasSpaceFor(TaskSeq seq, Addr addr, unsigned size, bool is_load,
                 bool is_head) const
{
    if (is_load && is_head)
        return true;  // head loads never allocate
    bool ok = true;
    forGranules(
        addr, size, [&](Addr g, unsigned, unsigned) {
            const Bank &bank = banks_[bankOf(g)];
            auto it = bank.find(g);
            if (it != bank.end()) {
                // Existing entry: a new record costs nothing (entries
                // are counted per granule, as in the ARB paper where
                // one row holds all stages' bits for one address).
                (void)seq;
                return;
            }
            if (is_head && !is_load)
                return;  // unbuffered head store, no allocation
            if (bank.size() >= params_.entriesPerBank)
                ok = false;
        });
    return ok;
}

std::uint64_t
Arb::load(TaskSeq seq, Addr addr, unsigned size, bool is_head)
{
    panicIf(size == 0 || size > 8, "Arb::load bad size ", size);
    // Start from committed memory, then patch in speculative bytes.
    std::uint64_t value = mem_.read(addr, size);
    auto *bytes = reinterpret_cast<std::uint8_t *>(&value);

    forGranules(addr, size, [&](Addr g, unsigned lo, unsigned hi) {
        Bank &bank = banks_[bankOf(g)];
        auto it = bank.find(g);
        Entry *entry = it != bank.end() ? &it->second : nullptr;

        for (unsigned b = lo; b < hi; ++b) {
            // Overall byte index within the loaded value.
            unsigned vi = unsigned(g + b - addr);
            bool from_own_store = false;
            if (entry) {
                // Nearest store at or before seq, newest first.
                for (auto rit = entry->records.rbegin();
                     rit != entry->records.rend(); ++rit) {
                    if (rit->seq > seq)
                        continue;
                    if (rit->storeMask & (1u << b)) {
                        bytes[vi] = rit->bytes[b];
                        from_own_store = rit->seq == seq;
                        break;
                    }
                }
            }
            // Record the load bit: the byte came from outside this
            // task, so an earlier task storing it later violates the
            // dependence. Head loads cannot be violated.
            if (!is_head && !from_own_store) {
                if (!entry) {
                    panicIf(bank.size() >= params_.entriesPerBank,
                            "ARB bank overflow on load; call "
                            "hasSpaceFor first");
                    entry = &bank[g];
                    it = bank.find(g);
                }
                bool created = false;
                TaskRecord *rec = findRecord(*entry, seq, true, &created);
                if (created)
                    touched_[seq].push_back(g);
                rec->loadMask |= std::uint8_t(1u << b);
            }
        }
    });
    ++stats_.loads;
    return value;
}

std::optional<TaskSeq>
Arb::store(TaskSeq seq, Addr addr, unsigned size, std::uint64_t value,
           bool is_head)
{
    panicIf(size == 0 || size > 8, "Arb::store bad size ", size);
    const auto *bytes = reinterpret_cast<const std::uint8_t *>(&value);
    std::optional<TaskSeq> violator;

    forGranules(addr, size, [&](Addr g, unsigned lo, unsigned hi) {
        Bank &bank = banks_[bankOf(g)];
        auto it = bank.find(g);
        Entry *entry = it != bank.end() ? &it->second : nullptr;

        const std::uint8_t store_mask =
            std::uint8_t(((1u << (hi - lo)) - 1u) << lo);

        // Violation check: the earliest later task that loaded any of
        // these bytes without an intervening store covering them.
        if (entry) {
            std::uint8_t unshadowed = store_mask;
            for (const TaskRecord &rec : entry->records) {
                if (rec.seq <= seq)
                    continue;
                if (rec.loadMask & unshadowed) {
                    if (!violator || rec.seq < *violator)
                        violator = rec.seq;
                    break;  // records are in seq order; first hit wins
                }
                // This later task stored some bytes before any still
                // later task loaded them; those bytes are shadowed.
                unshadowed &= std::uint8_t(~rec.storeMask);
                if (!unshadowed)
                    break;
            }
        }

        // Buffer or write through.
        bool buffered = false;
        if (entry) {
            TaskRecord *own = findRecord(*entry, seq, false);
            if (own && own->storeMask) {
                // Keep ordering with our earlier speculative bytes.
                for (unsigned b = lo; b < hi; ++b) {
                    own->bytes[b] = bytes[g + b - addr];
                    own->storeMask |= std::uint8_t(1u << b);
                }
                buffered = true;
            }
        }
        if (!buffered) {
            if (is_head) {
                // Non-speculative: write committed memory directly.
                for (unsigned b = lo; b < hi; ++b)
                    mem_.write(g + b, bytes[g + b - addr], 1);
            } else {
                if (!entry) {
                    panicIf(bank.size() >= params_.entriesPerBank,
                            "ARB bank overflow on store; call "
                            "hasSpaceFor first");
                    entry = &bank[g];
                }
                bool created = false;
                TaskRecord *rec = findRecord(*entry, seq, true, &created);
                if (created)
                    touched_[seq].push_back(g);
                for (unsigned b = lo; b < hi; ++b) {
                    rec->bytes[b] = bytes[g + b - addr];
                    rec->storeMask |= std::uint8_t(1u << b);
                }
            }
        }
    });

    ++stats_.stores;
    if (violator) {
        ++stats_.violations;
        stats_.group.addToDist("violationsByBank",
                               "bank" + std::to_string(bankOf(addr)));
        if (tracer_ && tracer_->wants(TraceCat::kArb)) {
            tracer_->instant(TraceCat::kArb, "violation",
                             tracer_->now(), kTidArb, "addr", addr,
                             "violated_seq", *violator);
        }
    }
    return violator;
}

void
Arb::commit(TaskSeq seq)
{
    auto tit = touched_.find(seq);
    if (tit == touched_.end())
        return;  // the task never allocated a record
    for (Addr g : tit->second) {
        Bank &bank = banks_[bankOf(g)];
        auto it = bank.find(g);
        panicIf(it == bank.end(),
                "ARB commit: touched granule has no entry");
        Entry &entry = it->second;
        auto rit = std::find_if(
            entry.records.begin(), entry.records.end(),
            [&](const TaskRecord &r) { return r.seq == seq; });
        panicIf(rit == entry.records.end(),
                "ARB commit: touched granule has no record");
        panicIf(rit != entry.records.begin(),
                "ARB commit out of task order");
        if (rit->storeMask) {
            for (unsigned b = 0; b < kGranule; ++b) {
                if (rit->storeMask & (1u << b))
                    mem_.write(g + b, rit->bytes[b], 1);
            }
            ++stats_.committedStores;
        }
        entry.records.erase(rit);
        if (entry.records.empty())
            bank.erase(it);
    }
    touched_.erase(tit);
}

void
Arb::squash(TaskSeq seq)
{
    auto tit = touched_.find(seq);
    if (tit == touched_.end())
        return;  // the task never allocated a record
    std::uint64_t squashedStores = 0;
    std::uint64_t squashedLoads = 0;
    for (Addr g : tit->second) {
        Bank &bank = banks_[bankOf(g)];
        auto it = bank.find(g);
        panicIf(it == bank.end(),
                "ARB squash: touched granule has no entry");
        Entry &entry = it->second;
        auto rit = std::find_if(
            entry.records.begin(), entry.records.end(),
            [&](const TaskRecord &r) { return r.seq == seq; });
        panicIf(rit == entry.records.end(),
                "ARB squash: touched granule has no record");
        if (rit->storeMask) {
            ++stats_.squashedStores;
            ++squashedStores;
        }
        if (rit->loadMask)
            ++squashedLoads;
        entry.records.erase(rit);
        if (entry.records.empty())
            bank.erase(it);
    }
    if (squashedStores)
        stats_.group.addToDist("squashedRecords", "store", squashedStores);
    if (squashedLoads)
        stats_.group.addToDist("squashedRecords", "load", squashedLoads);
    if (tracer_ && tracer_->wants(TraceCat::kArb)) {
        tracer_->instant(TraceCat::kArb, "task_squash", tracer_->now(),
                         kTidArb, "seq", seq, "granules",
                         std::uint64_t(tit->second.size()));
    }
    touched_.erase(tit);
}

size_t
Arb::totalEntries() const
{
    size_t n = 0;
    for (const Bank &bank : banks_)
        n += bank.size();
    return n;
}

void
Arb::clear()
{
    for (Bank &bank : banks_)
        bank.clear();
    touched_.clear();
}

} // namespace msim
