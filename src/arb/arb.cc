#include "arb/arb.hh"

#include <algorithm>
#include <bit>

#include "common/logging.hh"

namespace msim {

Arb::Arb(StatGroup &stats, MainMemory &mem, const Params &params,
         Tracer *tracer)
    : stats_{stats}, mem_(mem), params_(params), tracer_(tracer),
      banks_(params.numBanks)
{
    fatalIf(params.numBanks == 0, "ARB needs at least one bank");
    fatalIf(params.entriesPerBank == 0, "ARB needs at least one entry");
    for (unsigned b = 0; b < params.numBanks; ++b)
        bankBuckets_.push_back("bank" + std::to_string(b));
}

Arb::Row &
Arb::Bank::allocate(Addr g)
{
    std::uint32_t id = freeHead_;
    if (id == kNoRow) {
        // Every row is live: grow the pool, keeping the index at most
        // half full.
        id = std::uint32_t(rows_.size());
        rows_.emplace_back();
        if (rows_.size() * 2 > index_.size())
            growIndex();
    } else {
        freeHead_ = rows_[id].nextFree;
    }
    Row &row = rows_[id];
    row.granule = g;
    Slot &slot = index_[slotOf(g)];
    slot.granule = g;
    slot.row = id;
    ++live_;
    return row;
}

void
Arb::Bank::release(Row &row)
{
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless that would move one before its home slot.
    const size_t mask = index_.size() - 1;
    size_t hole = slotOf(row.granule);
    for (size_t i = (hole + 1) & mask; index_[i].row != kNoRow;
         i = (i + 1) & mask) {
        if (((i - home(index_[i].granule)) & mask) >= ((i - hole) & mask)) {
            index_[hole] = index_[i];
            hole = i;
        }
    }
    index_[hole].row = kNoRow;
    row.nextFree = freeHead_;
    freeHead_ = std::uint32_t(&row - rows_.data());
    --live_;
}

void
Arb::Bank::growIndex()
{
    std::vector<Slot> old(index_.size() * 2);
    old.swap(index_);
    --shift_;
    for (const Slot &slot : old) {
        if (slot.row != kNoRow)
            index_[slotOf(slot.granule)] = slot;
    }
}

Arb::TaskGranules *
Arb::touchedBy(TaskSeq seq)
{
    for (size_t i = 0; i < liveTasks_; ++i) {
        if (touched_[i].seq == seq)
            return &touched_[i];
    }
    return nullptr;
}

void
Arb::noteTouched(TaskSeq seq, Addr g)
{
    TaskGranules *task = touchedBy(seq);
    if (!task) {
        if (liveTasks_ == touched_.size())
            touched_.emplace_back();
        task = &touched_[liveTasks_++];
        task->seq = seq;
        task->granules.clear();  // keeps the storage
    }
    task->granules.push_back(g);
}

void
Arb::retire(TaskGranules &task)
{
    std::swap(task, touched_[--liveTasks_]);
}

Arb::TaskRecord *
Arb::findRecord(Row &row, TaskSeq seq, bool create)
{
    auto it = std::lower_bound(
        row.records.begin(), row.records.end(), seq,
        [](const TaskRecord &r, TaskSeq s) { return r.seq < s; });
    if (it != row.records.end() && it->seq == seq)
        return &*it;
    if (!create)
        return nullptr;
    noteTouched(seq, row.granule);
    // A row holds a record per live task at most, and touched_ has
    // grown to the most tasks ever live at once: a full row grows
    // straight to that, so pooled rows stop reallocating once the
    // peak is reached.
    const size_t pos = size_t(it - row.records.begin());
    if (row.records.size() == row.records.capacity())
        row.records.reserve(touched_.size());
    TaskRecord rec;
    rec.seq = seq;
    return &*row.records.insert(row.records.begin() + pos, rec);
}

bool
Arb::hasSpaceFor(TaskSeq seq, Addr addr, unsigned size, bool is_load,
                 bool is_head) const
{
    if (is_load && is_head)
        return true;  // head loads never allocate
    bool ok = true;
    // Bank of a new granule this access already claimed a row in: an
    // access spans at most two granules, and both may be new in one
    // bank.
    unsigned claimed_bank = params_.numBanks;
    forGranules(
        addr, size, [&](Addr g, unsigned, unsigned) {
            const unsigned b = bankOf(g);
            const Bank &bank = banks_[b];
            if (bank.contains(g)) {
                // Existing entry: a new record costs nothing (entries
                // are counted per granule, as in the ARB paper where
                // one row holds all stages' bits for one address).
                (void)seq;
                return;
            }
            if (is_head && !is_load)
                return;  // unbuffered head store, no allocation
            if (bank.live() + (b == claimed_bank) >=
                params_.entriesPerBank)
                ok = false;
            claimed_bank = b;
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
        Row *row = bank.find(g);

        for (unsigned b = lo; b < hi; ++b) {
            // Overall byte index within the loaded value.
            unsigned vi = unsigned(g + b - addr);
            bool from_own_store = false;
            if (row) {
                // Nearest store at or before seq, newest first.
                for (auto rit = row->records.rbegin();
                     rit != row->records.rend(); ++rit) {
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
                if (!row) {
                    panicIf(bank.live() >= params_.entriesPerBank,
                            "ARB bank overflow on load; call "
                            "hasSpaceFor first");
                    row = &bank.allocate(g);
                }
                findRecord(*row, seq, true)->loadMask |=
                    std::uint8_t(1u << b);
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
        Row *row = bank.find(g);

        const std::uint8_t store_mask =
            std::uint8_t(((1u << (hi - lo)) - 1u) << lo);

        // Violation check: the earliest later task that loaded any of
        // these bytes without an intervening store covering them.
        if (row) {
            std::uint8_t unshadowed = store_mask;
            for (const TaskRecord &rec : row->records) {
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

        // Buffer the stored bytes in @p rec (the mask bounds the
        // granule index, so no byte lands outside rec.bytes).
        auto buffer = [&](TaskRecord &rec) {
            for (unsigned b = 0; b < kGranule; ++b) {
                if (store_mask & (1u << b))
                    rec.bytes[b] = bytes[g + b - addr];
            }
            rec.storeMask |= store_mask;
        };

        // Buffer or write through.
        TaskRecord *own = row ? findRecord(*row, seq, false) : nullptr;
        if (own && own->storeMask) {
            // Keep ordering with our earlier speculative bytes.
            buffer(*own);
        } else if (is_head) {
            // Non-speculative: write committed memory directly.
            for (unsigned b = lo; b < hi; ++b)
                mem_.write(g + b, bytes[g + b - addr], 1);
        } else {
            if (!row) {
                panicIf(bank.live() >= params_.entriesPerBank,
                        "ARB bank overflow on store; call "
                        "hasSpaceFor first");
                row = &bank.allocate(g);
            }
            buffer(*findRecord(*row, seq, true));
        }
    });

    ++stats_.stores;
    if (violator) {
        ++stats_.violations;
        stats_.group.addToDist(violationsByBank_,
                               bankBuckets_[bankOf(addr)]);
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
    TaskGranules *task = touchedBy(seq);
    if (!task)
        return;  // the task never allocated a record
    for (Addr g : task->granules) {
        Bank &bank = banks_[bankOf(g)];
        Row *row = bank.find(g);
        panicIf(!row, "ARB commit: touched granule has no entry");
        auto rit = std::find_if(
            row->records.begin(), row->records.end(),
            [&](const TaskRecord &r) { return r.seq == seq; });
        panicIf(rit == row->records.end(),
                "ARB commit: touched granule has no record");
        panicIf(rit != row->records.begin(),
                "ARB commit out of task order");
        if (rit->storeMask) {
            // One write per maximal run of stored bytes; a granule is
            // aligned, so a run never wraps or crosses a page.
            unsigned mask = rit->storeMask;
            while (mask) {
                const int first = std::countr_zero(mask);
                const int len = std::countr_one(mask >> first);
                mem_.writeBytes(g + first, rit->bytes + first, len);
                mask &= ~(((1u << len) - 1) << first);
            }
            ++stats_.committedStores;
        }
        row->records.erase(rit);
        if (row->records.empty())
            bank.release(*row);
    }
    retire(*task);
}

void
Arb::squash(TaskSeq seq)
{
    TaskGranules *task = touchedBy(seq);
    if (!task)
        return;  // the task never allocated a record
    std::uint64_t squashedStores = 0;
    std::uint64_t squashedLoads = 0;
    for (Addr g : task->granules) {
        Bank &bank = banks_[bankOf(g)];
        Row *row = bank.find(g);
        panicIf(!row, "ARB squash: touched granule has no entry");
        auto rit = std::find_if(
            row->records.begin(), row->records.end(),
            [&](const TaskRecord &r) { return r.seq == seq; });
        panicIf(rit == row->records.end(),
                "ARB squash: touched granule has no record");
        if (rit->storeMask) {
            ++stats_.squashedStores;
            ++squashedStores;
        }
        if (rit->loadMask)
            ++squashedLoads;
        row->records.erase(rit);
        if (row->records.empty())
            bank.release(*row);
    }
    if (squashedStores)
        stats_.group.addToDist("squashedRecords", "store", squashedStores);
    if (squashedLoads)
        stats_.group.addToDist("squashedRecords", "load", squashedLoads);
    if (tracer_ && tracer_->wants(TraceCat::kArb)) {
        tracer_->instant(TraceCat::kArb, "task_squash", tracer_->now(),
                         kTidArb, "seq", seq, "granules",
                         std::uint64_t(task->granules.size()));
    }
    retire(*task);
}

size_t
Arb::totalEntries() const
{
    size_t n = 0;
    for (const Bank &bank : banks_)
        n += bank.live();
    return n;
}

} // namespace msim
