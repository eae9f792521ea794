/**
 * @file
 * The Address Resolution Buffer (ARB), paper section 2.3 and
 * Franklin & Sohi [3].
 *
 * The ARB holds the speculative memory operations of the active
 * tasks. Stores performed by speculative tasks are buffered here and
 * update the data cache (functionally: main memory) only when the
 * task commits. Loads search the ARB for the nearest logically
 * preceding store to the same bytes; bytes not found come from
 * committed memory. Per-task load and store byte masks detect memory
 * dependence violations: when a logically earlier task stores to
 * bytes that a logically later task already loaded (with no
 * intervening store by a task in between), the later task and all its
 * successors must be squashed.
 *
 * The ARB also renames memory: two tasks may store to the same
 * address (e.g. the same stack frame of parallel calls to the same
 * function) and each task's loads see its own values, exactly as the
 * paper requires for executing multiple function calls in parallel.
 *
 * Entries are organized per data cache bank (256 entries per bank in
 * the paper's configuration) at an 8-byte granule. When a bank fills,
 * the processor either squashes the latest tasks to reclaim space or
 * stalls all units but the head (both policies from section 2.3);
 * that policy decision lives in the core, driven by hasSpaceFor().
 *
 * Task order is the numeric order of TaskSeq values. The head task is
 * non-speculative: its loads do not set load bits (nothing earlier
 * can violate them) and its stores may write memory directly when the
 * granule holds none of its own speculative bytes.
 */

#ifndef MSIM_ARB_ARB_HH
#define MSIM_ARB_ARB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/main_memory.hh"
#include "trace/tracer.hh"

namespace msim {

/** The Address Resolution Buffer. */
class Arb
{
  public:
    struct Params
    {
        unsigned numBanks = 8;
        size_t blockBytes = 64;        //!< must match the data banks
        unsigned entriesPerBank = 256;
    };

    Arb(StatGroup &stats, MainMemory &mem, const Params &params,
        Tracer *tracer = nullptr);

    /**
     * Would a load/store of @p size bytes at @p addr by task @p seq
     * fit in the ARB? Head loads never allocate; head stores allocate
     * only when the granule already holds the head's own bytes.
     */
    bool hasSpaceFor(TaskSeq seq, Addr addr, unsigned size, bool is_load,
                     bool is_head) const;

    /**
     * Perform a load: record load bits (unless head) and return the
     * value, taking each byte from the nearest logically preceding
     * store (own task first, then predecessors, then memory).
     */
    std::uint64_t load(TaskSeq seq, Addr addr, unsigned size,
                       bool is_head);

    /**
     * Perform a store: buffer the bytes (or write memory directly for
     * an unbuffered head store) and check for memory dependence
     * violations.
     *
     * @return the sequence number of the earliest violating task
     *         (that task and all after it must be squashed), or
     *         std::nullopt when no violation occurred.
     */
    std::optional<TaskSeq> store(TaskSeq seq, Addr addr, unsigned size,
                                 std::uint64_t value, bool is_head);

    /**
     * Commit a task: flush its buffered stores to memory and release
     * its entries. Must be called in task order.
     */
    void commit(TaskSeq seq);

    /** Squash a task: discard its load bits and buffered stores. */
    void squash(TaskSeq seq);

    /** @return the bank an address maps to (block interleaved). */
    unsigned
    bankOf(Addr addr) const
    {
        return unsigned(addr / Addr(params_.blockBytes)) %
               params_.numBanks;
    }

    /** @return the number of live entries in @p bank. */
    size_t
    entriesInBank(unsigned bank) const
    {
        return banks_[bank].live();
    }

    /** @return total live entries across banks. */
    size_t totalEntries() const;

  private:
    /** Per-task byte masks and store data for one 8-byte granule. */
    struct TaskRecord
    {
        TaskSeq seq = 0;
        std::uint8_t loadMask = 0;   //!< bytes loaded from outside
        std::uint8_t storeMask = 0;  //!< bytes stored speculatively
        std::uint8_t bytes[8] = {};
    };

    /**
     * One ARB row: a granule and one record per task that touched it,
     * sorted by ascending seq. This is the paper's row with one stage
     * per unit, except that the stages are not tied to unit slots.
     * A freed row keeps its record storage for the next granule.
     */
    struct Row
    {
        Addr granule = 0;
        std::uint32_t nextFree = 0;  //!< free-list link while free
        std::vector<TaskRecord> records;
    };

    /**
     * One bank: a pool of rows and an open-addressed index from
     * granule to live row (linear probing, at most half full,
     * backward-shift deletion). Rows are created on first use, up to
     * the most that were ever live at once, and never freed, so the
     * bank stops allocating once warm. The caller bounds live() by
     * entriesPerBank.
     */
    class Bank
    {
      public:
        /** @return the live row for @p g, or nullptr. */
        Row *
        find(Addr g)
        {
            const std::uint32_t row = index_[slotOf(g)].row;
            return row == kNoRow ? nullptr : &rows_[row];
        }

        /** @return whether @p g has a live row. */
        bool
        contains(Addr g) const
        {
            return index_[slotOf(g)].row != kNoRow;
        }

        /** Take a free row for @p g, which must not be live. */
        Row &allocate(Addr g);

        /** Return @p row, whose records must be empty, to the pool. */
        void release(Row &row);

        size_t live() const { return live_; }

      private:
        static constexpr std::uint32_t kNoRow = ~std::uint32_t(0);
        static constexpr unsigned kInitialIndexBits = 4;

        struct Slot
        {
            Addr granule = 0;
            std::uint32_t row = kNoRow;
        };

        /** @return the slot @p g probes first. */
        size_t
        home(Addr g) const
        {
            return size_t((std::uint64_t(g) * 0x9e3779b97f4a7c15ull) >>
                          shift_);
        }

        /** @return the slot holding @p g, else the empty slot that
         *  ends its probe sequence. */
        size_t
        slotOf(Addr g) const
        {
            const size_t mask = index_.size() - 1;
            size_t i = home(g);
            while (index_[i].row != kNoRow && index_[i].granule != g)
                i = (i + 1) & mask;
            return i;
        }

        /** Double the index and re-insert every live row. */
        void growIndex();

        std::vector<Row> rows_;
        /** Size is a power of two; shift_ is 64 - log2(size). */
        std::vector<Slot> index_ =
            std::vector<Slot>(size_t(1) << kInitialIndexBits);
        unsigned shift_ = 64 - kInitialIndexBits;
        std::uint32_t freeHead_ = kNoRow;
        size_t live_ = 0;
    };

    /** The granules one live task has a record in. */
    struct TaskGranules
    {
        TaskSeq seq = 0;
        std::vector<Addr> granules;
    };

    static constexpr Addr kGranule = 8;

    /** Counters bound once in the ARB's stat group. */
    struct Counters
    {
        StatGroup &group;
        std::uint64_t &loads = group.counter("loads");
        std::uint64_t &stores = group.counter("stores");
        std::uint64_t &violations = group.counter("violations");
        std::uint64_t &committedStores = group.counter("committedStores");
        std::uint64_t &squashedStores = group.counter("squashedStores");
    };

    Counters stats_;
    MainMemory &mem_;
    Params params_;
    Tracer *tracer_ = nullptr;
    std::vector<Bank> banks_;

    /** Names for the violation distribution, built once so that a
     *  violation allocates no string. */
    const std::string violationsByBank_ = "violationsByBank";
    std::vector<std::string> bankBuckets_;

    /**
     * Granules each live task has a record in, so commit and squash
     * visit exactly the task's own rows instead of scanning every
     * bank. A granule appears at most once per task: a record is
     * created at most once per (seq, granule) and TaskSeq values are
     * never reused. The first liveTasks_ lists belong to live tasks
     * and are searched linearly (there are about as many as units);
     * the rest keep their storage for reuse.
     */
    std::vector<TaskGranules> touched_;
    size_t liveTasks_ = 0;

    /** @return @p seq's granule list, or nullptr if it has none. */
    TaskGranules *touchedBy(TaskSeq seq);

    /** Note that @p seq now has a record in granule @p g. */
    void noteTouched(TaskSeq seq, Addr g);

    /** Hand a finished task's list back to the reuse pool. */
    void retire(TaskGranules &task);

    /**
     * Find (or, when @p create is set, insert) @p seq's record in
     * @p row; a created record is noted in the task's granule list.
     */
    TaskRecord *findRecord(Row &row, TaskSeq seq, bool create);

    /**
     * Visit the granules an access covers. The loop counts granules
     * instead of comparing addresses, so an access at the top of the
     * address space wraps to 0, as MainMemory does.
     */
    template <typename Fn>
    void
    forGranules(Addr addr, unsigned size, Fn &&fn) const
    {
        const Addr first = addr & ~(kGranule - 1);
        const unsigned start = unsigned(addr - first);
        const unsigned count = unsigned((start + size + kGranule - 1) /
                                        kGranule);
        for (unsigned k = 0; k < count; ++k) {
            // Byte range [lo, hi_excl) of this granule participates;
            // byte i of the granule corresponds to overall byte
            // (g + i - addr) of the access.
            const unsigned lo = k == 0 ? start : 0;
            const unsigned hi_excl = k + 1 == count
                                         ? unsigned(start + size -
                                                    k * kGranule)
                                         : unsigned(kGranule);
            fn(Addr(first + k * kGranule), lo, hi_excl);
        }
    }
};

} // namespace msim

#endif // MSIM_ARB_ARB_HH
