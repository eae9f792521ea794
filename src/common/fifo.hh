/**
 * @file
 * A growable circular FIFO with index access and tail truncation.
 *
 * The simulation hot path (processing-unit fetch buffers and issue
 * windows, ring ports) needs queue semantics but must not pay
 * per-cycle heap churn: std::deque allocates and frees its chunk map
 * as elements cross chunk boundaries, which shows up directly in
 * simulated-cycles-per-second. RingFifo keeps one power-of-two
 * backing buffer that only ever grows, so after warmup every
 * push/pop is a couple of index operations.
 *
 * Not a general-purpose container: elements must be movable, and
 * references are invalidated by push_back (growth) like
 * std::vector's.
 */

#ifndef MSIM_COMMON_FIFO_HH
#define MSIM_COMMON_FIFO_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace msim {

/** Growable circular buffer with FIFO and random access. */
template <typename T>
class RingFifo
{
  public:
    RingFifo() = default;

    /** @param capacity Initial capacity (rounded up to a power of 2). */
    explicit RingFifo(size_t capacity) { reserve(capacity); }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T &
    operator[](size_t i)
    {
        panicIf(i >= size_, "RingFifo index out of range");
        return buf_[(head_ + i) & mask_];
    }

    const T &
    operator[](size_t i) const
    {
        panicIf(i >= size_, "RingFifo index out of range");
        return buf_[(head_ + i) & mask_];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    push_back(T value)
    {
        if (size_ == buf_.size())
            grow();
        buf_[(head_ + size_) & mask_] = std::move(value);
        ++size_;
    }

    /**
     * Grow by one and return the new element as last left, for the
     * caller to assign field by field: no temporary is copied in.
     */
    T &
    extend()
    {
        if (size_ == buf_.size())
            grow();
        return buf_[(head_ + size_++) & mask_];
    }

    void
    pop_front()
    {
        panicIf(size_ == 0, "RingFifo pop_front on empty fifo");
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Drop elements from the tail until exactly @p n remain. */
    void
    truncate(size_t n)
    {
        panicIf(n > size_, "RingFifo truncate beyond size");
        size_ = n;
    }

    /** Drop all elements (keeps the backing buffer). */
    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** Ensure room for @p n elements without further allocation. */
    void
    reserve(size_t n)
    {
        size_t cap = buf_.size() ? buf_.size() : 1;
        while (cap < n)
            cap *= 2;
        if (cap != buf_.size())
            rebuild(cap);
    }

    size_t capacity() const { return buf_.size(); }

  private:
    void grow() { rebuild(buf_.empty() ? 8 : buf_.size() * 2); }

    void
    rebuild(size_t cap)
    {
        std::vector<T> next(cap);
        for (size_t i = 0; i < size_; ++i)
            next[i] = std::move(buf_[(head_ + i) & mask_]);
        buf_ = std::move(next);
        head_ = 0;
        mask_ = cap - 1;
    }

    std::vector<T> buf_;
    size_t head_ = 0;
    size_t size_ = 0;
    size_t mask_ = 0;
};

} // namespace msim

#endif // MSIM_COMMON_FIFO_HH
