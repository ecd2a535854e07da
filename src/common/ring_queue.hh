/**
 * @file
 * Fixed-capacity power-of-two ring buffer with deque-style ends.
 *
 * The core's pipeline queues (fetch queue, defer queue, ROB, replay
 * list) all have architecturally-bounded occupancy, so std::deque's
 * chunked allocation buys nothing and costs allocator traffic plus
 * pointer-chasing on every front/back access. This ring keeps the
 * elements in one contiguous block sized once at construction;
 * push/pop never allocate.
 *
 * Method names are deliberately camelCase (pushBack, not push_back):
 * lbp_analyze.py's no-hot-path-alloc rule flags std-container growth
 * calls inside core/TAGE hot functions, and the distinct spelling keeps
 * bounded-ring traffic out of that net.
 */

#ifndef LBP_COMMON_RING_QUEUE_HH
#define LBP_COMMON_RING_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace lbp {

/** Fixed-capacity contiguous FIFO/deque; see the file comment. */
template <typename T>
class RingQueue
{
  public:
    /** Capacity is rounded up to a power of two (>= min_capacity). */
    explicit RingQueue(std::size_t min_capacity)
    {
        std::size_t cap = 1;
        while (cap < min_capacity)
            cap <<= 1;
        mask_ = cap - 1;
        buf_.resize(cap);
    }

    /** True when no elements are queued. */
    bool empty() const { return head_ == tail_; }
    /** Current occupancy. */
    std::size_t size() const
    {
        return static_cast<std::size_t>(tail_ - head_);
    }
    /** Fixed capacity chosen at construction (a power of two). */
    std::size_t capacity() const { return mask_ + 1; }
    /** True when a pushBack would overflow. */
    bool full() const { return size() == capacity(); }

    /** Append at the tail; asserts the ring is not full. */
    void pushBack(const T &v)
    {
        lbp_assert(!full() && "RingQueue overflow: capacity must cover "
                              "worst-case occupancy");
        buf_[tail_ & mask_] = v;
        ++tail_;
    }

    /** Oldest element; asserts non-empty. */
    T &front()
    {
        lbp_assert(!empty());
        return buf_[head_ & mask_];
    }
    const T &front() const
    {
        lbp_assert(!empty());
        return buf_[head_ & mask_];
    }
    /** Newest element; asserts non-empty. */
    T &back()
    {
        lbp_assert(!empty());
        return buf_[(tail_ - 1) & mask_];
    }
    const T &back() const
    {
        lbp_assert(!empty());
        return buf_[(tail_ - 1) & mask_];
    }

    /** i-th element counted from the front (0 == front()). */
    T &operator[](std::size_t i)
    {
        lbp_assert(i < size());
        return buf_[(head_ + i) & mask_];
    }
    const T &operator[](std::size_t i) const
    {
        lbp_assert(i < size());
        return buf_[(head_ + i) & mask_];
    }

    /** Drop the oldest element; asserts non-empty. */
    void popFront()
    {
        lbp_assert(!empty());
        ++head_;
    }
    /** Drop the newest element; asserts non-empty. */
    void popBack()
    {
        lbp_assert(!empty());
        --tail_;
    }
    /** Drop everything; capacity and storage are untouched. */
    void clear() { head_ = tail_ = 0; }

  private:
    // Monotonic 64-bit cursors never wrap in practice; masking on
    // access keeps size() a plain subtraction.
    std::uint64_t head_ = 0;
    std::uint64_t tail_ = 0;
    std::size_t mask_ = 0;
    std::vector<T> buf_;
};

} // namespace lbp

#endif // LBP_COMMON_RING_QUEUE_HH
