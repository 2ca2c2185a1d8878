/**
 * @file
 * Growing circular FIFO for hot-path queues.
 *
 * std::deque cycles through backing nodes as elements are pushed and
 * popped, so a steady-state FIFO keeps allocating and freeing chunks
 * forever. Ring instead keeps one contiguous buffer that grows
 * geometrically to the high-water mark and never shrinks: after
 * warmup, push/pop are allocation-free, which is what lets the
 * allocgate (tests/allocgate.cc) demand a zero-allocation steady
 * state inside NIFDY_HOT regions. FIFO order is identical to the
 * deque it replaces, so simulated behavior is byte-for-byte
 * unchanged.
 */

#ifndef NIFDY_SIM_RING_HH
#define NIFDY_SIM_RING_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "sim/log.hh"

namespace nifdy
{

template <typename T>
class Ring
{
  public:
    Ring() = default;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return buf_.size(); }

    /** The i-th element in FIFO order (0 = front). */
    T &operator[](std::size_t i) { return buf_[wrap(head_ + i)]; }
    const T &operator[](std::size_t i) const
    {
        return buf_[wrap(head_ + i)];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    push_back(const T &v)
    {
        grow();
        buf_[wrap(head_ + size_)] = v;
        ++size_;
    }

    void
    push_back(T &&v)
    {
        grow();
        buf_[wrap(head_ + size_)] = std::move(v);
        ++size_;
    }

    void
    pop_front()
    {
        panic_if(size_ == 0, "Ring::pop_front on empty ring");
        buf_[head_] = T();
        head_ = wrap(head_ + 1);
        --size_;
    }

    /** Remove the i-th element (FIFO order), preserving the relative
     * order of the rest. O(n - i); queues here are short. */
    void
    erase(std::size_t i)
    {
        panic_if(i >= size_, "Ring::erase out of range");
        for (std::size_t k = i + 1; k < size_; ++k)
            buf_[wrap(head_ + k - 1)] = std::move(buf_[wrap(head_ + k)]);
        buf_[wrap(head_ + size_ - 1)] = T();
        --size_;
    }

    /** Drop all elements; capacity (and its allocation) persists. */
    void
    clear()
    {
        for (std::size_t i = 0; i < size_; ++i)
            buf_[wrap(head_ + i)] = T();
        head_ = 0;
        size_ = 0;
    }

    /** Ensure room for @p n elements without further allocation. */
    void
    reserve(std::size_t n)
    {
        if (n > buf_.size())
            rebase(n);
    }

    //! @name Minimal forward iteration (range-for support)
    //! @{
    template <typename RingT, typename ValT>
    class Iter
    {
      public:
        Iter(RingT *r, std::size_t i) : r_(r), i_(i) {}
        ValT &operator*() const { return (*r_)[i_]; }
        ValT *operator->() const { return &(*r_)[i_]; }
        Iter &operator++()
        {
            ++i_;
            return *this;
        }
        bool operator==(const Iter &o) const { return i_ == o.i_; }
        bool operator!=(const Iter &o) const { return i_ != o.i_; }

      private:
        RingT *r_;
        std::size_t i_;
    };

    using iterator = Iter<Ring, T>;
    using const_iterator = Iter<const Ring, const T>;

    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }
    //! @}

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        return i >= buf_.size() ? i - buf_.size() : i;
    }

    void
    grow()
    {
        if (size_ == buf_.size())
            rebase(buf_.size() ? buf_.size() * 2 : 8);
    }

    /** Re-lay the elements into a buffer of @p cap slots, front at
     * index 0. The only allocating operation in the class. */
    void
    rebase(std::size_t cap)
    {
        std::vector<T> next(cap);
        for (std::size_t i = 0; i < size_; ++i)
            next[i] = std::move(buf_[wrap(head_ + i)]);
        buf_ = std::move(next);
        head_ = 0;
    }

    std::vector<T> buf_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace nifdy

#endif // NIFDY_SIM_RING_HH
