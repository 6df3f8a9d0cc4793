/**
 * @file
 * The functional state of one full-width vector (a VR or a VMR slot),
 * stored as a head of lanes and a uniform tail.
 *
 * A vector of L lanes keeps lanes [0, hi) in storage and one `tail`
 * value that every lane in [hi, L) holds: the logical value of lane i
 * is `i < hi ? data[i] : tail`, and storage past `hi` is stale. A
 * functional scan over a few hundred rows then costs its rows, not
 * 32 768 lanes, while every GVML op still charges its full-width
 * cycles (latency is data-independent; DESIGN.md section 4, "Lane
 * extents").
 *
 * Rules every extent-aware op follows:
 *  - An op over several inputs works on h = the largest extent among
 *    them (widen() each to h), and its destination's extent becomes
 *    (h, op applied to the tails). A masked op also counts its
 *    destination's and its mark's extents. A binary element-wise op
 *    with exactly one uniform input (hi() == 0) reads that input's
 *    tail as a scalar over the other's head and does not widen it.
 *  - Any other access goes through full(), which materializes: it
 *    fills [hi, L) with the tail and sets hi = L, so ops that are not
 *    extent-aware see exactly the full-width vector.
 *
 * Only the owning core's thread touches a vector. The const
 * accessors write (widen() and full() fill the head through mutable
 * storage), which is safe under that rule alone.
 */

#ifndef CISRAM_APUSIM_LANE_VECTOR_HH
#define CISRAM_APUSIM_LANE_VECTOR_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace cisram::apu {

class LaneVector
{
  public:
    /** All `length` lanes zero (an empty head, tail 0). */
    explicit LaneVector(size_t length) : data_(length, 0) {}

    size_t length() const { return data_.size(); }

    /** Lanes [0, hi()) are stored; the rest hold tail(). */
    size_t hi() const { return hi_; }
    uint16_t tail() const { return tail_; }

    /** Logical value of lane i, without materializing. */
    uint16_t
    lane(size_t i) const
    {
        return i < hi_ ? data_[i] : tail_;
    }

    /** Store lanes [hi, h) from the tail; a no-op when h <= hi. */
    void
    widen(size_t h) const
    {
        cisram_assert(h <= data_.size(), "lane extent OOB: ", h);
        if (h <= hi_)
            return;
        std::fill(data_.begin() + static_cast<ptrdiff_t>(hi_),
                  data_.begin() + static_cast<ptrdiff_t>(h), tail_);
        hi_ = h;
    }

    /**
     * Every lane, materialized. The reference stays valid only until
     * the next extent-aware op writes this vector: that op leaves
     * storage past its new extent stale.
     */
    std::vector<uint16_t> &
    full()
    {
        widen(data_.size());
        return data_;
    }

    const std::vector<uint16_t> &
    full() const
    {
        widen(data_.size());
        return data_;
    }

    /** Storage of the head: lanes [0, hi()) are current. */
    uint16_t *head() { return data_.data(); }
    const uint16_t *head() const { return data_.data(); }

    /** Lanes [0, h) were written through head(); the rest hold tail. */
    void
    setExtent(size_t h, uint16_t tail)
    {
        cisram_assert(h <= data_.size(), "lane extent OOB: ", h);
        hi_ = h;
        tail_ = tail;
    }

    /** Take o's logical value: its stored head and its extent. */
    void
    assign(const LaneVector &o)
    {
        cisram_assert(o.length() == length(), "vector length mismatch");
        if (&o != this)
            std::copy_n(o.data_.data(), o.hi_, data_.data());
        setExtent(o.hi_, o.tail_);
    }

  private:
    mutable std::vector<uint16_t> data_;
    mutable size_t hi_ = 0;
    uint16_t tail_ = 0;
};

/** Widen every vector to the largest extent among them; returns it. */
template <typename... Vs>
size_t
widenAll(const Vs &...vs)
{
    size_t h = std::max({vs.hi()...});
    (vs.widen(h), ...);
    return h;
}

} // namespace cisram::apu

#endif // CISRAM_APUSIM_LANE_VECTOR_HH
