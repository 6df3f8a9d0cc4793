/**
 * @file
 * The APU's four-level memory hierarchy (paper Fig. 3).
 *
 * L4: 16 GB device DRAM shared by the four cores (sparse, paged
 *     backing store so paper-scale footprints don't require resident
 *     host memory).
 * L3: 1 MB control-processor cache; holds lookup tables.
 * L2: 64 KB scratchpad; DMA staging buffer for one full vector.
 * L1: 48 vector memory registers (VMRs) of one full vector each.
 */

#ifndef CISRAM_APUSIM_MEMORY_HH
#define CISRAM_APUSIM_MEMORY_HH

#include <atomic>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

#include "apusim/apu_spec.hh"
#include "apusim/lane_vector.hh"
#include "common/logging.hh"

namespace cisram::apu {

/**
 * Sparse byte-addressable device DRAM.
 *
 * Pages are allocated on first write; reads of untouched pages return
 * zero. Addresses are device addresses (offsets into the 16 GB space).
 *
 * Thread safety: the page table is a two-level array of atomic
 * pointers (a small directory of lazily created chunks, each a fixed
 * array of page pointers), so concurrent cores may read and write
 * *disjoint* device regions without locks — a losing racer on
 * first-touch chunk or page creation just frees its copy and uses the
 * winner's. The directory keeps construction O(capacity / 256 MB)
 * instead of O(pages), which matters for timing-only runs that build
 * a 16 GB device and never touch its DRAM. Overlapping concurrent
 * writes are a race in the simulated program, as on real hardware.
 */
class DeviceDram
{
  public:
    explicit DeviceDram(uint64_t capacity);
    ~DeviceDram();

    DeviceDram(const DeviceDram &) = delete;
    DeviceDram &operator=(const DeviceDram &) = delete;

    uint64_t capacity() const { return capacity_; }

    /** Copy `n` bytes from the device address space into `dst`. */
    void read(uint64_t addr, void *dst, size_t n) const;

    /** Copy `n` bytes from `src` into the device address space. */
    void write(uint64_t addr, const void *src, size_t n);

    uint16_t
    readU16(uint64_t addr) const
    {
        uint16_t v;
        read(addr, &v, 2);
        return v;
    }

    void
    writeU16(uint64_t addr, uint16_t v)
    {
        write(addr, &v, 2);
    }

    /** Number of resident pages (for tests / footprint checks). */
    size_t
    residentPages() const
    {
        return resident_.load(std::memory_order_relaxed);
    }

    static constexpr size_t pageBytes = 64 * 1024;
    /** Page pointers per directory chunk (256 MB of address span). */
    static constexpr size_t chunkPages = 4096;

  private:
    struct Chunk
    {
        std::atomic<uint8_t *> pages[chunkPages];
    };

    uint8_t *pageFor(uint64_t addr, bool create) const;

    uint64_t capacity_;
    mutable std::vector<std::atomic<Chunk *>> dir_;
    mutable std::atomic<size_t> resident_{0};
};

/**
 * Linear allocator over the device DRAM address space with
 * exact-size block recycling.
 *
 * alloc() bumps a cursor; free() returns the block to a size-keyed
 * free list that alloc() consults first, so steady-state serving
 * loops (same-size query buffers allocated and freed per request)
 * run in constant device footprint. Live allocations are tracked so
 * GdlContext can detect leaks at teardown. All operations are
 * thread-safe (mutex; allocation is far off the simulator hot path).
 */
class DramAllocator
{
  public:
    explicit DramAllocator(uint64_t capacity) : capacity_(capacity) {}

    /** Allocate `n` bytes aligned to `align` (power of two). */
    uint64_t
    alloc(uint64_t n, uint64_t align = 512)
    {
        auto base = tryAlloc(n, align);
        cisram_assert(base.has_value(), "device DRAM exhausted: ", n,
                      " bytes requested");
        return *base;
    }

    /**
     * Allocate, reporting exhaustion as nullopt instead of dying —
     * the recoverable path behind GdlContext::tryMemAllocAligned.
     */
    std::optional<uint64_t>
    tryAlloc(uint64_t n, uint64_t align = 512)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto range = freeBySize_.equal_range(n);
        for (auto it = range.first; it != range.second; ++it) {
            if (it->second % align == 0) {
                uint64_t base = it->second;
                freeBySize_.erase(it);
                live_.emplace(base, n);
                return base;
            }
        }
        uint64_t base = (cursor + align - 1) & ~(align - 1);
        if (base + n > capacity_)
            return std::nullopt;
        cursor = base + n;
        live_.emplace(base, n);
        return base;
    }

    /** Return a block obtained from alloc(); double-free panics. */
    void
    free(uint64_t base)
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = live_.find(base);
        cisram_assert(it != live_.end(),
                      "freeing unallocated device address ", base);
        freeBySize_.emplace(it->second, base);
        live_.erase(it);
    }

    /** Drop every allocation and recycle list; cursor back to 0. */
    void
    reset()
    {
        std::lock_guard<std::mutex> lk(mu_);
        cursor = 0;
        live_.clear();
        freeBySize_.clear();
    }

    uint64_t
    used() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return cursor;
    }

    /** Outstanding (allocated, not freed) blocks. */
    size_t
    liveCount() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return live_.size();
    }

    /** Outstanding bytes. */
    uint64_t
    liveBytes() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        uint64_t total = 0;
        for (const auto &kv : live_)
            total += kv.second;
        return total;
    }

  private:
    uint64_t capacity_;
    uint64_t cursor = 0;
    mutable std::mutex mu_;
    std::unordered_map<uint64_t, uint64_t> live_; ///< base -> size
    std::multimap<uint64_t, uint64_t> freeBySize_; ///< size -> base
};

/** Flat on-chip SRAM buffer (used for both L2 and L3). */
class SramBuffer
{
  public:
    explicit SramBuffer(size_t bytes) : data(bytes, 0) {}

    size_t size() const { return data.size(); }

    void
    read(size_t addr, void *dst, size_t n) const
    {
        cisram_assert(addr + n <= data.size(), "SRAM read OOB");
        std::memcpy(dst, data.data() + addr, n);
    }

    void
    write(size_t addr, const void *src, size_t n)
    {
        cisram_assert(addr + n <= data.size(), "SRAM write OOB");
        std::memcpy(data.data() + addr, src, n);
    }

    uint16_t
    readU16(size_t addr) const
    {
        uint16_t v;
        read(addr, &v, 2);
        return v;
    }

    void
    writeU16(size_t addr, uint16_t v)
    {
        write(addr, &v, 2);
    }

    uint8_t *raw() { return data.data(); }
    const uint8_t *raw() const { return data.data(); }

  private:
    std::vector<uint8_t> data;
};

/**
 * L1: the bank of vector memory registers backing the compute VRs.
 *
 * Transfers to/from L1 happen only at full-vector granularity
 * (Section 2.1.2), which the VMR interface enforces. Each slot is a
 * LaneVector, like a VR.
 */
class VmrFile
{
  public:
    VmrFile(unsigned num_vmrs, size_t vr_length)
        : vrLength(vr_length), slots(num_vmrs, LaneVector(vr_length))
    {}

    unsigned numVmrs() const
    {
        return static_cast<unsigned>(slots.size());
    }

    size_t length() const { return vrLength; }

    /**
     * Slot `i`, materialized (LaneVector::full()): the reference
     * stays valid only until the next extent-aware op writes slot i.
     */
    std::vector<uint16_t> &
    slot(unsigned i)
    {
        return lanes(i).full();
    }

    const std::vector<uint16_t> &
    slot(unsigned i) const
    {
        return lanes(i).full();
    }

    /** Slot `i` as head and tail, for the extent-aware ops. */
    LaneVector &
    lanes(unsigned i)
    {
        cisram_assert(i < slots.size(), "VMR index OOB: ", i);
        return slots[i];
    }

    const LaneVector &
    lanes(unsigned i) const
    {
        cisram_assert(i < slots.size(), "VMR index OOB: ", i);
        return slots[i];
    }

  private:
    size_t vrLength;
    std::vector<LaneVector> slots;
};

} // namespace cisram::apu

#endif // CISRAM_APUSIM_MEMORY_HH
