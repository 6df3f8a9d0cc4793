#include "apusim/memory.hh"

#include <algorithm>

#include "common/bitutils.hh"

namespace cisram::apu {

DeviceDram::DeviceDram(uint64_t capacity)
    : capacity_(capacity),
      dir_(divCeil(divCeil(capacity, pageBytes), chunkPages))
{
    for (auto &c : dir_)
        c.store(nullptr, std::memory_order_relaxed);
}

DeviceDram::~DeviceDram()
{
    for (auto &slot : dir_) {
        Chunk *c = slot.load(std::memory_order_relaxed);
        if (!c)
            continue;
        for (auto &p : c->pages)
            delete[] p.load(std::memory_order_relaxed);
        delete c;
    }
}

uint8_t *
DeviceDram::pageFor(uint64_t addr, bool create) const
{
    uint64_t page = addr / pageBytes;
    std::atomic<Chunk *> &cslot = dir_[page / chunkPages];
    Chunk *c = cslot.load(std::memory_order_acquire);
    if (!c) {
        if (!create)
            return nullptr;
        // First touch of this 256 MB span: install a zeroed chunk; a
        // racing core may win the CAS, in which case ours is dropped.
        Chunk *freshChunk = new Chunk();
        if (cslot.compare_exchange_strong(c, freshChunk,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire))
            c = freshChunk;
        else
            delete freshChunk;
    }
    std::atomic<uint8_t *> &slot = c->pages[page % chunkPages];
    uint8_t *raw = slot.load(std::memory_order_acquire);
    if (raw || !create)
        return raw;
    // First touch: allocate a zeroed page; same CAS discipline.
    uint8_t *fresh = new uint8_t[pageBytes]();
    if (slot.compare_exchange_strong(raw, fresh,
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
        resident_.fetch_add(1, std::memory_order_relaxed);
        return fresh;
    }
    delete[] fresh;
    return raw;
}

void
DeviceDram::read(uint64_t addr, void *dst, size_t n) const
{
    uint8_t *out = static_cast<uint8_t *>(dst);
    visit(addr, n, [out](size_t off, const uint8_t *p, size_t m) {
        if (p)
            std::memcpy(out + off, p, m);
        else
            std::memset(out + off, 0, m);
    });
}

void
DeviceDram::write(uint64_t addr, const void *src, size_t n)
{
    cisram_assert(addr + n <= capacity_, "DRAM write OOB at ", addr);
    const uint8_t *in = static_cast<const uint8_t *>(src);
    while (n > 0) {
        uint64_t off = addr % pageBytes;
        size_t chunk = std::min<size_t>(n, pageBytes - off);
        uint8_t *page = pageFor(addr, true);
        std::memcpy(page + off, in, chunk);
        addr += chunk;
        in += chunk;
        n -= chunk;
    }
}

} // namespace cisram::apu
