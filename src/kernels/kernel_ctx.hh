/**
 * @file
 * Shared scaffolding for APU kernels: device/core handles, L4
 * staging, functional-vs-timing work splitting, and stat collection.
 * Internal to src/kernels.
 */

#ifndef CISRAM_KERNELS_KERNEL_CTX_HH
#define CISRAM_KERNELS_KERNEL_CTX_HH

#include <cstdint>
#include <vector>

#include "apusim/apu.hh"
#include "common/bitutils.hh"
#include "gvml/gvml.hh"

namespace cisram::kernels {

/**
 * Run `n` shape-invariant iterations on `core`: all in functional
 * mode, one accounted iteration scaled by n otherwise.
 */
template <typename Fn>
void
timedLoop(apu::ApuCore &core, size_t n, Fn fn)
{
    if (n == 0)
        return;
    if (core.functional()) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
    } else {
        apu::ScopedRepeat rep(core.stats(), static_cast<double>(n));
        fn(0);
    }
}

class KernelCtx
{
  public:
    explicit KernelCtx(apu::ApuDevice &dev)
        : dev(dev), core(dev.core(0)), g(core),
          fnl(core.functional()), l(dev.spec().vrLength)
    {
        core.stats().reset();
    }

    /** Allocate an L4 region; write `data` in functional mode. */
    uint64_t
    stage(const void *data, size_t bytes)
    {
        uint64_t addr = dev.allocator().alloc(
            std::max<size_t>(bytes, 1), 512);
        if (fnl && data && bytes)
            dev.l4().write(addr, data, bytes);
        return addr;
    }

    /**
     * Tiles processed by the critical-path core: all of them in
     * functional mode, a quarter (4-core split) in timing mode.
     */
    size_t
    coreShare(size_t tiles) const
    {
        return fnl ? tiles
                   : divCeil(tiles, dev.spec().numCores);
    }

    double cycles() const { return core.stats().cycles(); }
    double uops() const { return core.stats().uops(); }

    apu::ApuDevice &dev;
    apu::ApuCore &core;
    gvml::Gvml g;
    bool fnl;
    size_t l;
};

} // namespace cisram::kernels

#endif // CISRAM_KERNELS_KERNEL_CTX_HH
