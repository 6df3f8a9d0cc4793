/**
 * @file
 * Shared scaffolding for APU kernels: device/core handles, L4
 * staging, functional-vs-timing work splitting, and stat collection.
 * Internal to src/kernels (tests/test_wordparallel.cc also runs
 * macPlanes and scoreTiles).
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

/**
 * The charge pass of a loop in run form: in both modes, charge n
 * iterations of `body` as TimingOnly does, one iteration under a
 * repeat of n with the core's lane work off. This is exact because op
 * latency is data-independent and every charge is a whole number of
 * cycles. A functional caller then evaluates the loop's lanes in one
 * pass (macPlanes, scoreTiles).
 */
template <typename Body>
void
chargeOnce(apu::ApuCore &core, size_t n, Body body)
{
    apu::ScopedTimingOnly charge_only(core);
    timedLoop(core, n, body);
}

/**
 * The retrieval kernels' plane loop over n planes of `valid` lanes
 * staged back to back in L4 at `planes`. `body(d)` charges one plane:
 * ingest it into `stage`, load16 it into emb and multiply-accumulate
 * it into accs against its nq immediates (imms, plane-major), either
 * as macImmS16 or, for Opt1, as a subgroup broadcast of the query
 * element into scratch_q, mulS16 and addS16 (nq = 1). chargeOnce
 * charges it; functional mode then evaluates the lanes in one pass
 * (Gvml::macPlanesS16), which leaves the registers as either body
 * does from a cleared accumulator.
 */
template <typename Body>
void
macPlanes(apu::ApuCore &core, Body body, gvml::Vmr stage, gvml::Vr emb,
          gvml::Vr scratch_q, gvml::Vr scratch_t, const gvml::Vr *accs,
          size_t nq, const uint16_t *imms, uint64_t planes, size_t valid,
          size_t n)
{
    chargeOnce(core, n, body);
    if (core.functional())
        gvml::Gvml(core).macPlanesS16(stage, emb, scratch_q, scratch_t,
                                      accs, nq, imms, planes, valid, n);
}

/**
 * The spatial mappings' tile loop over the n tiles first ..
 * first + n - 1 staged back to back in L4 at `tiles`, `heads` chunks
 * of `pad` lanes each: per tile, charge `ingest` cycles, ingest the
 * tile into `stage`, load16 it into emb, mulS16 it by q, reduce each
 * chunk to its group head (addSubgrpS16(pad, 1)), xor16 the bias, and
 * move the heads into `score` over the RSP FIFO (`pio` cycles each).
 * chargeOnce charges it; functional mode then computes only the heads
 * (Gvml::scoreTilesS16).
 */
inline void
scoreTiles(apu::ApuCore &core, uint64_t ingest, uint64_t pio,
           gvml::Vmr stage, gvml::Vr emb, gvml::Vr q, gvml::Vr t,
           gvml::Vr bias, gvml::Vr score, size_t pad, size_t heads,
           uint64_t tiles, size_t first, size_t n)
{
    gvml::Gvml g(core);
    chargeOnce(core, n, [&](size_t) {
        core.chargeRaw(ingest);
        g.load16(emb, stage);
        g.mulS16(t, emb, q);
        g.addSubgrpS16(t, t, pad, 1);
        g.xor16(t, t, bias);
        core.chargeRaw(heads * pio);
    });
    if (core.functional())
        g.scoreTilesS16(stage, emb, q, t, bias, score, pad, heads, tiles,
                        first, n);
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
