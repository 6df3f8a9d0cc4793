#include "kernels/bmm.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "gvml/gvml.hh"

namespace cisram::kernels {

using apu::ApuCore;
using apu::ApuDevice;
using apu::ExecMode;
using apu::ScopedTag;
using core::BmmShape;
using core::BmmVariant;
using gvml::Gvml;
using gvml::Vmr;
using gvml::Vr;

BmmData
genBmmData(const BmmShape &shape, uint64_t seed)
{
    Rng rng(seed);
    BmmData d;
    d.a.resize(shape.m * shape.kWords());
    d.b.resize(shape.kWords() * shape.n);
    for (auto &w : d.a)
        w = rng.nextU16();
    for (auto &w : d.b)
        w = rng.nextU16();
    return d;
}

std::vector<int16_t>
bmmReference(const BmmShape &shape, const BmmData &data)
{
    size_t kw = shape.kWords();
    std::vector<int16_t> c(shape.m * shape.n);
    for (size_t i = 0; i < shape.m; ++i) {
        for (size_t j = 0; j < shape.n; ++j) {
            int32_t acc = 0;
            for (size_t w = 0; w < kw; ++w) {
                uint16_t x = data.a[i * kw + w] ^ data.b[w * shape.n + j];
                acc += 16 - 2 * __builtin_popcount(x);
            }
            c[i * shape.n + j] = static_cast<int16_t>(acc);
        }
    }
    return c;
}

namespace {

/** Register allocation shared by the variants. */
constexpr Vr vrA{0}, vrB{1}, vrT{2}, vrAcc{3}, vrIdx{4}, vrBcast{5},
    vrBsrc{6}, vrConst{7}, vrTmp{8};
constexpr Vmr vmA{0}, vmOut{1};
constexpr unsigned vmBBase = 2;

struct Ctx
{
    ApuDevice &dev;
    ApuCore &core;
    Gvml g;
    const BmmShape &shape;
    const BmmData *data;
    size_t l, kw;

    Ctx(ApuDevice &dev, const BmmShape &shape, const BmmData *data)
        : dev(dev), core(dev.core(0)), g(core), shape(shape),
          data(data), l(dev.spec().vrLength), kw(shape.kWords())
    {}

    bool functional() const { return core.functional(); }

    /** Allocate an L4 region and optionally fill it. */
    uint64_t
    stage(const std::vector<uint16_t> &content, size_t bytes)
    {
        uint64_t addr = dev.allocator().alloc(bytes, 512);
        if (functional() && !content.empty())
            dev.l4().write(addr, content.data(),
                           std::min(bytes, content.size() * 2));
        return addr;
    }
};

/** Collect the stage breakdown from a core's ledger. */
BmmRunResult
collect(ApuCore &core)
{
    BmmRunResult r;
    r.cycles.ldLhs = core.stats().taggedCycles("ld_lhs");
    r.cycles.ldRhs = core.stats().taggedCycles("ld_rhs");
    r.cycles.vrOps = core.stats().taggedCycles("vr_ops");
    r.cycles.store = core.stats().taggedCycles("st");
    r.uops = core.stats().uops();
    return r;
}

BmmRunResult
runBaseline(Ctx &ctx)
{
    const BmmShape &s = ctx.shape;
    size_t l = ctx.l, kw = ctx.kw;
    size_t dup = l / kw;
    size_t b_vrs = divCeil(s.n, dup);
    cisram_assert(b_vrs + vmBBase <= ctx.dev.spec().numVmrs,
                  "B does not fit in L1");

    // --- host-side staging (uncharged initialization) -------------
    // Per-row duplicated image: row repeated floor(l/kw) times.
    std::vector<uint16_t> a_dup;
    if (ctx.functional()) {
        a_dup.resize(s.m * l, 0);
        for (size_t i = 0; i < s.m; ++i)
            for (size_t c = 0; c < dup; ++c)
                for (size_t w = 0; w < kw; ++w)
                    a_dup[i * l + c * kw + w] =
                        ctx.data->a[i * kw + w];
    }
    uint64_t a_addr = ctx.stage(a_dup, s.m * l * 2);

    // Column-major B, padded to whole VR loads.
    std::vector<uint16_t> b_col;
    if (ctx.functional()) {
        b_col.resize(b_vrs * l, 0);
        for (size_t j = 0; j < s.n; ++j)
            for (size_t w = 0; w < kw; ++w)
                b_col[j * kw + w] = ctx.data->b[w * s.n + j];
    }
    uint64_t b_addr = ctx.stage(b_col, b_vrs * l * 2);
    uint64_t c_addr = ctx.dev.allocator().alloc(s.m * s.n * 2, 512);

    // --- device kernel --------------------------------------------
    Gvml &g = ctx.g;
    ApuCore &core = ctx.core;
    core.stats().reset();

    {
        ScopedTag tag(core.stats(), "ld_rhs");
        for (size_t gvr = 0; gvr < b_vrs; ++gvr)
            core.dmaL4ToL1(vmBBase + gvr, b_addr + gvr * l * 2);
    }
    {
        ScopedTag tag(core.stats(), "vr_ops");
        g.cpyImm16(vrConst, 16);
    }

    // The Section 5.1 microbenchmark is a single-core kernel (the
    // paper's absolute latencies match one core's throughput), so
    // the whole problem runs on core 0 in both modes.
    for (size_t i = 0; i < s.m; ++i) {
        {
            ScopedTag tag(core.stats(), "ld_lhs");
            // Chunk-programmed DMA fills a VR with the duplicated
            // row, staged through L2.
            core.dmaL4ToL2(a_addr + i * l * 2, 0, l * 2);
            core.dmaL2ToL1(vmA.idx);
            g.load16(vrA, vmA);
        }
        for (size_t gvr = 0; gvr < b_vrs; ++gvr) {
            size_t cols = std::min(dup, s.n - gvr * dup);
            {
                ScopedTag tag(core.stats(), "vr_ops");
                g.load16(vrB, Vmr(vmBBase +
                                  static_cast<unsigned>(gvr)));
                g.xor16(vrT, vrA, vrB);
                g.popcnt16(vrT, vrT);
                g.ashImm16(vrT, vrT, 1);
                g.subS16(vrT, vrConst, vrT);
                g.addSubgrpS16(vrT, vrT, kw, 1);
            }
            {
                ScopedTag tag(core.stats(), "st");
                // Scattered per-column results: PIO, one element at
                // a time (Eq. 5).
                core.pioStore(c_addr + (i * s.n + gvr * dup) * 2, 2,
                              vrT.idx, 0, kw, cols);
            }
        }
    }

    BmmRunResult r = collect(core);
    if (ctx.functional()) {
        r.c.resize(s.m * s.n);
        ctx.dev.l4().read(c_addr, r.c.data(), r.c.size() * 2);
    }
    return r;
}

BmmRunResult
runOpt(Ctx &ctx, bool coalesce, bool bf_layout)
{
    const BmmShape &s = ctx.shape;
    size_t l = ctx.l, kw = ctx.kw;
    cisram_assert(isPow2(s.n) && s.n <= l, "N must be pow2 <= l");
    size_t rpv = l / s.n;
    size_t tiles = divCeil(s.m, rpv);
    size_t b_vrs = divCeil(kw * s.n, l);

    // --- staging ---------------------------------------------------
    // A tiles in L3 layout: row-major keeps the original matrix;
    // broadcast-friendly transposes each tile (entry k*rpv + r).
    std::vector<uint16_t> a_img;
    if (ctx.functional()) {
        a_img.resize(tiles * rpv * kw, 0);
        for (size_t t = 0; t < tiles; ++t) {
            for (size_t r = 0; r < rpv; ++r) {
                size_t row = t * rpv + r;
                if (row >= s.m)
                    break;
                for (size_t k = 0; k < kw; ++k) {
                    size_t off = bf_layout ? (k * rpv + r)
                                           : (r * kw + k);
                    a_img[t * rpv * kw + off] =
                        ctx.data->a[row * kw + k];
                }
            }
        }
    }
    uint64_t a_addr = ctx.stage(a_img, tiles * rpv * kw * 2);

    // B row-major, padded to whole VRs (for coalesced loads), plus a
    // per-k duplicated staging image for the uncoalesced path.
    std::vector<uint16_t> b_img;
    if (ctx.functional()) {
        b_img.resize(b_vrs * l, 0);
        std::copy(ctx.data->b.begin(), ctx.data->b.end(),
                  b_img.begin());
    }
    uint64_t b_addr = ctx.stage(b_img, b_vrs * l * 2);

    uint64_t bdup_addr = 0;
    if (!coalesce) {
        std::vector<uint16_t> b_dup;
        if (ctx.functional()) {
            b_dup.resize(kw * l, 0);
            for (size_t k = 0; k < kw; ++k)
                for (size_t c = 0; c < rpv; ++c)
                    for (size_t j = 0; j < s.n; ++j)
                        b_dup[k * l + c * s.n + j] =
                            ctx.data->b[k * s.n + j];
        }
        bdup_addr = ctx.stage(b_dup, kw * l * 2);
    }

    uint64_t c_addr = ctx.dev.allocator().alloc(tiles * l * 2, 512);

    // --- device kernel ----------------------------------------------
    Gvml &g = ctx.g;
    ApuCore &core = ctx.core;
    core.stats().reset();

    if (coalesce) {
        ScopedTag tag(core.stats(), "ld_rhs");
        cisram_assert(vmBBase + b_vrs <= ctx.dev.spec().numVmrs,
                      "B reuse VRs exceed L1");
        for (size_t gvr = 0; gvr < b_vrs; ++gvr)
            core.dmaL4ToL1(vmBBase + gvr, b_addr + gvr * l * 2);
    }

    // Every tile on core 0, as in runBaseline.
    for (size_t t = 0; t < tiles; ++t) {
        {
            ScopedTag tag(core.stats(), "ld_lhs");
            core.dmaL4ToL3(a_addr + t * rpv * kw * 2, 0,
                           rpv * kw * 2);
        }
        {
            ScopedTag tag(core.stats(), "vr_ops");
            // Row index of each element: e / n.
            g.createIndexU16(vrIdx);
            g.srImm16(vrIdx, vrIdx, log2Floor(s.n));
            if (!bf_layout) {
                // Row-major table: row base r * kw.
                g.slImm16(vrIdx, vrIdx, log2Floor(kw));
            }
            g.cpyImm16(vrConst, 16);
            g.cpyImm16(vrAcc, 0);
        }
        for (size_t k = 0; k < kw; ++k) {
            {
                ScopedTag tag(core.stats(), "ld_lhs");
                if (bf_layout) {
                    // Window of rpv entries at offset k * rpv.
                    core.lookup(vrBcast.idx, vrIdx.idx, k * rpv * 2,
                                rpv);
                } else {
                    // idx = r * kw + k against the whole tile table.
                    g.cpyImm16(vrTmp, static_cast<uint16_t>(k));
                    g.addU16(vrTmp, vrIdx, vrTmp);
                    core.lookup(vrBcast.idx, vrTmp.idx, 0, rpv * kw);
                }
            }
            if (coalesce) {
                ScopedTag tag(core.stats(), "vr_ops");
                size_t vmr = (k * s.n) / l;
                size_t which = (k * s.n) % l / s.n;
                g.load16(vrBsrc,
                         Vmr(vmBBase + static_cast<unsigned>(vmr)));
                g.cpySubgrp16Grp(vrBsrc, vrBsrc, l, s.n, which);
            } else {
                ScopedTag tag(core.stats(), "ld_rhs");
                core.dmaL4ToL2(bdup_addr + k * l * 2, 0, l * 2);
                core.dmaL2ToL1(vmA.idx);
                g.load16(vrBsrc, vmA);
            }
            {
                ScopedTag tag(core.stats(), "vr_ops");
                g.xor16(vrT, vrBcast, vrBsrc);
                g.popcnt16(vrT, vrT);
                g.ashImm16(vrT, vrT, 1);
                g.subS16(vrT, vrConst, vrT);
                g.addS16(vrAcc, vrAcc, vrT);
            }
        }
        {
            ScopedTag tag(core.stats(), "st");
            g.store16(vmOut, vrAcc);
            core.dmaL1ToL4(c_addr + t * l * 2, vmOut.idx);
        }
    }

    BmmRunResult r = collect(core);
    if (ctx.functional()) {
        // C tile t holds rows [t*rpv, t*rpv+rpv) packed r*n + j.
        r.c.resize(s.m * s.n);
        std::vector<int16_t> tile(l);
        for (size_t t = 0; t < tiles; ++t) {
            ctx.dev.l4().read(c_addr + t * l * 2, tile.data(),
                              l * 2);
            for (size_t r2 = 0; r2 < rpv; ++r2) {
                size_t row = t * rpv + r2;
                if (row >= s.m)
                    break;
                std::copy(tile.begin() +
                              static_cast<long>(r2 * s.n),
                          tile.begin() +
                              static_cast<long>((r2 + 1) * s.n),
                          r.c.begin() +
                              static_cast<long>(row * s.n));
            }
        }
    }
    return r;
}

} // namespace

BmmRunResult
runBmmApu(ApuDevice &dev, const BmmShape &shape, BmmVariant variant,
          const BmmData *data)
{
    cisram_assert(isPow2(shape.kWords()) && shape.kWords() >= 1,
                  "kWords must be a power of two");
    cisram_assert(shape.kBits % 16 == 0, "kBits must pack into u16");
    if (dev.core(0).functional())
        cisram_assert(data != nullptr,
                      "functional run requires operands");

    Ctx ctx(dev, shape, data);
    switch (variant) {
      case BmmVariant::Baseline:
        return runBaseline(ctx);
      case BmmVariant::Opt1:
        return runOpt(ctx, false, false);
      case BmmVariant::Opt1Opt2:
        return runOpt(ctx, true, false);
      case BmmVariant::Opt1Opt3:
        return runOpt(ctx, false, true);
      case BmmVariant::AllOpts:
        return runOpt(ctx, true, true);
    }
    cisram_panic("unknown variant");
}

} // namespace cisram::kernels
