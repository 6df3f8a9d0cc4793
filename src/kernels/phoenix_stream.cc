/**
 * @file
 * Streaming Phoenix applications on the APU: histogram, linear
 * regression, and string match.
 */

#include "kernels/phoenix_apu.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "kernels/kernel_ctx.hh"

namespace cisram::kernels {

using apu::ApuDevice;
using baseline::HistogramInput;
using baseline::HistogramResult;
using baseline::LinRegInput;
using baseline::LinRegResult;
using baseline::StringMatchInput;
using baseline::StringMatchResult;
using gvml::Vmr;
using gvml::Vr;

const char *
phoenixVariantName(PhoenixVariant v)
{
    switch (v) {
      case PhoenixVariant::Baseline:
        return "baseline";
      case PhoenixVariant::Opt1:
        return "opt1";
      case PhoenixVariant::Opt2:
        return "opt2";
      case PhoenixVariant::Opt3:
        return "opt3";
      case PhoenixVariant::AllOpts:
        return "all-opts";
    }
    return "?";
}

// =================================================================
// Histogram
// =================================================================

HistogramResult
histogramApu(ApuDevice &dev, const HistogramInput *in,
             double input_bytes, PhoenixVariant v,
             PhoenixStats &stats)
{
    KernelCtx ctx(dev);
    auto &g = ctx.g;
    size_t l = ctx.l;

    // Opt2 packs two 8-bit pixels into each 16-bit element, halving
    // the streamed volume; other optimizations don't apply here
    // (Section 5.2.1: histogram remains intra-VR limited).
    bool packed =
        v == PhoenixVariant::Opt2 || v == PhoenixVariant::AllOpts;

    double vals_per_channel = input_bytes / 3.0;
    double elems_per_channel =
        packed ? vals_per_channel / 2.0 : vals_per_channel;
    size_t tiles_per_channel = static_cast<size_t>(
        divCeil(static_cast<uint64_t>(elems_per_channel), l));

    // Functional staging: planar per-channel images.
    uint64_t plane_addr[3] = {0, 0, 0};
    size_t pad_zero_bytes[3] = {0, 0, 0};
    if (ctx.fnl) {
        size_t npix = in->pixels.size() / 3;
        tiles_per_channel = divCeil(packed ? divCeil(npix, 2) : npix,
                                    l);
        for (int ch = 0; ch < 3; ++ch) {
            std::vector<uint16_t> plane(tiles_per_channel * l, 0);
            for (size_t p = 0; p < npix; ++p) {
                uint8_t val = in->pixels[3 * p + ch];
                if (packed) {
                    plane[p / 2] |= static_cast<uint16_t>(val)
                        << (8 * (p % 2));
                } else {
                    plane[p] = val;
                }
            }
            // Padding contributes zero-valued byte lanes that the
            // host subtracts from bin 0 afterwards.
            pad_zero_bytes[ch] =
                (packed ? 2 : 1) * tiles_per_channel * l - npix;
            plane_addr[ch] =
                ctx.stage(plane.data(), plane.size() * 2);
        }
    }

    constexpr Vr vrSrc{0}, vrLo{1}, vrHi{2}, vrBin{3}, vrM{4},
        vrMaskFF{5};
    constexpr Vmr vmIn{0};

    g.cpyImm16(vrMaskFF, 0x00ff);

    HistogramResult out;
    uint32_t *bins[3] = {out.r.data(), out.g.data(), out.b.data()};

    size_t total_tiles = 3 * tiles_per_channel;
    size_t share = ctx.coreShare(total_tiles);
    timedLoop(ctx.core, share, [&](size_t t) {
        int ch = ctx.fnl
            ? static_cast<int>(t / tiles_per_channel)
            : 0;
        size_t tile = ctx.fnl ? t % tiles_per_channel : 0;
        ctx.core.dmaL4ToL1(vmIn.idx,
                           plane_addr[ch] + tile * l * 2);
        g.load16(vrSrc, vmIn);
        if (packed) {
            g.and16(vrLo, vrSrc, vrMaskFF);
            g.srImm16(vrHi, vrSrc, 8);
        }
        for (unsigned b = 0; b < 256; ++b) {
            g.cpyImm16(vrBin, static_cast<uint16_t>(b));
            if (packed) {
                g.eq16(vrM, vrLo, vrBin);
                uint32_t c = g.countM(vrM);
                g.eq16(vrM, vrHi, vrBin);
                c += g.countM(vrM);
                if (ctx.fnl)
                    bins[ch][b] += c;
            } else {
                g.eq16(vrM, vrSrc, vrBin);
                uint32_t c = g.countM(vrM);
                if (ctx.fnl)
                    bins[ch][b] += c;
            }
        }
    });

    if (ctx.fnl) {
        for (int ch = 0; ch < 3; ++ch) {
            cisram_assert(bins[ch][0] >=
                          pad_zero_bytes[ch]);
            bins[ch][0] -= static_cast<uint32_t>(
                pad_zero_bytes[ch]);
        }
    }
    stats = {ctx.cycles(), ctx.uops()};
    return out;
}

// =================================================================
// Linear regression
// =================================================================

namespace {

/** 32-bit accumulate: lo += v with carry into hi. */
void
acc32(gvml::Gvml &g, Vr lo, Vr hi, Vr v, Vr carry)
{
    g.addU16(lo, lo, v);
    g.ltU16(carry, lo, v); // wrapped iff result < addend
    g.addU16(hi, hi, carry);
}

} // namespace

LinRegResult
linRegApu(ApuDevice &dev, const LinRegInput *in, double input_bytes,
          PhoenixVariant v, PhoenixStats &stats)
{
    KernelCtx ctx(dev);
    auto &g = ctx.g;
    size_t l = ctx.l;

    // Opt2 keeps the natural (x, y) byte-pair packing; the baseline
    // splits into two byte-per-element planes (twice the traffic).
    // Opt1 switches the naive eager per-tile spatial reduction +
    // PIO partials to temporal per-lane accumulators drained once by
    // DMA.
    bool packed =
        v == PhoenixVariant::Opt2 || v == PhoenixVariant::AllOpts;
    bool temporal =
        v == PhoenixVariant::Opt1 || v == PhoenixVariant::AllOpts;

    double points = input_bytes / 2.0;
    size_t tiles = static_cast<size_t>(
        divCeil(static_cast<uint64_t>(points), l));

    uint64_t x_addr = 0, y_addr = 0, packed_addr = 0,
             partial_addr = 0;
    size_t npoints = 0;
    if (ctx.fnl) {
        npoints = in->points.size() / 2;
        tiles = divCeil(npoints, l);
        if (packed) {
            // One element per point: x | y << 8.
            std::vector<uint16_t> img(tiles * l, 0);
            for (size_t p = 0; p < npoints; ++p)
                img[p] = static_cast<uint16_t>(
                    in->points[2 * p] |
                    (in->points[2 * p + 1] << 8));
            packed_addr = ctx.stage(img.data(), img.size() * 2);
        } else {
            std::vector<uint16_t> xs(tiles * l, 0), ys(tiles * l, 0);
            for (size_t p = 0; p < npoints; ++p) {
                xs[p] = in->points[2 * p];
                ys[p] = in->points[2 * p + 1];
            }
            x_addr = ctx.stage(xs.data(), xs.size() * 2);
            y_addr = ctx.stage(ys.data(), ys.size() * 2);
        }
    }
    // Partial-sum output region for the eager (spatial) path:
    // per tile, 5 quantities x 2 byte-halves x (l/256) group sums.
    size_t groups = l / 256;
    if (!temporal)
        partial_addr = dev.allocator().alloc(
            std::max<size_t>(tiles, 1) * 5 * 2 * groups * 2, 512);

    constexpr Vr vrX{0}, vrY{1}, vrV{2}, vrC{3}, vrMaskFF{4},
        vrT{5}, vrLoB{6}, vrHiB{7};
    // Temporal accumulators: lo/hi for sx, sy, sxx, syy, sxy.
    constexpr unsigned accBase = 8; // VRs 8..17
    constexpr Vmr vmIn{0}, vmIn2{1}, vmOut{2};

    g.cpyImm16(vrMaskFF, 0x00ff);
    if (temporal) {
        for (unsigned q = 0; q < 10; ++q)
            g.cpyImm16(Vr(accBase + q), 0);
    }

    uint64_t sums[5] = {0, 0, 0, 0, 0}; // sx, sy, sxx, syy, sxy

    auto quantity = [&](unsigned q, Vr dst) {
        // q: 0 sx, 1 sy, 2 sxx, 3 syy, 4 sxy.
        switch (q) {
          case 0:
            g.cpy16(dst, vrX);
            break;
          case 1:
            g.cpy16(dst, vrY);
            break;
          case 2:
            g.mulU16(dst, vrX, vrX);
            break;
          case 3:
            g.mulU16(dst, vrY, vrY);
            break;
          default:
            g.mulU16(dst, vrX, vrY);
            break;
        }
    };

    size_t share = ctx.coreShare(tiles);
    timedLoop(ctx.core, share, [&](size_t tile) {
        if (packed) {
            ctx.core.dmaL4ToL1(vmIn.idx, packed_addr + tile * l * 2);
            g.load16(vrT, vmIn);
            g.and16(vrX, vrT, vrMaskFF);
            g.srImm16(vrY, vrT, 8);
        } else {
            ctx.core.dmaL4ToL1(vmIn.idx, x_addr + tile * l * 2);
            ctx.core.dmaL4ToL1(vmIn2.idx, y_addr + tile * l * 2);
            g.load16(vrX, vmIn);
            g.load16(vrY, vmIn2);
        }
        for (unsigned q = 0; q < 5; ++q) {
            quantity(q, vrV);
            if (temporal) {
                acc32(g, Vr(accBase + 2 * q),
                      Vr(accBase + 2 * q + 1), vrV, vrC);
            } else {
                // Eager spatial reduction: split bytes so 256-wide
                // group sums stay within u16, then PIO the group
                // heads out as partials.
                g.and16(vrLoB, vrV, vrMaskFF);
                g.srImm16(vrHiB, vrV, 8);
                g.addSubgrpS16(vrLoB, vrLoB, 256, 1);
                g.addSubgrpS16(vrHiB, vrHiB, 256, 1);
                uint64_t base = partial_addr +
                    (tile * 5 + q) * 2 * groups * 2;
                ctx.core.pioStore(base, 2, vrLoB.idx, 0, 256,
                                  groups);
                ctx.core.pioStore(base + groups * 2, 2, vrHiB.idx,
                                  0, 256, groups);
            }
        }
    });

    if (temporal) {
        // Drain the accumulators by DMA; the host combines lanes.
        uint64_t acc_addr = dev.allocator().alloc(10 * l * 2, 512);
        for (unsigned q = 0; q < 10; ++q) {
            g.store16(vmOut, Vr(accBase + q));
            ctx.core.dmaL1ToL4(acc_addr + q * l * 2, vmOut.idx);
        }
        ctx.core.chargeRaw(4.0 * 10 * static_cast<double>(l));
        if (ctx.fnl) {
            std::vector<uint16_t> lo(l), hi(l);
            for (unsigned q = 0; q < 5; ++q) {
                dev.l4().read(acc_addr + (2 * q) * l * 2, lo.data(),
                              l * 2);
                dev.l4().read(acc_addr + (2 * q + 1) * l * 2,
                              hi.data(), l * 2);
                for (size_t i = 0; i < l; ++i)
                    sums[q] += (static_cast<uint64_t>(hi[i]) << 16) +
                        lo[i];
            }
        }
    } else {
        // Host combines the PIO'd per-tile group partials.
        ctx.core.chargeRaw(4.0 * static_cast<double>(share) * 5 * 2 *
                           static_cast<double>(groups));
        if (ctx.fnl) {
            std::vector<uint16_t> part(groups);
            for (size_t tile = 0; tile < tiles; ++tile) {
                for (unsigned q = 0; q < 5; ++q) {
                    uint64_t base = partial_addr +
                        (tile * 5 + q) * 2 * groups * 2;
                    dev.l4().read(base, part.data(), groups * 2);
                    for (auto p : part)
                        sums[q] += p;
                    dev.l4().read(base + groups * 2, part.data(),
                                  groups * 2);
                    for (auto p : part)
                        sums[q] += static_cast<uint64_t>(p) << 8;
                }
            }
        }
    }

    stats = {ctx.cycles(), ctx.uops()};

    LinRegResult out{};
    if (ctx.fnl) {
        out.n = npoints;
        out.sx = sums[0];
        out.sy = sums[1];
        out.sxx = sums[2];
        out.syy = sums[3];
        out.sxy = sums[4];
        double dn = static_cast<double>(out.n);
        double denom = dn * static_cast<double>(out.sxx) -
            static_cast<double>(out.sx) * static_cast<double>(out.sx);
        if (denom != 0.0) {
            out.b = (dn * static_cast<double>(out.sxy) -
                     static_cast<double>(out.sx) *
                         static_cast<double>(out.sy)) /
                denom;
            out.a = (static_cast<double>(out.sy) -
                     out.b * static_cast<double>(out.sx)) /
                dn;
        }
    }
    return out;
}

// =================================================================
// String match
// =================================================================

namespace {

constexpr size_t recordBytes = 16;
constexpr size_t recordElems = recordBytes / 2;

/** Pack a string into a fixed 16-byte record (NUL padded). */
void
packRecord(const std::string &s, uint16_t *out)
{
    uint8_t bytes[recordBytes] = {};
    std::memcpy(bytes, s.data(), std::min(s.size(), recordBytes));
    for (size_t e = 0; e < recordElems; ++e)
        out[e] = static_cast<uint16_t>(bytes[2 * e] |
                                       (bytes[2 * e + 1] << 8));
}

/** The in-VR "encryption" transform: rotl3 then xor 0x5a5a. */
void
encrypt(gvml::Gvml &g, Vr dst, Vr src, Vr t1, Vr t2, Vr key)
{
    g.slImm16(t1, src, 3);
    g.srImm16(t2, src, 13);
    g.or16(dst, t1, t2);
    g.xor16(dst, dst, key);
}

} // namespace

StringMatchResult
stringMatchApu(ApuDevice &dev, const StringMatchInput *in,
               double input_bytes, PhoenixVariant v,
               PhoenixStats &stats)
{
    KernelCtx ctx(dev);
    auto &g = ctx.g;
    size_t l = ctx.l;
    size_t rec_per_tile = l / recordElems;

    // Opt1 maps the per-record match reduction to subgroup ops and
    // counts matches with count_m; the baseline PIOs per-record
    // match flags back (the fine-grained element access the paper
    // calls out). Opt2/opt3 have nothing to coalesce or broadcast.
    bool pio_flags = !(v == PhoenixVariant::Opt1 ||
                       v == PhoenixVariant::AllOpts);

    size_t num_keys = ctx.fnl ? in->keys.size() : 4;
    double records = input_bytes / recordBytes;
    size_t tiles = static_cast<size_t>(
        divCeil(static_cast<uint64_t>(records), rec_per_tile));

    uint64_t stream_addr = 0, keys_addr = 0, flags_addr = 0;
    size_t nrec = 0;
    if (ctx.fnl) {
        nrec = in->words.size();
        tiles = divCeil(nrec, rec_per_tile);
        std::vector<uint16_t> img(tiles * l, 0xffff); // pad != keys
        for (size_t r = 0; r < nrec; ++r)
            packRecord(in->words[r], img.data() + r * recordElems);
        stream_addr = ctx.stage(img.data(), img.size() * 2);
        std::vector<uint16_t> kimg(num_keys * recordElems);
        for (size_t k = 0; k < num_keys; ++k)
            packRecord(in->keys[k], kimg.data() + k * recordElems);
        keys_addr = ctx.stage(kimg.data(), kimg.size() * 2);
    }
    if (pio_flags)
        flags_addr = dev.allocator().alloc(
            std::max<size_t>(tiles, 1) * rec_per_tile * 2, 512);

    constexpr Vr vrS{0}, vrE{1}, vrM{2}, vrM2{3}, vrT1{4}, vrT2{5},
        vrXorKey{6}, vrConst8{7}, vrHead{8}, vrFlags{9};
    constexpr unsigned keyPatBase = 10; // VRs 10..13
    constexpr Vmr vmIn{0};

    // Kernel-wide constants and encrypted key patterns.
    g.cpyImm16(vrXorKey, 0x5a5a);
    g.cpyImm16(vrConst8, static_cast<uint16_t>(recordElems));
    g.createGrpIndexU16(vrHead, recordElems);
    g.cpyImm16(vrT1, 0);
    g.eq16(vrHead, vrHead, vrT1); // head-lane mask
    for (size_t k = 0; k < num_keys; ++k) {
        Vr pat(keyPatBase + static_cast<unsigned>(k));
        ctx.core.pioLoad(pat.idx, 0, 1, keys_addr + k * recordBytes,
                         2, recordElems);
        g.cpySubgrp16Grp(pat, pat, l, recordElems, 0);
        encrypt(g, pat, pat, vrT1, vrT2, vrXorKey);
    }

    std::vector<uint64_t> counts(num_keys, 0);

    size_t share = ctx.coreShare(tiles);
    timedLoop(ctx.core, share, [&](size_t tile) {
        ctx.core.dmaL4ToL1(vmIn.idx, stream_addr + tile * l * 2);
        g.load16(vrS, vmIn);
        encrypt(g, vrE, vrS, vrT1, vrT2, vrXorKey);
        if (pio_flags)
            g.cpyImm16(vrFlags, 0);
        for (size_t k = 0; k < num_keys; ++k) {
            Vr pat(keyPatBase + static_cast<unsigned>(k));
            g.eq16(vrM, vrE, pat);
            g.addSubgrpS16(vrM, vrM, recordElems, 1);
            g.eq16(vrM2, vrM, vrConst8);
            g.and16(vrM2, vrM2, vrHead);
            uint32_t c = g.countM(vrM2);
            if (ctx.fnl)
                counts[k] += c;
            if (pio_flags)
                g.or16(vrFlags, vrFlags, vrM2);
        }
        if (pio_flags) {
            // Naive path: per-record flags leave one by one.
            ctx.core.pioStore(flags_addr + tile * rec_per_tile * 2,
                              2, vrFlags.idx, 0, recordElems,
                              rec_per_tile);
        }
    });

    stats = {ctx.cycles(), ctx.uops()};
    return counts;
}

} // namespace cisram::kernels
