/**
 * @file
 * Compute-heavy Phoenix applications on the APU: dense matrix
 * multiply (inner-product structure) and k-means assignment.
 */

#include "kernels/phoenix_apu.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "kernels/kernel_ctx.hh"

namespace cisram::kernels {

using apu::ApuDevice;
using baseline::KmeansInput;
using gvml::Vmr;
using gvml::Vr;

// =================================================================
// Dense matrix multiply
// =================================================================

std::vector<int16_t>
matmulApu(ApuDevice &dev, const std::vector<int16_t> *a,
          const std::vector<int16_t> *b, size_t m, size_t n,
          size_t k, PhoenixVariant v, PhoenixStats &stats)
{
    KernelCtx ctx(dev);
    auto &g = ctx.g;
    size_t l = ctx.l;
    cisram_assert(isPow2(k) && k <= l, "inner dim must be pow2 <= l");
    size_t cols_per_vr = l / k;
    size_t col_groups = divCeil(n, cols_per_vr);
    size_t rows_per_avr = l / k;
    size_t row_groups = divCeil(m, rows_per_avr);

    // The Phoenix matmul keeps its inner-product structure
    // (Section 5.2.1), so reductions stay spatial and results leave
    // by PIO; B streams per pass. Opt2 coalesces the A-row
    // duplication (resident A group + subgroup copy) instead of a
    // duplicated chunk DMA per row.
    bool coalesce_a =
        v == PhoenixVariant::Opt2 || v == PhoenixVariant::AllOpts;

    uint64_t a_addr = 0, adup_addr = 0, b_addr = 0, c_addr = 0;
    if (ctx.fnl) {
        cisram_assert(a && b && a->size() == m * k &&
                      b->size() == k * n);
        if (coalesce_a) {
            std::vector<uint16_t> img(row_groups * l, 0);
            for (size_t i = 0; i < m * k; ++i)
                img[i] = static_cast<uint16_t>((*a)[i]);
            a_addr = ctx.stage(img.data(), img.size() * 2);
        } else {
            std::vector<uint16_t> img(m * l, 0);
            for (size_t row = 0; row < m; ++row)
                for (size_t c = 0; c < cols_per_vr; ++c)
                    for (size_t w = 0; w < k; ++w)
                        img[row * l + c * k + w] =
                            static_cast<uint16_t>(
                                (*a)[row * k + w]);
            adup_addr = ctx.stage(img.data(), img.size() * 2);
        }
        std::vector<uint16_t> bimg(col_groups * l, 0);
        for (size_t j = 0; j < n; ++j)
            for (size_t w = 0; w < k; ++w)
                bimg[j * k + w] =
                    static_cast<uint16_t>((*b)[w * n + j]);
        b_addr = ctx.stage(bimg.data(), bimg.size() * 2);
    }
    c_addr = dev.allocator().alloc(
        std::max<size_t>(m * n * 2, 2), 512);

    constexpr Vr vrA{0}, vrArows{1}, vrB{2}, vrT{3};
    constexpr Vmr vmA{0}, vmB{1}, vmStage{2};

    auto do_row = [&](size_t row) {
        if (coalesce_a) {
            g.load16(vrArows, vmA);
            g.cpySubgrp16Grp(vrA, vrArows, l, k,
                             ctx.fnl ? row % rows_per_avr : 0);
        } else {
            ctx.core.dmaL4ToL2(adup_addr + row * l * 2, 0, l * 2);
            ctx.core.dmaL2ToL1(vmStage.idx);
            g.load16(vrA, vmStage);
        }
        for (size_t cg = 0; cg < col_groups; ++cg) {
            ctx.core.dmaL4ToL1(vmB.idx, b_addr + cg * l * 2);
            g.load16(vrB, vmB);
            g.mulS16(vrT, vrA, vrB);
            g.addSubgrpS16(vrT, vrT, k, 1);
            size_t cols = std::min(cols_per_vr, n - cg * cols_per_vr);
            ctx.core.pioStore(
                c_addr + (row * n + cg * cols_per_vr) * 2, 2,
                vrT.idx, 0, k, cols);
        }
    };

    if (ctx.fnl) {
        for (size_t rg = 0; rg < row_groups; ++rg) {
            if (coalesce_a)
                ctx.core.dmaL4ToL1(vmA.idx, a_addr + rg * l * 2);
            size_t hi = std::min(m, (rg + 1) * rows_per_avr);
            for (size_t row = rg * rows_per_avr; row < hi; ++row)
                do_row(row);
        }
    } else {
        if (coalesce_a) {
            timedLoop(ctx.core, ctx.coreShare(row_groups), [&](size_t) {
                ctx.core.dmaL4ToL1(vmA.idx, 0);
            });
        }
        timedLoop(ctx.core, ctx.coreShare(m),
                  [&](size_t) { do_row(0); });
    }

    stats = {ctx.cycles(), ctx.uops()};
    std::vector<int16_t> out;
    if (ctx.fnl) {
        out.resize(m * n);
        dev.l4().read(c_addr, out.data(), out.size() * 2);
    }
    return out;
}

// =================================================================
// K-means assignment
// =================================================================

namespace {

/** Round-to-int centroid values from double means. */
uint16_t
centroidU16(double v)
{
    return static_cast<uint16_t>(
        static_cast<int16_t>(std::lround(v)));
}

} // namespace

std::vector<uint32_t>
kmeansApu(ApuDevice &dev, const KmeansInput *in, size_t num_points,
          size_t dim, size_t k, unsigned iterations,
          PhoenixVariant v, PhoenixStats &stats)
{
    KernelCtx ctx(dev);
    auto &g = ctx.g;
    size_t l = ctx.l;
    cisram_assert(isPow2(dim), "dim must be pow2");

    // Variant mapping (Section 5.2.1: k-means gains from opt1's
    // temporal distances and opt3's broadcast-friendly centroid
    // layout, which mostly pays off on top of opt1):
    //  - Baseline/Opt2: spatial groups-of-dim mapping, row-major
    //    centroid lookup table, PIO'd assignments.
    //  - Opt3: spatial + window-sized lookup tables.
    //  - Opt1: temporal planes + row-major lookup broadcasts.
    //  - AllOpts: temporal + CP-immediate centroid broadcasts.
    bool temporal =
        v == PhoenixVariant::Opt1 || v == PhoenixVariant::AllOpts;
    bool bf = v == PhoenixVariant::Opt3 || v == PhoenixVariant::AllOpts;

    if (ctx.fnl) {
        cisram_assert(in && in->numPoints == num_points &&
                      in->dim == dim && in->k == k);
        cisram_assert(num_points <= (size_t(1) << 18),
                      "functional k-means input too large");
    }

    size_t tiles = temporal
        ? divCeil(num_points, l)
        : divCeil(num_points, l / dim);
    size_t pts_per_tile = temporal ? l : l / dim;

    // Functional staging: dimension planes (temporal) or grouped
    // points (spatial); assignment output region.
    uint64_t pts_addr = 0, assign_addr = 0, cent_addr = 0;
    if (ctx.fnl) {
        std::vector<uint16_t> img(tiles * (temporal ? dim : 1) * l,
                                  0);
        if (temporal) {
            for (size_t p = 0; p < num_points; ++p)
                for (size_t d = 0; d < dim; ++d)
                    img[(p / l * dim + d) * l + p % l] =
                        static_cast<uint16_t>(
                            in->points[p * dim + d]);
        } else {
            for (size_t p = 0; p < num_points; ++p)
                for (size_t d = 0; d < dim; ++d)
                    img[p * dim + d] = static_cast<uint16_t>(
                        in->points[p * dim + d]);
        }
        pts_addr = ctx.stage(img.data(), img.size() * 2);
    }
    assign_addr = dev.allocator().alloc(
        std::max<size_t>(tiles, 1) * pts_per_tile * 2, 512);
    cent_addr = dev.allocator().alloc(k * dim * 2, 512);

    // Host-side centroid state (the MapReduce reduce step).
    std::vector<double> centroids(k * dim, 0.0);
    if (ctx.fnl)
        for (size_t c = 0; c < k; ++c)
            for (size_t d = 0; d < dim; ++d)
                centroids[c * dim + d] = in->points[c * dim + d];

    constexpr Vr vrP{0}, vrC{1}, vrDiff{2}, vrSq{3}, vrD{4},
        vrBest{5}, vrAssign{6}, vrM{7}, vrZero{8}, vrNeg{9},
        vrIdx{10}, vrHead{11}, vrT{12};
    constexpr Vmr vmStage{0};
    constexpr unsigned planeVmrBase = 1;

    g.cpyImm16(vrZero, 0);
    if (!temporal) {
        g.createGrpIndexU16(vrIdx, dim);
        g.eq16(vrHead, vrIdx, vrZero);
    }

    // Temporal planes stay resident in L1 across iterations.
    if (temporal) {
        size_t planes = tiles * dim;
        cisram_assert(!ctx.fnl ||
                          planes + planeVmrBase <=
                              dev.spec().numVmrs,
                      "planes exceed L1 for functional run");
        if (ctx.fnl) {
            for (size_t pl = 0; pl < planes; ++pl)
                ctx.core.dmaL4ToL1(
                    planeVmrBase + static_cast<unsigned>(pl),
                    pts_addr + pl * l * 2);
        } else {
            timedLoop(ctx.core, ctx.coreShare(planes), [&](size_t) {
                ctx.core.dmaL4ToL1(planeVmrBase, 0);
            });
        }
    }

    auto broadcast = [&](size_t c, size_t d) {
        if (temporal) {
            if (bf) {
                // CP-immediate broadcast (broadcast-friendly).
                g.cpyImm16(vrC, ctx.fnl
                                    ? centroidU16(
                                          centroids[c * dim + d])
                                    : 0);
            } else {
                // Scalar lookup against the row-major L3 table.
                g.cpyImm16(vrT, static_cast<uint16_t>(c * dim + d));
                ctx.core.lookup(vrC.idx, vrT.idx, 0, k * dim);
            }
        } else {
            // Spatial: broadcast centroid c's dim-vector pattern.
            if (bf) {
                ctx.core.lookup(vrC.idx, vrIdx.idx, c * dim * 2,
                                dim);
            } else {
                g.cpyImm16(vrT, static_cast<uint16_t>(c * dim));
                g.addU16(vrT, vrIdx, vrT);
                ctx.core.lookup(vrC.idx, vrT.idx, 0, k * dim);
            }
        }
    };

    auto squaredTerm = [&](Vr point) {
        g.subS16(vrDiff, point, vrC);
        g.ltS16(vrM, vrDiff, vrZero);
        g.subS16(vrNeg, vrZero, vrDiff);
        g.cpy16Msk(vrDiff, vrNeg, vrM);
        g.mulU16(vrSq, vrDiff, vrDiff);
    };

    auto do_tile = [&](size_t tile) {
        g.cpyImm16(vrBest, 0xffff);
        g.cpyImm16(vrAssign, 0);
        if (!temporal) {
            ctx.core.dmaL4ToL1(vmStage.idx, pts_addr + tile * l * 2);
            g.load16(vrP, vmStage);
        }
        for (size_t c = 0; c < k; ++c) {
            if (temporal) {
                g.cpyImm16(vrD, 0);
                for (size_t d = 0; d < dim; ++d) {
                    broadcast(c, d);
                    unsigned vmr = planeVmrBase +
                        static_cast<unsigned>(
                            ctx.fnl ? tile * dim + d : 0);
                    g.load16(vrP, Vmr(vmr));
                    squaredTerm(vrP);
                    g.addU16(vrD, vrD, vrSq);
                }
            } else {
                broadcast(c, 0);
                squaredTerm(vrP);
                g.addSubgrpS16(vrD, vrSq, dim, 1);
            }
            // Min-update; spatial results live at group heads.
            g.ltU16(vrM, vrD, vrBest);
            if (!temporal)
                g.and16(vrM, vrM, vrHead);
            g.cpy16Msk(vrBest, vrD, vrM);
            g.cpyImm16Msk(vrAssign, static_cast<uint16_t>(c), vrM);
        }
        // Assignment extraction: contiguous DMA (temporal) vs PIO
        // of scattered group heads (spatial).
        if (temporal) {
            g.store16(vmStage, vrAssign);
            ctx.core.dmaL1ToL4(assign_addr + tile * l * 2,
                               vmStage.idx);
        } else {
            ctx.core.pioStore(assign_addr + tile * pts_per_tile * 2,
                              2, vrAssign.idx, 0, dim,
                              pts_per_tile);
        }
    };

    std::vector<uint32_t> assignment(ctx.fnl ? num_points : 0, 0);

    // Centroid lookups read L3 in every configuration except the
    // fully broadcast-friendly temporal one (CP immediates).
    bool uses_lookup = !(temporal && bf);
    for (unsigned iter = 0; iter < iterations; ++iter) {
        if (uses_lookup) {
            // Ship the centroid table to L3 for lookups.
            if (ctx.fnl) {
                std::vector<uint16_t> tbl(k * dim);
                for (size_t i = 0; i < k * dim; ++i)
                    tbl[i] = centroidU16(centroids[i]);
                dev.l4().write(cent_addr, tbl.data(),
                               tbl.size() * 2);
            }
            ctx.core.dmaL4ToL3(cent_addr, 0, k * dim * 2);
        }
        timedLoop(ctx.core, ctx.coreShare(tiles), do_tile);

        if (ctx.fnl) {
            // Host reduce: read assignments, recompute centroids.
            std::vector<uint16_t> avr(pts_per_tile);
            for (size_t tile = 0; tile < tiles; ++tile) {
                dev.l4().read(assign_addr +
                                  tile * pts_per_tile * 2,
                              avr.data(), pts_per_tile * 2);
                for (size_t i = 0; i < pts_per_tile; ++i) {
                    size_t p = tile * pts_per_tile + i;
                    if (p < num_points)
                        assignment[p] = avr[i];
                }
            }
            std::vector<double> sums(k * dim, 0.0);
            std::vector<size_t> counts(k, 0);
            for (size_t p = 0; p < num_points; ++p) {
                size_t c = assignment[p];
                cisram_assert(c < k, "assignment out of range");
                ++counts[c];
                for (size_t d = 0; d < dim; ++d)
                    sums[c * dim + d] += in->points[p * dim + d];
            }
            for (size_t c = 0; c < k; ++c) {
                if (counts[c] == 0)
                    continue;
                for (size_t d = 0; d < dim; ++d)
                    centroids[c * dim + d] = std::round(
                        sums[c * dim + d] /
                        static_cast<double>(counts[c]));
            }
        }
    }

    stats = {ctx.cycles(), ctx.uops()};
    return assignment;
}

} // namespace cisram::kernels
