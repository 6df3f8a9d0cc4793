/**
 * @file
 * GVML reductions: hierarchical subgroup add, mark counting, and the
 * associative global max/min search.
 */

#include "gvml/gvml.hh"

#include <algorithm>
#include <cstring>

#include "common/bitutils.hh"
#include "common/trace.hh"

namespace cisram::gvml {

namespace {

/** Eight u16 lanes in one SSE2 register (a GCC/Clang vector extension). */
using Lanes8 = uint16_t __attribute__((vector_size(16)));

Lanes8
load8(const uint16_t *p)
{
    Lanes8 v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

void
store8(uint16_t *p, Lanes8 v)
{
    std::memcpy(p, &v, sizeof v);
}

/** Lane k holds v's lane k + kBy, or 0 where that is past lane 7. */
template <unsigned kBy>
Lanes8
down(Lanes8 v)
{
    return __builtin_shufflevector(v, Lanes8{}, kBy, kBy + 1, kBy + 2,
                                   kBy + 3, kBy + 4, kBy + 5, kBy + 6,
                                   kBy + 7);
}

/** v's lanes [0, kStride) repeated over all eight. */
template <unsigned kStride>
Lanes8
repeat(Lanes8 v)
{
    return __builtin_shufflevector(v, v, 0 % kStride, 1 % kStride,
                                   2 % kStride, 3 % kStride, 4 % kStride,
                                   5 % kStride, 6 % kStride, 7 % kStride);
}

/**
 * Strided suffix sums in place, descending one 8-lane block at a
 * time: w[j] becomes S[j] = w[j] + S[j + s], or w[j] where j + s >= n
 * (n a multiple of 8 and of s). kStride is s when s <= 8: a block
 * sums its own chains in log2(8 / s) in-register shifts, and chain k
 * continues at lane k % s of the block above, whose sums are carried
 * in a register. kStride 0 serves every wider stride: a block's
 * chains continue s lanes up, in a block already stored.
 */
template <unsigned kStride>
void
suffixSums(uint16_t *w, size_t n, size_t s)
{
    Lanes8 carry{};
    for (size_t b = n; b != 0;) {
        b -= 8;
        Lanes8 v = load8(w + b);
        if constexpr (kStride != 0) {
            if constexpr (kStride < 8)
                v += down<kStride>(v);
            if constexpr (2 * kStride < 8)
                v += down<2 * kStride>(v);
            if constexpr (4 * kStride < 8)
                v += down<4 * kStride>(v);
            v += carry;
            carry = repeat<kStride>(v);
        } else if (b + s < n) {
            v += load8(w + b + s);
        }
        store8(w + b, v);
    }
}

/**
 * Every lane i of w[0, n) becomes the sum of w[i + m * s] over
 * m < grp / s with i + m * s < n, in two in-place passes: the strided
 * suffix sums S, then, ascending, w[i] = S[i] - S[i + grp] wherever
 * i + grp < n. The terms from i + grp on cancel exactly (u16
 * arithmetic wraps), and lane i + grp is read before the ascending
 * pass rewrites it. A vector shorter than a block runs as one
 * zero-padded block: zeros past n add nothing to any S.
 */
void
subgroupSums(uint16_t *w, size_t n, size_t grp, size_t s)
{
    if (n < 8) {
        uint16_t block[8] = {};
        std::copy_n(w, n, block);
        subgroupSums(block, 8, grp, s);
        std::copy_n(block, n, w);
        return;
    }
    switch (s) {
    case 1: suffixSums<1>(w, n, s); break;
    case 2: suffixSums<2>(w, n, s); break;
    case 4: suffixSums<4>(w, n, s); break;
    case 8: suffixSums<8>(w, n, s); break;
    default: suffixSums<0>(w, n, s); break;
    }
    size_t e = n - grp, i = 0;
    for (; i + 8 <= e; i += 8)
        store8(w + i, load8(w + i) - load8(w + i + grp));
    for (; i < e; ++i)
        w[i] = static_cast<uint16_t>(w[i] - w[i + grp]);
}

} // namespace

void
Gvml::addSubgrpS16(Vr dst, Vr src, size_t grp, size_t subgrp)
{
    trace::OpScope traceOp_("gvml.addSubgrpS16");
    cisram_assert(isPow2(grp) && isPow2(subgrp),
                  "subgroup reduction requires power-of-two sizes");
    cisram_assert(subgrp <= grp && grp <= length(),
                  "invalid group/subgroup sizes");
    cisram_assert(length() % grp == 0, "group must divide VR length");

    if (grp == subgrp) {
        cpy16(dst, src);
        return;
    }

    // The device realizes this reduction with dedicated microcode:
    // log2(grp/subgrp) shift-and-add stages whose per-stage cost
    // grows quadratically with stage depth (wider alignment and
    // masking at each level). The total is therefore cubic in the
    // logarithms of the sizes, which is exactly the behaviour the
    // analytical framework's Eq. 1 models and fits.
    const auto &cp = core_.timing().compute;
    const auto &ct = core_.timing().control;
    uint64_t ls = log2Floor(subgrp == 0 ? 1 : subgrp);
    for (size_t step = grp / 2; step >= subgrp; step /= 2) {
        uint64_t u = log2Floor(step == 0 ? 1 : step) + 1;
        uint64_t stage_cost = cp.sgStageBase + cp.sgStageLinear * u +
            cp.sgStageMask * ls * ls;
        core_.chargeVectorOp(stage_cost);
        core_.chargeVectorOp(cp.addS16);
        core_.chargeRaw(ct.vcuDecode); // mask re-arm between the pair
    }

    // Functionally the stages telescope: their lanes are those of two
    // passes over dst's materialized storage, which first takes src's
    // value (nothing to copy when dst is src).
    if (core_.functional()) {
        apu::LaneVector &d = core_.vr().lanes(dst.idx);
        d.assign(core_.vr().lanes(src.idx));
        subgroupSums(d.full().data(), length(), grp, subgrp);
    }
}

uint32_t
Gvml::countM(Vr mark)
{
    trace::OpScope traceOp_("gvml.countM");
    core_.chargeVectorOp(core_.timing().compute.countM);
    if (!core_.functional())
        return 0;
    const auto &m = core_.vr()[mark.idx];
    uint32_t n = 0;
    for (uint16_t v : m)
        if (v)
            ++n;
    return n;
}

namespace {

/** Cycles charged per refinement step of the associative search. */
uint64_t
searchStepCycles(const apu::TimingParams &t)
{
    // One read-AND against the candidate mark plus the wired-OR "any"
    // test on the global horizontal lines.
    return t.compute.and16 + t.compute.or16 + 4;
}

/**
 * Charge the associative search: 16 bit-serial refinement steps, then
 * one serial index fetch. The steps cost alike whatever the data, so
 * they charge as one step under a repeat of 16.
 */
void
chargeSearch(apu::ApuCore &core)
{
    const auto &t = core.timing();
    {
        apu::ScopedRepeat steps(core.stats(), 16);
        core.chargeVectorOp(searchStepCycles(t));
    }
    core.chargeRaw(t.move.pioStorePerElem);
}

/**
 * The first lane holding the best value under `better`: a scan of
 * the stored head, then the uniform tail, whose first lane is hi
 * (apusim/lane_vector.hh).
 */
template <typename Better>
Gvml::MaxResult
extremum(const apu::LaneVector &s, Better better)
{
    if (s.length() == 0)
        cisram_panic("associative search lost all candidates");
    if (s.hi() == 0)
        return {s.tail(), 0};
    const uint16_t *h = s.head();
    Gvml::MaxResult best{h[0], 0};
    for (size_t i = 1; i < s.hi(); ++i) {
        if (better(h[i], best.value))
            best = {h[i], i};
    }
    if (s.hi() < s.length() && better(s.tail(), best.value))
        return {s.tail(), s.hi()};
    return best;
}

} // namespace

Gvml::MaxResult
Gvml::maxIndexU16(Vr src)
{
    trace::OpScope traceOp_("gvml.maxIndexU16");
    chargeSearch(core_);

    if (!core_.functional())
        return {0, 0};

    // The MSB-first associative refinement provably converges on the
    // maximum with its candidate set equal to exactly the elements
    // attaining it (every refinement keeps all elements whose probed
    // prefix matches, and a bit is kept iff some candidate has it),
    // so the whole 16-round search collapses to a single linear max
    // scan returning the first index of the maximum
    // (tests/test_wordparallel.cc pins this against a brute-force
    // reference).
    return extremum(core_.vr().lanes(src.idx),
                    [](uint16_t a, uint16_t b) { return a > b; });
}

Gvml::MaxResult
Gvml::minIndexU16(Vr src)
{
    trace::OpScope traceOp_("gvml.minIndexU16");
    chargeSearch(core_);

    if (!core_.functional())
        return {0, 0};

    // Minimum search: identical refinement on complemented bits, so
    // the same single-pass argument applies (see maxIndexU16) with
    // the comparison reversed.
    return extremum(core_.vr().lanes(src.idx),
                    [](uint16_t a, uint16_t b) { return a < b; });
}

} // namespace cisram::gvml
