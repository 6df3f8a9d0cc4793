/**
 * @file
 * Equivalence gates for the word-parallel evaluation paths: the
 * bit-processor array's word-parallel op bodies against the retained
 * per-bit scalar reference (randomized op-sequence sweep over all
 * latch sources, boolean ops, and slice masks, on word-aligned and
 * ragged bank geometries), the VrFile multi-plane extract/insert fast
 * paths, replayed microcode plans against direct emission, the fused
 * retrieval MAC against the unfused op triple (VR state and
 * CycleStats identical), the single-pass associative max/min against
 * brute force, the lane-extent-aware ops (a stored head plus a
 * uniform tail per VR and VMR) against full-width evaluation, the
 * memoized DRAM range-trace cache (timing, counter,
 * and fault-draw identity between cold and warm calls), the serving
 * admission boundary contracts of DESIGN.md section 7, and the
 * histogram quantile bucket-boundary pin.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apusim/apu.hh"
#include "apusim/bitproc.hh"
#include "apusim/vr_file.hh"
#include "baseline/workloads.hh"
#include "common/gsifloat.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "dramsim/dram_sim.hh"
#include "fault/fault.hh"
#include "gvml/gvml.hh"
#include "gvml/microcode.hh"
#include "kernels/bmm.hh"
#include "kernels/kernel_ctx.hh"
#include "kernels/serving.hh"

using namespace cisram;
using namespace cisram::apu;
using namespace cisram::gvml;

namespace {

/** Disarm on scope exit so no test leaks an armed plan. */
struct PlanGuard
{
    explicit PlanGuard(const std::string &spec)
    {
        auto p = fault::FaultPlan::parse(spec);
        EXPECT_TRUE(p.ok()) << p.status().toString();
        fault::armPlan(*p);
    }
    ~PlanGuard() { fault::disarm(); }
};

constexpr LatchSrc kLatchSrcs[] = {
    LatchSrc::RL,   LatchSrc::GHL,  LatchSrc::GVL, LatchSrc::RL_N,
    LatchSrc::RL_S, LatchSrc::RL_E, LatchSrc::RL_W};

constexpr BoolOp kBoolOps[] = {BoolOp::And, BoolOp::Or, BoolOp::Xor};

/**
 * Two identically seeded engines — one on the word-parallel fast
 * path, one routed through the retained scalar reference — driven
 * with the same op sequence and compared state-for-state.
 */
struct BpPair
{
    BpPair(unsigned nvr, size_t len, unsigned banks, uint64_t seed)
        : vrsWord(nvr, len, banks), vrsScalar(nvr, len, banks),
          word(vrsWord), scalar(vrsScalar)
    {
        scalar.setScalarReference(true);
        Rng rng(seed);
        for (unsigned vr = 0; vr < nvr; ++vr)
            for (size_t i = 0; i < len; ++i) {
                uint16_t v = rng.nextU16();
                vrsWord[vr][i] = v;
                vrsScalar[vr][i] = v;
            }
    }

    void
    expectIdentical(const char *where) const
    {
        ASSERT_EQ(word.uopCount(), scalar.uopCount()) << where;
        for (unsigned s = 0; s < 16; ++s)
            ASSERT_TRUE(word.rlPlane(s) == scalar.rlPlane(s))
                << where << ": RL slice " << s;
        for (unsigned b = 0; b < vrsWord.numBanks(); ++b)
            for (unsigned s = 0; s < 16; ++s)
                ASSERT_EQ(word.ghlBit(b, s), scalar.ghlBit(b, s))
                    << where << ": GHL bank " << b << " slice " << s;
        ASSERT_TRUE(word.gvl() == scalar.gvl()) << where << ": GVL";
        for (unsigned vr = 0; vr < vrsWord.numVrs(); ++vr)
            for (size_t i = 0; i < vrsWord.length(); ++i)
                ASSERT_EQ(vrsWord[vr][i], vrsScalar[vr][i])
                    << where << ": VR " << vr << " elem " << i;
    }

    VrFile vrsWord;
    VrFile vrsScalar;
    BitProcArray word;
    BitProcArray scalar;
};

/**
 * Drive both engines of `p` through `steps` random micro-ops drawn
 * from the full Table 2 surface: every op kind, every latch source
 * (including the bank-edge E/W shifts), every boolean op, and a mix
 * of full, single-slice, and random slice masks.
 */
void
runRandomOps(BpPair &p, uint64_t seed, int steps)
{
    Rng rng(seed);
    auto mask = [&]() -> uint16_t {
        switch (rng.nextU16() % 3) {
          case 0:
            return BitProcArray::fullMask;
          case 1:
            return static_cast<uint16_t>(1u << (rng.nextU16() % 16));
          default: {
            uint16_t m = rng.nextU16();
            return m ? m : BitProcArray::fullMask;
          }
        }
    };
    auto vr = [&] { return rng.nextU16() % p.vrsWord.numVrs(); };
    auto src = [&] { return kLatchSrcs[rng.nextU16() % 7]; };
    auto bop = [&] { return kBoolOps[rng.nextU16() % 3]; };

    for (int step = 0; step < steps; ++step) {
        switch (rng.nextU16() % 11) {
          case 0: {
            uint16_t m = mask();
            unsigned v = vr();
            p.word.rlFromVr(m, v);
            p.scalar.rlFromVr(m, v);
            break;
          }
          case 1: {
            uint16_t m = mask();
            unsigned v0 = vr(), v1 = vr();
            p.word.rlFromVrAndVr(m, v0, v1);
            p.scalar.rlFromVrAndVr(m, v0, v1);
            break;
          }
          case 2: {
            uint16_t m = mask();
            LatchSrc s = src();
            p.word.rlFromLatch(m, s);
            p.scalar.rlFromLatch(m, s);
            break;
          }
          case 3: {
            uint16_t m = mask();
            unsigned v = vr();
            BoolOp o = bop();
            LatchSrc s = src();
            p.word.rlFromVrOpLatch(m, v, o, s);
            p.scalar.rlFromVrOpLatch(m, v, o, s);
            break;
          }
          case 4: {
            uint16_t m = mask();
            BoolOp o = bop();
            unsigned v = vr();
            p.word.rlOpVr(m, o, v);
            p.scalar.rlOpVr(m, o, v);
            break;
          }
          case 5: {
            uint16_t m = mask();
            BoolOp o = bop();
            LatchSrc s = src();
            p.word.rlOpLatch(m, o, s);
            p.scalar.rlOpLatch(m, o, s);
            break;
          }
          case 6: {
            uint16_t m = mask();
            BoolOp o = bop(), o2 = bop();
            unsigned v = vr();
            LatchSrc s = src();
            p.word.rlOpVrOpLatch(m, o, v, o2, s);
            p.scalar.rlOpVrOpLatch(m, o, v, o2, s);
            break;
          }
          case 7: {
            uint16_t m = mask();
            unsigned v = vr();
            bool neg = (rng.nextU16() & 1) != 0;
            p.word.writeVrFromRl(m, v, neg);
            p.scalar.writeVrFromRl(m, v, neg);
            break;
          }
          case 8: {
            uint16_t m = mask();
            bool val = (rng.nextU16() & 1) != 0;
            p.word.rlFromImmediate(m, val);
            p.scalar.rlFromImmediate(m, val);
            break;
          }
          case 9: {
            uint16_t m = mask();
            p.word.loadGhlFromRl(m);
            p.scalar.loadGhlFromRl(m);
            break;
          }
          default: {
            uint16_t m = mask();
            p.word.loadGvlFromRl(m);
            p.scalar.loadGvlFromRl(m);
            break;
          }
        }
        if (step % 16 == 0)
            p.expectIdentical("mid-sequence");
        if (::testing::Test::HasFatalFailure())
            return;
    }
    p.expectIdentical("final");
}

} // namespace

// ---- BitProcArray: word path == scalar reference ------------------------

TEST(WordParallelBitProc, RandomOpsWordAligned)
{
    // 256 elems / 4 banks: 64 columns per bank, bank edges exactly
    // on 64-bit word boundaries.
    BpPair p(8, 256, 4, /*seed=*/101);
    runRandomOps(p, 202, 400);
}

TEST(WordParallelBitProc, RandomOpsRaggedMidWordBanks)
{
    // 100 elems / 4 banks: 25 columns per bank — every bank edge
    // falls mid-word and the plane has a 36-bit ragged tail word.
    BpPair p(8, 100, 4, 303);
    runRandomOps(p, 404, 400);
}

TEST(WordParallelBitProc, RandomOpsBankSpanningWords)
{
    // 130 elems / 2 banks: 65 columns per bank — banks span a word
    // boundary, exercising cross-word E/W shift carries.
    BpPair p(8, 130, 2, 505);
    runRandomOps(p, 606, 400);
}

TEST(WordParallelBitProc, AllSingleSliceMasksAllLatchSrcs)
{
    // Directed sweep: every single-slice mask crossed with every
    // latch source, on the ragged geometry.
    BpPair p(8, 100, 4, 707);
    for (unsigned s = 0; s < 16; ++s) {
        uint16_t m = static_cast<uint16_t>(1u << s);
        p.word.rlFromVr(m, s % 8);
        p.scalar.rlFromVr(m, s % 8);
        p.word.loadGhlFromRl(m);
        p.scalar.loadGhlFromRl(m);
        p.word.loadGvlFromRl(m);
        p.scalar.loadGvlFromRl(m);
        for (LatchSrc src : kLatchSrcs) {
            p.word.rlOpLatch(m, BoolOp::Or, src);
            p.scalar.rlOpLatch(m, BoolOp::Or, src);
        }
        p.word.writeVrFromRl(m, (s + 1) % 8, s % 2 == 0);
        p.scalar.writeVrFromRl(m, (s + 1) % 8, s % 2 == 0);
        p.expectIdentical("slice sweep");
        if (::testing::Test::HasFatalFailure())
            return;
    }
}

TEST(WordParallelBitProc, GhlBroadcastRaggedTail)
{
    // GHL semantics on a ragged geometry: a single set column in
    // bank 2 must broadcast to exactly bank 2's 25 columns (50..74)
    // and nowhere else — the word-granular broadcast must not bleed
    // across the mid-word bank edges.
    VrFile vrs(8, 100, 4);
    BitProcArray bp(vrs);
    vrs[0][60] = 0x0001; // slice 0, bank 2 only
    bp.rlFromVr(1, 0);
    bp.loadGhlFromRl(1);
    for (unsigned b = 0; b < 4; ++b)
        EXPECT_EQ(bp.ghlBit(b, 0), b == 2) << "bank " << b;
    bp.rlFromLatch(1, LatchSrc::GHL);
    const BitVector &rl = bp.rlPlane(0);
    for (size_t i = 0; i < 100; ++i)
        EXPECT_EQ(rl.get(i), i >= 50 && i < 75) << "col " << i;
}

TEST(WordParallelBitProc, BankEdgeShiftsZeroFill)
{
    // E/W neighbour reads must zero-fill at every bank's edge
    // columns, including mid-word edges (cols 0/25/50/75 for W,
    // 24/49/74/99 for E).
    VrFile vrs(8, 100, 4);
    BitProcArray bp(vrs);
    for (size_t i = 0; i < 100; ++i)
        vrs[0][i] = 0x0001;
    bp.rlFromVr(1, 0);
    bp.rlFromLatch(1, LatchSrc::RL_W);
    for (size_t i = 0; i < 100; ++i)
        EXPECT_EQ(bp.rlPlane(0).get(i), i % 25 != 0) << "W col " << i;
    bp.rlFromVr(1, 0);
    bp.rlFromLatch(1, LatchSrc::RL_E);
    for (size_t i = 0; i < 100; ++i)
        EXPECT_EQ(bp.rlPlane(0).get(i), i % 25 != 24)
            << "E col " << i;
}

TEST(WordParallelBitProcDeath, NonDividingLengthRefused)
{
    // The word-parallel bank-edge masks rely on every bank owning a
    // full complement of columns; a non-dividing length must be
    // refused at construction, not silently mis-masked.
    EXPECT_DEATH(VrFile(8, 101, 4), "");
}

// ---- VrFile: multi-plane fast paths == per-slice reference --------------

TEST(WordParallelVrFile, SlicePlanesMatchPerSliceExtraction)
{
    for (size_t len : {256u, 100u, 130u}) {
        VrFile vrs(4, len, 2);
        Rng rng(42 + len);
        for (auto &v : vrs[1])
            v = rng.nextU16();
        for (uint16_t mask :
             {uint16_t{0xffff}, uint16_t{0x0001}, uint16_t{0x8000},
              uint16_t{0x5a5a}, uint16_t{0x0300}}) {
            std::array<BitVector, 16> fast;
            for (auto &p : fast)
                p = BitVector(len);
            vrs.slicePlanes(1, mask, fast);
            for (unsigned s = 0; s < 16; ++s) {
                if (!(mask & (1u << s)))
                    continue;
                ASSERT_TRUE(fast[s] == vrs.slicePlane(1, s))
                    << "len " << len << " mask " << mask
                    << " slice " << s;
            }
        }
    }
}

TEST(WordParallelVrFile, SlicePlanesAndMatchesPlaneAnd)
{
    VrFile vrs(4, 130, 2);
    Rng rng(77);
    for (auto &v : vrs[0])
        v = rng.nextU16();
    for (auto &v : vrs[1])
        v = rng.nextU16();
    std::array<BitVector, 16> fused;
    for (auto &p : fused)
        p = BitVector(vrs.length());
    vrs.slicePlanesAnd(0, 1, 0xffff, fused);
    for (unsigned s = 0; s < 16; ++s) {
        BitVector ref = vrs.slicePlane(0, s);
        ref &= vrs.slicePlane(1, s);
        ASSERT_TRUE(fused[s] == ref) << "slice " << s;
    }
}

TEST(WordParallelVrFile, SetSlicePlanesMatchesPerSliceInsertion)
{
    for (bool negate : {false, true}) {
        VrFile fast(4, 100, 4), ref(4, 100, 4);
        Rng rng(negate ? 88 : 99);
        for (size_t i = 0; i < 100; ++i) {
            uint16_t v = rng.nextU16();
            fast[2][i] = v;
            ref[2][i] = v;
        }
        std::array<BitVector, 16> planes;
        for (auto &p : planes) {
            p = BitVector(100);
            for (size_t i = 0; i < 100; ++i)
                p.set(i, (rng.nextU16() & 1) != 0);
        }
        const uint16_t mask = 0x7e81; // mixed set/clear slices
        fast.setSlicePlanes(2, mask, planes, negate);
        for (unsigned s = 0; s < 16; ++s) {
            if (!(mask & (1u << s)))
                continue;
            BitVector p = planes[s];
            if (negate)
                p.invert();
            ref.setSlicePlane(2, s, p);
        }
        for (size_t i = 0; i < 100; ++i)
            ASSERT_EQ(fast[2][i], ref[2][i])
                << "negate " << negate << " elem " << i;
    }
}

// ---- Microcode plan cache: replay == direct emission --------------------

namespace {

struct McFixture
{
    McFixture() : vrs(8, 512, 4), bp(vrs) {}

    void
    randomize(unsigned vr, uint64_t seed)
    {
        Rng rng(seed);
        for (auto &v : vrs[vr])
            v = rng.nextU16();
    }

    VrFile vrs;
    BitProcArray bp;
};

} // namespace

TEST(McPlanCache, ReplayedPlansAreBitIdentical)
{
    mcPlanCacheClear();
    auto stats0 = mcPlanCacheStats();
    EXPECT_EQ(stats0.hits, 0u);
    EXPECT_EQ(stats0.misses, 0u);

    // Cold run records each plan; a second identically seeded
    // fixture replays it. VR state and uop counts must match
    // exactly, for every routine.
    struct Case
    {
        const char *name;
        uint64_t (*run)(BitProcArray &);
    };
    const Case cases[] = {
        {"add", [](BitProcArray &bp) {
             return mcAddU16(bp, 2, 0, 1, 5, 6, 7);
         }},
        {"xor", [](BitProcArray &bp) {
             return mcXor16(bp, 3, 0, 1, 5);
         }},
        {"allbits", [](BitProcArray &bp) {
             return mcAllBitsSet(bp, 4, 0);
         }},
        {"sub", [](BitProcArray &bp) {
             return mcSubU16(bp, 2, 0, 1, 4, 5, 6, 7);
         }},
        {"mul", [](BitProcArray &bp) {
             return mcMulU16(bp, 2, 0, 1, 3, 4, 5, 6, 7);
         }},
    };
    uint64_t expectedMisses = 0;
    for (const auto &c : cases) {
        McFixture cold, warm;
        for (unsigned vr : {0u, 1u}) {
            cold.randomize(vr, 1000 + vr);
            warm.randomize(vr, 1000 + vr);
        }
        uint64_t uopsCold = c.run(cold.bp);
        // mcMulU16's emitter inlines the adder, so one plan covers
        // the whole routine: exactly one miss per distinct key.
        ++expectedMisses;
        uint64_t uopsWarm = c.run(warm.bp);
        EXPECT_EQ(uopsCold, uopsWarm) << c.name;
        EXPECT_EQ(cold.bp.uopCount(), warm.bp.uopCount()) << c.name;
        for (unsigned vr = 0; vr < 8; ++vr)
            for (size_t i = 0; i < cold.vrs.length(); ++i)
                ASSERT_EQ(cold.vrs[vr][i], warm.vrs[vr][i])
                    << c.name << " VR " << vr << " elem " << i;
    }
    auto stats1 = mcPlanCacheStats();
    EXPECT_EQ(stats1.misses, expectedMisses);
    EXPECT_EQ(stats1.hits, expectedMisses);
}

TEST(McPlanCache, DistinctArgsGetDistinctPlans)
{
    mcPlanCacheClear();
    McFixture f;
    f.randomize(0, 7);
    f.randomize(1, 8);
    mcAddU16(f.bp, 2, 0, 1, 5, 6, 7);
    mcAddU16(f.bp, 3, 0, 1, 5, 6, 7); // different dst -> new plan
    auto stats = mcPlanCacheStats();
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 0u);
    // Both plans still compute a + b.
    for (size_t i = 0; i < f.vrs.length(); ++i) {
        uint16_t want =
            static_cast<uint16_t>(f.vrs[0][i] + f.vrs[1][i]);
        ASSERT_EQ(f.vrs[2][i], want) << i;
        ASSERT_EQ(f.vrs[3][i], want) << i;
    }
}

// ---- Associative max/min: single-pass scan == brute force ---------------

TEST(WordParallelReduce, MaxMinIndexMatchBruteForce)
{
    ApuDevice dev;
    Gvml g(dev.core(0));
    auto &v = g.data(Vr(1));
    for (uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        for (auto &e : v)
            e = rng.nextU16() & 0x0fff; // force duplicate extrema
        auto mx = g.maxIndexU16(Vr(1));
        auto mn = g.minIndexU16(Vr(1));
        uint16_t wantMax = v[0], wantMin = v[0];
        size_t wantMaxIdx = 0, wantMinIdx = 0;
        for (size_t i = 1; i < v.size(); ++i) {
            if (v[i] > wantMax) {
                wantMax = v[i];
                wantMaxIdx = i;
            }
            if (v[i] < wantMin) {
                wantMin = v[i];
                wantMinIdx = i;
            }
        }
        EXPECT_EQ(mx.value, wantMax) << "seed " << seed;
        EXPECT_EQ(mx.index, wantMaxIdx) << "seed " << seed;
        EXPECT_EQ(mn.value, wantMin) << "seed " << seed;
        EXPECT_EQ(mn.index, wantMinIdx) << "seed " << seed;
    }
    // All-equal vector: first index wins.
    std::fill(v.begin(), v.end(), uint16_t{0x1234});
    EXPECT_EQ(g.maxIndexU16(Vr(1)).index, 0u);
    EXPECT_EQ(g.minIndexU16(Vr(1)).index, 0u);
}

TEST(WordParallelReduce, MaxIndexChargeIsDataIndependent)
{
    // The associative search always walks all 16 bit planes; the
    // single-pass functional scan must charge exactly the same
    // cycles whatever the data.
    ApuDevice dev;
    auto run = [&](unsigned core, uint16_t fill) {
        Gvml g(dev.core(core));
        auto &v = g.data(Vr(1));
        std::fill(v.begin(), v.end(), fill);
        double before = dev.core(core).stats().cycles();
        g.maxIndexU16(Vr(1));
        return dev.core(core).stats().cycles() - before;
    };
    double a = run(0, 0x0000);
    double b = run(1, 0xffff);
    EXPECT_GT(a, 0.0);
    EXPECT_DOUBLE_EQ(a, b);
}

// ---- Fused MAC: one pass == the unfused op triple -----------------------

namespace {

/**
 * Copy core 0's VR and VMR contents onto core `dst` of the same
 * device, materialized there; core 0's lane extents are left as they
 * are.
 */
void
mirrorVrs(ApuDevice &dev, unsigned dst)
{
    ApuCore &from = dev.core(0), &to = dev.core(dst);
    auto copy = [](const LaneVector &src, std::vector<uint16_t> &out) {
        for (size_t i = 0; i < out.size(); ++i)
            out[i] = src.lane(i);
    };
    for (unsigned vr = 0; vr < from.vr().numVrs(); ++vr)
        copy(from.vr().lanes(vr), to.vr()[vr]);
    for (unsigned m = 0; m < from.l1().numVmrs(); ++m)
        copy(from.l1().lanes(m), to.l1().slot(m));
}

} // namespace

TEST(FusedMac, S16MatchesUnfusedTriple)
{
    for (ExecMode mode :
         {ExecMode::Functional, ExecMode::TimingOnly}) {
        ApuDevice dev;
        dev.core(0).setMode(mode);
        dev.core(1).setMode(mode);
        Gvml fused(dev.core(0));
        Gvml plain(dev.core(1));
        Rng rng(314);
        for (unsigned vr : {0u, 8u, 9u, 10u})
            for (auto &e : fused.data(Vr(vr)))
                e = rng.nextU16();
        mirrorVrs(dev, 1);

        const Vr emb{0}, q{1}, t{2};
        const Vr accs[3] = {Vr(8), Vr(9), Vr(10)};
        const uint16_t imms[3] = {0x0003, 0xfffe, 0x7f01};

        double c0 = dev.core(0).stats().cycles();
        double u0 = dev.core(0).stats().uops();
        fused.macImmS16(emb, q, t, accs, imms, 3);
        double fusedCycles = dev.core(0).stats().cycles() - c0;
        double fusedUops = dev.core(0).stats().uops() - u0;

        double c1 = dev.core(1).stats().cycles();
        double u1 = dev.core(1).stats().uops();
        for (size_t i = 0; i < 3; ++i) {
            plain.cpyImm16(q, imms[i]);
            plain.mulS16(t, emb, q);
            plain.addS16(accs[i], accs[i], t);
        }
        double plainCycles = dev.core(1).stats().cycles() - c1;
        double plainUops = dev.core(1).stats().uops() - u1;

        EXPECT_DOUBLE_EQ(fusedCycles, plainCycles)
            << "mode " << static_cast<int>(mode);
        EXPECT_DOUBLE_EQ(fusedUops, plainUops)
            << "mode " << static_cast<int>(mode);
        for (unsigned vr = 0; vr < dev.core(0).vr().numVrs(); ++vr)
            ASSERT_EQ(fused.data(Vr(vr)), plain.data(Vr(vr)))
                << "mode " << static_cast<int>(mode) << " VR " << vr;
    }
}

TEST(FusedMac, Gf16MatchesUnfusedTriple)
{
    ApuDevice dev;
    Gvml fused(dev.core(0));
    Gvml plain(dev.core(1));
    Rng rng(2718);
    for (unsigned vr : {0u, 8u})
        for (auto &e : fused.data(Vr(vr)))
            e = rng.nextU16();
    mirrorVrs(dev, 1);

    const Vr emb{0}, q{1}, t{2}, acc{8};
    const uint16_t imm =
        GsiFloat16::fromFloat(-1.75f).bits();

    double c0 = dev.core(0).stats().cycles();
    fused.macImmGf16(emb, q, t, acc, imm);
    double fusedCycles = dev.core(0).stats().cycles() - c0;

    double c1 = dev.core(1).stats().cycles();
    plain.cpyImm16(q, imm);
    plain.mulGf16(t, emb, q);
    plain.addGf16(acc, acc, t);
    double plainCycles = dev.core(1).stats().cycles() - c1;

    EXPECT_DOUBLE_EQ(fusedCycles, plainCycles);
    for (unsigned vr = 0; vr < dev.core(0).vr().numVrs(); ++vr)
        ASSERT_EQ(fused.data(Vr(vr)), plain.data(Vr(vr)))
            << "VR " << vr;
}

// ---- Plane loop: one charge pass and one lane pass == per plane ---------

namespace {

/**
 * Give core 0's VRs and VMRs random heads of assorted extents and
 * random tails, and core 1 the same, extents included.
 */
void
randomTwinCores(ApuDevice &dev, Rng &rng)
{
    ApuCore &a = dev.core(0), &b = dev.core(1);
    const size_t his[] = {0, 5, 1000, a.vr().length()};
    size_t k = 0;
    auto fill = [&](LaneVector &x, LaneVector &y) {
        size_t hi = his[k++ % std::size(his)];
        for (size_t i = 0; i < hi; ++i)
            x.head()[i] = y.head()[i] = rng.nextU16();
        uint16_t tail = rng.nextU16();
        x.setExtent(hi, tail);
        y.setExtent(hi, tail);
    };
    for (unsigned vr = 0; vr < a.vr().numVrs(); ++vr)
        fill(a.vr().lanes(vr), b.vr().lanes(vr));
    for (unsigned m = 0; m < a.l1().numVmrs(); ++m)
        fill(a.l1().lanes(m), b.l1().lanes(m));
}

/**
 * Cores 0 and 1 hold the same cycles and uops, and every VR and VMR
 * the same extent and the same lanes.
 */
void
expectTwinCores(ApuDevice &dev)
{
    ApuCore &a = dev.core(0), &b = dev.core(1);
    EXPECT_EQ(a.stats().cycles(), b.stats().cycles());
    EXPECT_EQ(a.stats().uops(), b.stats().uops());
    auto same = [](const LaneVector &x, const LaneVector &y,
                   const char *file, unsigned reg) {
        ASSERT_EQ(x.hi(), y.hi()) << file << " " << reg;
        ASSERT_EQ(x.tail(), y.tail()) << file << " " << reg;
        ASSERT_EQ(x.full(), y.full()) << file << " " << reg;
    };
    for (unsigned vr = 0; vr < a.vr().numVrs(); ++vr)
        same(a.vr().lanes(vr), b.vr().lanes(vr), "VR", vr);
    for (unsigned m = 0; m < a.l1().numVmrs(); ++m)
        same(a.l1().lanes(m), b.l1().lanes(m), "VMR", m);
}

} // namespace

TEST(FusedMac, PlaneRunMatchesThePerPlaneLoop)
{
    // kernels::macPlanes (the plane loop charged once under a repeat
    // of dim, then its lanes in one pass over the planes in place in
    // L4) on core 0 against the per-plane sequence it stands for
    // (ingest, load16, macImmS16 per plane) on core 1, from the same
    // staged planes and registers. The planes start 512 bytes before
    // a 64 KiB DeviceDram page, as compact staging aligns only to 512
    // bytes, so planes of 7, 1 000 and 32 768 rows straddle a page.
    constexpr size_t dim = 40;
    constexpr uint64_t ingest = 37;
    const uint64_t base = 3 * DeviceDram::pageBytes - 512;
    const Vmr stage{0};
    const Vr emb{0}, sq{1}, st{2};
    const Vr batchAccs[8] = {Vr(8),  Vr(9),  Vr(10), Vr(11),
                             Vr(12), Vr(13), Vr(14), Vr(15)};
    const Vr temporalAcc[1] = {Vr(3)}; // retrieveTemporal's vrAcc
    struct Case
    {
        size_t nq;
        const Vr *accs;
        size_t valid;
        bool clear; ///< zero the accumulators first, as the scan does
    };
    std::vector<Case> cases;
    for (size_t valid : {1, 7, 8, 1000, 32768})
        for (size_t nq : {1, 3, 8})
            cases.push_back({nq, batchAccs, valid, true});
    cases.push_back({1, temporalAcc, 1000, true});
    // Accumulators of random extents: each ends at the largest of the
    // plane's and the earlier accumulators' extents.
    cases.push_back({3, batchAccs, 1000, false});

    for (const Case &c : cases) {
        SCOPED_TRACE(testing::Message()
                     << "b" << c.nq << " valid " << c.valid
                     << (c.clear ? "" : " uncleared")
                     << (c.accs == temporalAcc ? " temporal" : ""));
        ApuDevice dev;
        Rng rng(c.valid * 16 + c.nq);
        std::vector<uint16_t> planes(dim * c.valid), imms(dim * c.nq);
        for (auto &x : planes)
            x = rng.nextU16();
        for (auto &x : imms)
            x = rng.nextU16();
        dev.l4().write(base, planes.data(), planes.size() * 2);
        randomTwinCores(dev, rng);
        Gvml g0(dev.core(0)), g1(dev.core(1));
        for (size_t q = 0; c.clear && q < c.nq; ++q) {
            g0.cpyImm16(c.accs[q], 0);
            g1.cpyImm16(c.accs[q], 0);
        }

        kernels::macPlanes(dev.core(0), ingest, stage, emb, sq, st,
                           c.accs, c.nq, imms.data(), base, c.valid, dim);

        ApuCore &ref = dev.core(1);
        for (size_t d = 0; d < dim; ++d) {
            ref.chargeRaw(ingest);
            LaneVector &slot = ref.l1().lanes(stage.idx);
            dev.l4().read(base + 2 * d * c.valid, slot.head(), 2 * c.valid);
            slot.setExtent(c.valid, 0);
            g1.load16(emb, stage);
            g1.macImmS16(emb, sq, st, c.accs, imms.data() + d * c.nq, c.nq);
        }

        if (c.clear) {
            // The loop's end state in closed form: accs[q] += sum of
            // plane d x imm (u16 wrap), stage and emb hold the last
            // plane, sq the last immediate and st the last product.
            ApuCore &core = dev.core(0);
            const uint16_t *last = planes.data() + (dim - 1) * c.valid;
            const uint16_t w = imms.back();
            for (size_t q = 0; q < c.nq; ++q) {
                const LaneVector &a = core.vr().lanes(c.accs[q].idx);
                ASSERT_EQ(a.hi(), c.valid);
                ASSERT_EQ(a.tail(), 0);
                for (size_t i = 0; i < c.valid; ++i) {
                    uint32_t sum = 0;
                    for (size_t d = 0; d < dim; ++d)
                        sum += uint32_t{planes[d * c.valid + i]} *
                            imms[d * c.nq + q];
                    ASSERT_EQ(a.lane(i), static_cast<uint16_t>(sum))
                        << "acc " << q << " lane " << i;
                }
            }
            for (const LaneVector *v :
                 {&core.l1().lanes(stage.idx), &core.vr().lanes(emb.idx)}) {
                ASSERT_EQ(v->hi(), c.valid);
                ASSERT_EQ(v->tail(), 0);
                ASSERT_TRUE(std::equal(last, last + c.valid, v->head()));
            }
            const LaneVector &vq = core.vr().lanes(sq.idx);
            EXPECT_EQ(vq.hi(), 0u);
            EXPECT_EQ(vq.tail(), w);
            const LaneVector &vt = core.vr().lanes(st.idx);
            ASSERT_EQ(vt.hi(), c.valid);
            EXPECT_EQ(vt.tail(), 0);
            for (size_t i = 0; i < c.valid; ++i)
                ASSERT_EQ(vt.lane(i),
                          static_cast<uint16_t>(uint32_t{last[i]} * w))
                    << "lane " << i;
        }
        expectTwinCores(dev);
    }
}

// ---- Lane extents: extent-aware ops == full-width evaluation ------------

namespace {

constexpr size_t kLanes = 32768;

/** Extents the registers cycle through, empty to full. */
constexpr size_t kHis[] = {0, 1, 63, 64, 1000, kLanes - 1, kLanes};

/** VRs 20..23 hold 0/1 marks; every other register any u16. */
bool
isMark(unsigned vr)
{
    return vr >= 20;
}

/**
 * Give every VR and VMR of `core` a random head, of an extent from
 * kHis rotated by `round`, and a random tail.
 */
void
randomExtents(ApuCore &core, Rng &rng, size_t round)
{
    auto fill = [&](LaneVector &v, size_t k, bool mark) {
        auto draw = [&] {
            uint16_t x = rng.nextU16();
            return mark ? static_cast<uint16_t>(x & 1) : x;
        };
        size_t hi = kHis[k % std::size(kHis)];
        for (size_t i = 0; i < hi; ++i)
            v.head()[i] = draw();
        v.setExtent(hi, draw());
    };
    for (unsigned vr = 0; vr < core.vr().numVrs(); ++vr)
        fill(core.vr().lanes(vr), vr + round, isMark(vr));
    for (unsigned m = 0; m < core.l1().numVmrs(); ++m)
        fill(core.l1().lanes(m), m + round, false);
}

/** Materialize every VR and VMR of `core`. */
void
materialize(ApuCore &core)
{
    for (unsigned vr = 0; vr < core.vr().numVrs(); ++vr)
        core.vr()[vr];
    for (unsigned m = 0; m < core.l1().numVmrs(); ++m)
        core.l1().slot(m);
}

/** Cores 0 and 1 hold the same VRs and VMRs, cycles and uops. */
void
expectSameCores(ApuDevice &dev, const std::string &what)
{
    ApuCore &a = dev.core(0), &b = dev.core(1);
    EXPECT_EQ(a.stats().cycles(), b.stats().cycles()) << what;
    EXPECT_EQ(a.stats().uops(), b.stats().uops()) << what;
    for (unsigned vr = 0; vr < a.vr().numVrs(); ++vr)
        ASSERT_EQ(a.vr()[vr], b.vr()[vr]) << what << " VR " << vr;
    for (unsigned m = 0; m < a.l1().numVmrs(); ++m)
        ASSERT_EQ(a.l1().slot(m), b.l1().slot(m)) << what << " VMR " << m;
}

/** One op under test; returns its scalar result, or 0. */
using ExtentOp = std::function<uint64_t(Gvml &)>;

/**
 * An op and what it is called. `uniform`, when set, names a VR that
 * core 0 holds uniform (an empty head) before the op; unless the op
 * writes that VR (`writesUniform`), it still holds it uniform after:
 * an op reads a uniform operand as a scalar and never widens it.
 */
struct ExtentCase
{
    std::string what;
    ExtentOp op;
    int uniform = -1;
    bool writesUniform = false;
};

uint64_t
packed(Gvml::MaxResult r)
{
    return static_cast<uint64_t>(r.value) << 32 | r.index;
}

/**
 * Run `op` on core 0, whose registers hold random heads and tails,
 * and on core 1, which holds the same contents materialized, once
 * per rotation of kHis over the registers.
 */
void
expectExtentIdentity(const ExtentCase &c)
{
    ApuDevice dev;
    for (size_t round = 0; round < std::size(kHis); ++round) {
        Rng rng(1000 + round);
        randomExtents(dev.core(0), rng, round);
        if (c.uniform >= 0) {
            LaneVector &u = dev.core(0).vr().lanes(c.uniform);
            u.setExtent(0, u.tail());
        }
        mirrorVrs(dev, 1);
        Gvml g0(dev.core(0)), g1(dev.core(1));
        uint64_t r0 = c.op(g0);
        uint64_t r1 = c.op(g1);
        std::string where = c.what + " round " + std::to_string(round);
        if (c.uniform >= 0 && !c.writesUniform) {
            // Before expectSameCores, which materializes every VR.
            EXPECT_EQ(dev.core(0).vr().lanes(c.uniform).hi(), 0u)
                << where << ": the uniform operand was widened";
        }
        EXPECT_EQ(r0, r1) << where;
        expectSameCores(dev, where);
    }
}

} // namespace

TEST(LaneExtent, ExtentAwareOpsMatchFullWidth)
{
    const uint16_t gf = GsiFloat16::fromFloat(-1.75f).bits();
    const std::vector<ExtentCase> ops = {
        {"cpyImm16", [](Gvml &g) { g.cpyImm16(Vr(0), 0xbeef); return 0; }},
        {"cpy16", [](Gvml &g) { g.cpy16(Vr(0), Vr(1)); return 0; }},
        {"xor16", [](Gvml &g) { g.xor16(Vr(0), Vr(1), Vr(2)); return 0; }},
        {"xor16 dst = a",
         [](Gvml &g) { g.xor16(Vr(1), Vr(1), Vr(2)); return 0; }},
        {"addS16 dst = b",
         [](Gvml &g) { g.addS16(Vr(2), Vr(1), Vr(2)); return 0; }},
        {"mulS16", [](Gvml &g) { g.mulS16(Vr(0), Vr(3), Vr(4)); return 0; }},
        // One operand uniform, the other stored (Opt1's broadcast
        // query scalar times an embedding plane); subS16 does not
        // commute, so a swapped scalar shows.
        {"subS16 a uniform",
         [](Gvml &g) { g.subS16(Vr(0), Vr(7), Vr(3)); return 0; }, 7},
        {"subS16 b uniform",
         [](Gvml &g) { g.subS16(Vr(0), Vr(3), Vr(7)); return 0; }, 7},
        {"subS16 dst = a, b uniform",
         [](Gvml &g) { g.subS16(Vr(3), Vr(3), Vr(7)); return 0; }, 7},
        {"mulS16 dst = b uniform",
         [](Gvml &g) { g.mulS16(Vr(7), Vr(3), Vr(7)); return 0; }, 7,
         true},
        {"subS16 dst = a uniform",
         [](Gvml &g) { g.subS16(Vr(7), Vr(7), Vr(3)); return 0; }, 7,
         true},
        {"divU16", [](Gvml &g) { g.divU16(Vr(0), Vr(3), Vr(4)); return 0; }},
        {"gtU16", [](Gvml &g) { g.gtU16(Vr(0), Vr(5), Vr(6)); return 0; }},
        {"not16", [](Gvml &g) { g.not16(Vr(0), Vr(1)); return 0; }},
        {"srImm16 dst = a",
         [](Gvml &g) { g.srImm16(Vr(1), Vr(1), 3); return 0; }},
        {"ashImm16", [](Gvml &g) { g.ashImm16(Vr(0), Vr(1), -2); return 0; }},
        {"addU16Msk",
         [](Gvml &g) {
             g.addU16Msk(Vr(0), Vr(1), Vr(2), Vr(20));
             return 0;
         }},
        {"cpy16Msk",
         [](Gvml &g) { g.cpy16Msk(Vr(0), Vr(1), Vr(21)); return 0; }},
        {"cpyImm16Msk",
         [](Gvml &g) { g.cpyImm16Msk(Vr(0), 7, Vr(22)); return 0; }},
        {"cpyImm16Nmsk",
         [](Gvml &g) { g.cpyImm16Nmsk(Vr(0), 7, Vr(23)); return 0; }},
        {"macImmS16",
         [](Gvml &g) {
             const Vr accs[3] = {Vr(8), Vr(9), Vr(10)};
             const uint16_t imms[3] = {0x0003, 0xfffe, 0x7f01};
             g.macImmS16(Vr(0), Vr(1), Vr(2), accs, imms, 3);
             return 0;
         }},
        {"macImmGf16",
         [gf](Gvml &g) {
             g.macImmGf16(Vr(0), Vr(1), Vr(2), Vr(8), gf);
             return 0;
         }},
        {"maxIndexU16",
         [](Gvml &g) { return packed(g.maxIndexU16(Vr(3))); }},
        {"minIndexU16",
         [](Gvml &g) { return packed(g.minIndexU16(Vr(4))); }},
        {"rspGet",
         [](Gvml &g) {
             return uint64_t{g.core().rspGet(5, 62)} << 16 |
                 g.core().rspGet(5, 1003);
         }},
        {"rspSet",
         [](Gvml &g) { g.core().rspSet(6, 1005, 0x4242); return 0; }},
        {"cpySubgrp16Grp uniform",
         [](Gvml &g) {
             g.cpySubgrp16Grp(Vr(0), Vr(1), kLanes, 1, 70);
             return 0;
         }},
        {"cpySubgrp16Grp head-limited",
         [](Gvml &g) {
             g.cpySubgrp16Grp(Vr(0), Vr(1), 64, 16, 2);
             return 0;
         }},
        {"cpySubgrp16Grp dst = src",
         [](Gvml &g) {
             g.cpySubgrp16Grp(Vr(1), Vr(1), 1024, 128, 3);
             return 0;
         }},
        {"addSubgrpS16",
         [](Gvml &g) { g.addSubgrpS16(Vr(0), Vr(1), 512, 1); return 0; }},
        {"addSubgrpS16 dst = src",
         [](Gvml &g) { g.addSubgrpS16(Vr(1), Vr(1), 1024, 8); return 0; }},
        {"load16", [](Gvml &g) { g.load16(Vr(0), Vmr(3)); return 0; }},
        {"store16 then load16",
         [](Gvml &g) {
             g.store16(Vmr(5), Vr(1));
             g.load16(Vr(0), Vmr(5));
             return 0;
         }},
    };
    for (const ExtentCase &c : ops)
        expectExtentIdentity(c);
}

TEST(LaneExtent, MaxIndexPicksTheTailOnlyWhenStrictlyBetter)
{
    ApuDevice dev;
    Gvml g(dev.core(0));
    LaneVector &v = dev.core(0).vr().lanes(1);
    struct Case
    {
        size_t hi;
        uint16_t tail;
        uint16_t value;
        size_t index;
    };
    const Case cases[] = {
        {1000, 0x2001, 0x2001, 1000}, // the tail beats the head
        {1000, 0x2000, 0x2000, 500},  // a tie: the head's lane wins
        {1000, 0x1fff, 0x2000, 500},
        {0, 0x0042, 0x0042, 0},            // no head: the tail
        {kLanes, 0xffff, 0x2000, 500},     // no tail lanes
    };
    for (const Case &c : cases) {
        for (size_t i = 0; i < c.hi; ++i)
            v.head()[i] = static_cast<uint16_t>((i * 7) & 0x0fff);
        if (c.hi > 500)
            v.head()[500] = 0x2000;
        v.setExtent(c.hi, c.tail);
        auto mx = g.maxIndexU16(Vr(1));
        EXPECT_EQ(mx.value, c.value) << "hi " << c.hi << " tail " << c.tail;
        EXPECT_EQ(mx.index, c.index) << "hi " << c.hi << " tail " << c.tail;
        const auto &full = dev.core(0).vr()[1]; // materializes
        auto it = std::max_element(full.begin(), full.end());
        EXPECT_EQ(*it, c.value);
        EXPECT_EQ(static_cast<size_t>(it - full.begin()), c.index);
    }
}

TEST(LaneExtent, RaggedSupertileScanMatchesFullWidth)
{
    // One ragged supertile of 1000 rows through the retrieval scan's
    // op sequence: plane ingest (the rows as the slot's head, a zero
    // tail), load16, macImmS16, then the bias xor16, the admit-plane
    // cpyImm16Nmsk and top-5 extraction. Core 0 starts from random
    // heads and tails; core 1 holds the same contents and
    // materializes every register before each op, i.e. evaluates at
    // full width. The two must agree after every op.
    constexpr size_t rows = 1000, dim = 4, k = 5;
    Rng rng(77);
    std::vector<std::vector<uint16_t>> planes(dim + 1,
                                              std::vector<uint16_t>(rows));
    for (size_t d = 0; d < dim; ++d)
        for (auto &x : planes[d])
            x = static_cast<uint16_t>(rng.nextU16() % 15 - 7);
    for (auto &x : planes[dim]) // the admit plane
        x = rng.nextU16() % 4 != 0;

    using Step = std::function<void(ApuCore &, std::vector<uint64_t> &)>;
    std::vector<Step> steps;
    auto op = [&](auto fn) {
        steps.push_back([fn](ApuCore &core, std::vector<uint64_t> &) {
            Gvml g(core);
            fn(g);
        });
    };
    auto ingest = [&](unsigned vmr, const std::vector<uint16_t> &p) {
        steps.push_back([vmr, &p](ApuCore &core, std::vector<uint64_t> &) {
            LaneVector &slot = core.l1().lanes(vmr);
            std::copy(p.begin(), p.end(), slot.head());
            slot.setExtent(p.size(), 0);
        });
    };
    const Vr accs[2] = {Vr(8), Vr(9)};
    op([](Gvml &g) { g.cpyImm16(Vr(4), 0x8000); });
    for (Vr a : accs)
        op([a](Gvml &g) { g.cpyImm16(a, 0); });
    for (size_t d = 0; d < dim; ++d) {
        ingest(0, planes[d]);
        op([](Gvml &g) { g.load16(Vr(0), Vmr(0)); });
        op([d, &accs](Gvml &g) {
            const uint16_t imms[2] = {static_cast<uint16_t>(d + 1),
                                      static_cast<uint16_t>(0xfff0 + d)};
            g.macImmS16(Vr(0), Vr(1), Vr(2), accs, imms, 2);
        });
    }
    ingest(1, planes[dim]);
    op([](Gvml &g) { g.load16(Vr(6), Vmr(1)); });
    for (Vr a : accs) {
        op([a](Gvml &g) { g.xor16(a, a, Vr(4)); });
        op([a](Gvml &g) { g.cpyImm16Nmsk(a, 0x0000, Vr(6)); });
        for (size_t i = 0; i < k; ++i)
            steps.push_back([a](ApuCore &core, std::vector<uint64_t> &w) {
                auto mx = Gvml(core).maxIndexU16(a);
                w.push_back(packed(mx));
                core.rspSet(a.idx, mx.index, 0);
            });
    }

    ApuDevice dev;
    ApuCore &narrow = dev.core(0), &full = dev.core(1);
    Rng init(78);
    randomExtents(narrow, init, 0);
    mirrorVrs(dev, 1);
    std::vector<uint64_t> winners[2];
    for (size_t i = 0; i < steps.size(); ++i) {
        steps[i](narrow, winners[0]);
        materialize(full);
        steps[i](full, winners[1]);
        ASSERT_EQ(winners[0], winners[1]) << "step " << i;
        for (unsigned vr = 0; vr < narrow.vr().numVrs(); ++vr)
            for (size_t l = 0; l < kLanes; ++l)
                ASSERT_EQ(narrow.vr().lanes(vr).lane(l), full.vr()[vr][l])
                    << "step " << i << " VR " << vr << " lane " << l;
        for (unsigned m = 0; m < narrow.l1().numVmrs(); ++m)
            for (size_t l = 0; l < kLanes; ++l)
                ASSERT_EQ(narrow.l1().lanes(m).lane(l), full.l1().slot(m)[l])
                    << "step " << i << " VMR " << m << " lane " << l;
    }
    expectSameCores(dev, "ragged supertile scan");
    for (uint64_t w : winners[0])
        EXPECT_LT(w & 0xffffffffu, rows) << "a padding lane won";
}

// ---- DRAM range-trace cache: warm replay == cold simulation -------------

TEST(DramTraceCache, WarmCallsReplayIdenticalTiming)
{
    // Same call on the same system, then on a fresh system (the
    // cache is process-global): seconds, bandwidth, and counter
    // deltas must all be identical to the first simulation.
    const uint64_t base = 0x1720000, bytes = 3 << 19;
    dram::DramSystem a(dram::hbm2eConfig());
    double t1 = a.streamReadSeconds(base, bytes);
    dram::DramStats d1 = a.stats();
    double bw1 = a.lastEffectiveBandwidth();
    EXPECT_GT(t1, 0.0);

    double t2 = a.streamReadSeconds(base, bytes);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(a.stats().reads, 2 * d1.reads);
    EXPECT_EQ(a.stats().activates, 2 * d1.activates);
    EXPECT_EQ(a.stats().rowHits, 2 * d1.rowHits);
    EXPECT_EQ(a.stats().refreshes, 2 * d1.refreshes);
    EXPECT_EQ(a.lastEffectiveBandwidth(), bw1);

    dram::DramSystem b(dram::hbm2eConfig());
    EXPECT_EQ(b.streamReadSeconds(base, bytes), t1);
    EXPECT_EQ(b.stats().reads, d1.reads);
    EXPECT_EQ(b.stats().rowMisses, d1.rowMisses);
    EXPECT_EQ(b.lastEffectiveBandwidth(), bw1);

    // Writes and strided gathers replay the same way.
    double w1 = a.streamWriteSeconds(base, bytes);
    EXPECT_EQ(a.streamWriteSeconds(base, bytes), w1);
    double s1 = a.stridedReadSeconds(base, 256, 4096, 512);
    EXPECT_EQ(a.stridedReadSeconds(base, 256, 4096, 512), s1);
}

TEST(DramTraceCache, DistinctGeometriesDistinctTimings)
{
    dram::DramSystem sys(dram::hbm2eConfig());
    double t64k = sys.streamReadSeconds(0, 64 * 1024);
    double t128k = sys.streamReadSeconds(0, 128 * 1024);
    EXPECT_GT(t128k, t64k);
    double strided = sys.stridedReadSeconds(0, 256, 8192, 256);
    double dense = sys.streamReadSeconds(0, 256 * 256);
    EXPECT_NE(strided, dense);
}

TEST(DramTraceCache, WarmCallsStillAdvanceFaultState)
{
    // dram_flip:p=1 flips every read burst deterministically, so the
    // ECC ledger's progression is a pure function of the request
    // sequence: first pass corrects one single per burst, second
    // pass over the now-latent codewords detects one uncorrectable
    // double per burst. The second pass is a guaranteed timing-cache
    // hit — if a hit skipped fault injection, the doubles would
    // vanish.
    PlanGuard plan("dram_flip:p=1;seed:5");
    dram::DramSystem sys(dram::hbm2eConfig());
    const uint64_t bytes = 64 * 1024;
    const uint64_t bursts = bytes / sys.config().burstBytes();
    const uint64_t words = sys.config().burstBytes() / 8;

    sys.streamReadSeconds(0, bytes);
    EXPECT_EQ(sys.eccStats().wordsChecked, bursts * words);
    EXPECT_EQ(sys.eccStats().singleCorrected, bursts);
    EXPECT_EQ(sys.eccStats().doubleDetected, 0u);
    EXPECT_EQ(sys.latentSingles(), bursts);
    EXPECT_TRUE(sys.takeFaultStatus().ok());

    sys.streamReadSeconds(0, bytes); // warm in the global cache
    EXPECT_EQ(sys.eccStats().wordsChecked, 2 * bursts * words);
    EXPECT_EQ(sys.eccStats().singleCorrected, bursts);
    EXPECT_EQ(sys.eccStats().doubleDetected, bursts);
    EXPECT_EQ(sys.latentSingles(), 0u);
    EXPECT_FALSE(sys.takeFaultStatus().ok());
}

// ---- Serving admission boundaries (DESIGN.md section 7) -----------------

namespace {

using baseline::genQuery;
using baseline::ragCorpora;
using kernels::BatchPolicy;
using kernels::DeviceServer;
using kernels::ServerConfig;

} // namespace

TEST(ServingAdmissionBoundary, DepthCapShedsAtExactlyTheCap)
{
    const auto &spec = ragCorpora()[0];
    ApuDevice dev;
    ServerConfig cfg;
    cfg.batch = BatchPolicy{4, 100};
    cfg.admission.maxQueueDepth = 3;
    DeviceServer server(dev, spec, 0, nullptr, 1, cfg);
    // depth 0, 1, 2 admit (filling to the cap)...
    for (uint64_t q = 0; q < 3; ++q)
        EXPECT_TRUE(
            server.enqueueAt(q, genQuery(spec.dim, 10 + q),
                             server.busySeconds()).ok())
            << "q " << q;
    // ...and the admission that would exceed it is shed, loudly.
    Status st = server.enqueueAt(3, genQuery(spec.dim, 13),
                                 server.busySeconds());
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::ResourceExhausted);
    server.drain();
}

// ---- Histogram quantile: exact bucket-boundary pin ----------------------

TEST(HistogramQuantileBoundary, ExactBoundaryBelongsToLowerBucket)
{
    // Two samples in the [1, 2) bucket, two in [4, 8). q = 0.5 puts
    // the target exactly on the lower bucket's cumulative count:
    // the quantile must resolve inside the *lower* bucket with
    // interpolation fraction 1 — its upper edge, 2.0 — never a value
    // from the next occupied bucket's [4, 6] range.
    metrics::Histogram h;
    h.observe(1.5);
    h.observe(1.5);
    h.observe(6.0);
    h.observe(6.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 2.0);
    // Infinitesimally past the boundary the quantile jumps into the
    // next bucket (clamped below by its 4.0 lower edge).
    EXPECT_GE(h.quantile(0.500001), 4.0);
    // Interior interpolation still works on both sides.
    EXPECT_DOUBLE_EQ(h.quantile(0.25), 1.75);
    EXPECT_EQ(h.quantile(1.0), 6.0);
    EXPECT_EQ(h.quantile(0.0), 1.5);
}

TEST(HistogramQuantileBoundary, BoundaryClampsToObservedMax)
{
    // When the lower bucket's upper edge exceeds the observed max,
    // the boundary quantile clamps to the max rather than inventing
    // a value never observed.
    metrics::Histogram h;
    h.observe(1.25);
    h.observe(1.25); // max = 1.25 < bucket edge 2.0
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 1.25);
}

// ---- CycleStats identity on the Fig. 12 BMM inputs ---------------------

TEST(WordParallelCycles, BmmFunctionalMatchesTimingOnlyOnFig12Inputs)
{
    // Vectorizing functional evaluation may not move a single
    // modeled cycle: on the bench_fig12_bmm_breakdown shape, a full
    // functional run (word-parallel paths engaged) must charge
    // exactly the per-stage cycles and uops the timing-only run
    // charges (fig12 itself runs TimingOnly).
    const core::BmmShape shape{1024, 1024, 1024};
    for (auto v : {core::BmmVariant::Opt1, core::BmmVariant::AllOpts}) {
        kernels::BmmData data = kernels::genBmmData(shape, 77);

        apu::ApuDevice fdev;
        auto fr = kernels::runBmmApu(fdev, shape, v, &data);

        apu::ApuDevice tdev;
        tdev.core(0).setMode(apu::ExecMode::TimingOnly);
        auto tr = kernels::runBmmApu(tdev, shape, v, nullptr);

        EXPECT_DOUBLE_EQ(fr.cycles.ldLhs, tr.cycles.ldLhs)
            << core::bmmVariantName(v);
        EXPECT_DOUBLE_EQ(fr.cycles.ldRhs, tr.cycles.ldRhs)
            << core::bmmVariantName(v);
        EXPECT_DOUBLE_EQ(fr.cycles.vrOps, tr.cycles.vrOps)
            << core::bmmVariantName(v);
        EXPECT_DOUBLE_EQ(fr.cycles.store, tr.cycles.store)
            << core::bmmVariantName(v);
        EXPECT_DOUBLE_EQ(fr.uops, tr.uops) << core::bmmVariantName(v);

        // And the functional answer is still the right one.
        auto expect = kernels::bmmReference(shape, data);
        ASSERT_EQ(fr.c.size(), expect.size());
        EXPECT_TRUE(std::equal(fr.c.begin(), fr.c.end(),
                               expect.begin()))
            << core::bmmVariantName(v);
    }
}
