/**
 * @file
 * GVML operation tests: every element-wise op against a scalar
 * reference (parameterized property sweep), masked ops, subgroup
 * operations, shifts, reductions, and cost accounting against the
 * paper's Table 5.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <ostream>

#include <gtest/gtest.h>

#include "common/fixedpoint.hh"
#include "common/float16.hh"
#include "common/gsifloat.hh"
#include "common/rng.hh"
#include "gvml/gvml.hh"

using namespace cisram;
using namespace cisram::apu;
using namespace cisram::gvml;

namespace {

struct EwiseCase
{
    const char *name;
    uint64_t cost; // expected Table 5 cycles (0 = unchecked)
    std::function<void(Gvml &, Vr, Vr, Vr)> run;
    std::function<uint16_t(uint16_t, uint16_t)> ref;
};

// ctest names parameterized tests after the printed parameter; print
// the op name so the names do not carry per-process pointer bytes.
void
PrintTo(const EwiseCase &c, std::ostream *os)
{
    *os << c.name;
}

int16_t
s16(uint16_t v)
{
    return static_cast<int16_t>(v);
}

uint16_t
u16(int32_t v)
{
    return static_cast<uint16_t>(v & 0xffff);
}

const EwiseCase ewiseCases[] = {
    {"and_16", 12,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.and16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(x & y); }},
    {"or_16", 8,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.or16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(x | y); }},
    {"xor_16", 12,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.xor16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(x ^ y); }},
    {"add_u16", 12,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.addU16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(x + y); }},
    {"add_s16", 13,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.addS16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(s16(x) + s16(y)); }},
    {"sub_u16", 15,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.subU16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(x - y); }},
    {"sub_s16", 16,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.subS16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(s16(x) - s16(y)); }},
    {"mul_u16", 115,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.mulU16(d, a, b); },
     [](uint16_t x, uint16_t y) {
         return u16(static_cast<int32_t>(
             (static_cast<uint32_t>(x) * y) & 0xffff));
     }},
    {"mul_s16", 201,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.mulS16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(s16(x) * s16(y)); }},
    {"div_u16", 664,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.divU16(d, a, b); },
     [](uint16_t x, uint16_t y) {
         return y == 0 ? uint16_t(0xffff) : u16(x / y);
     }},
    {"eq_16", 13,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.eq16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(x == y ? 1 : 0); }},
    {"gt_u16", 13,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.gtU16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(x > y ? 1 : 0); }},
    {"lt_u16", 13,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.ltU16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(x < y ? 1 : 0); }},
    {"ge_u16", 13,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.geU16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(x >= y ? 1 : 0); }},
    {"le_u16", 13,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.leU16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(x <= y ? 1 : 0); }},
    {"min_u16", 13,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.minU16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(std::min(x, y)); }},
    {"max_u16", 13,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.maxU16(d, a, b); },
     [](uint16_t x, uint16_t y) { return u16(std::max(x, y)); }},
    {"mul_f16", 77,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.mulF16(d, a, b); },
     [](uint16_t x, uint16_t y) {
         return (Float16::fromBits(x) * Float16::fromBits(y)).bits();
     }},
    {"lt_gf16", 45,
     [](Gvml &g, Vr d, Vr a, Vr b) { g.ltGf16(d, a, b); },
     [](uint16_t x, uint16_t y) {
         return u16(GsiFloat16::fromBits(x) < GsiFloat16::fromBits(y)
                        ? 1 : 0);
     }},
};

class EwiseOps : public ::testing::TestWithParam<EwiseCase>
{
};

} // namespace

TEST_P(EwiseOps, MatchesScalarReferenceAndCost)
{
    const auto &c = GetParam();
    ApuDevice dev;
    Gvml g(dev.core(0));
    Rng rng(std::hash<std::string>{}(c.name));

    auto &a = g.data(Vr(1));
    auto &b = g.data(Vr(2));
    for (size_t i = 0; i < a.size(); ++i) {
        a[i] = rng.nextU16();
        b[i] = rng.nextU16();
    }
    // Exercise boundary values explicitly.
    a[0] = 0; b[0] = 0;
    a[1] = 0xffff; b[1] = 0xffff;
    a[2] = 0x8000; b[2] = 0x7fff;
    a[3] = 0x1234; b[3] = 0;

    dev.core(0).stats().reset();
    c.run(g, Vr(0), Vr(1), Vr(2));
    const auto &d = g.data(Vr(0));
    for (size_t i = 0; i < d.size(); ++i)
        ASSERT_EQ(d[i], c.ref(a[i], b[i]))
            << c.name << " at " << i << " a=" << a[i] << " b=" << b[i];

    if (c.cost != 0) {
        // One vector command: documented cost + VCU decode.
        uint64_t decode = dev.timing().control.vcuDecode;
        EXPECT_DOUBLE_EQ(dev.core(0).stats().cycles(),
                         static_cast<double>(c.cost + decode));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Table5, EwiseOps, ::testing::ValuesIn(ewiseCases),
    [](const ::testing::TestParamInfo<EwiseCase> &info) {
        return std::string(info.param.name);
    });

namespace {

class GvmlTest : public ::testing::Test
{
  protected:
    GvmlTest() : g(dev.core(0)) {}

    void
    fillRandom(Vr v, uint64_t seed)
    {
        Rng rng(seed);
        for (auto &x : g.data(v))
            x = rng.nextU16();
    }

    /**
     * A random head of `hi` lanes and a random tail
     * (apusim/lane_vector.hh); returns every lane's logical value.
     */
    std::vector<uint16_t>
    fillExtent(Vr v, size_t hi, uint64_t seed)
    {
        Rng rng(seed);
        LaneVector &lv = dev.core(0).vr().lanes(v.idx);
        for (size_t i = 0; i < hi; ++i)
            lv.head()[i] = rng.nextU16();
        lv.setExtent(hi, rng.nextU16());
        std::vector<uint16_t> all(lv.length());
        for (size_t i = 0; i < all.size(); ++i)
            all[i] = lv.lane(i);
        return all;
    }

    ApuDevice dev;
    Gvml g;
};

/**
 * add_subgrp_s16 as the staged shift-and-add over a full-width copy:
 * each stage adds lane i + step into lane i, for every lane that has
 * one, with step halving from grp/2 down to subgrp.
 */
std::vector<uint16_t>
stagedSubgroupSum(std::vector<uint16_t> work, size_t grp, size_t subgrp)
{
    for (size_t step = grp / 2; step >= subgrp; step /= 2)
        for (size_t i = 0; i + step < work.size(); ++i)
            work[i] = u16(s16(work[i]) + s16(work[i + step]));
    return work;
}

/** Subgroup `which` of each group of `grp` lanes, repeated over it. */
std::vector<uint16_t>
subgroupBroadcast(const std::vector<uint16_t> &src, size_t grp,
                  size_t subgrp, size_t which)
{
    std::vector<uint16_t> out(src.size());
    for (size_t g = 0; g < src.size(); g += grp)
        for (size_t i = 0; i < grp; ++i)
            out[g + i] = src[g + which * subgrp + i % subgrp];
    return out;
}

/** Head extents the every-lane subgroup tests start their source at. */
constexpr size_t kSrcHis[] = {32768, 1000, 0};

/**
 * {cycles, uops} add_subgrp_s16 charges per shape on the default
 * timing, as the staged shift-and-add implementation charged them:
 * row log2(grp) - 1, entry log2(subgrp), for every subgrp < grp <=
 * 32 768.
 */
const std::vector<std::vector<std::pair<uint64_t, uint64_t>>>
    kReduceCharges = {
    {{133, 2}},
    {{270, 4}, {139, 2}},
    {{411, 6}, {282, 4}, {149, 2}},
    {{556, 8}, {429, 6}, {302, 4}, {163, 2}},
    {{705, 10}, {580, 8}, {459, 6}, {330, 4}, {181, 2}},
    {{858, 12}, {735, 10}, {620, 8}, {501, 6}, {366, 4}, {203, 2}},
    {{1015, 14}, {894, 12}, {785, 10}, {676, 8}, {555, 6}, {410, 4},
     {229, 2}},
    {{1176, 16}, {1057, 14}, {954, 12}, {855, 10}, {748, 8}, {621, 6},
     {462, 4}, {259, 2}},
    {{1341, 18}, {1224, 16}, {1127, 14}, {1038, 12}, {945, 10}, {836, 8},
     {699, 6}, {522, 4}, {293, 2}},
    {{1510, 20}, {1395, 18}, {1304, 16}, {1225, 14}, {1146, 12}, {1055, 10},
     {940, 8}, {789, 6}, {590, 4}, {331, 2}},
    {{1683, 22}, {1570, 20}, {1485, 18}, {1416, 16}, {1351, 14}, {1278, 12},
     {1185, 10}, {1060, 8}, {891, 6}, {666, 4}, {373, 2}},
    {{1860, 24}, {1749, 22}, {1670, 20}, {1611, 18}, {1560, 16}, {1505, 14},
     {1434, 12}, {1335, 10}, {1196, 8}, {1005, 6}, {750, 4}, {419, 2}},
    {{2041, 26}, {1932, 24}, {1859, 22}, {1810, 20}, {1773, 18}, {1736, 16},
     {1687, 14}, {1614, 12}, {1505, 10}, {1348, 8}, {1131, 6}, {842, 4},
     {469, 2}},
    {{2226, 28}, {2119, 26}, {2052, 24}, {2013, 22}, {1990, 20}, {1971, 18},
     {1944, 16}, {1897, 14}, {1818, 12}, {1695, 10}, {1516, 8}, {1269, 6},
     {942, 4}, {523, 2}},
    {{2415, 30}, {2310, 28}, {2249, 26}, {2220, 24}, {2211, 22}, {2210, 20},
     {2205, 18}, {2184, 16}, {2135, 14}, {2046, 12}, {1905, 10}, {1700, 8},
     {1419, 6}, {1050, 4}, {581, 2}},
};

} // namespace

TEST_F(GvmlTest, UnaryOps)
{
    fillRandom(Vr(1), 2);
    g.not16(Vr(0), Vr(1));
    g.popcnt16(Vr(2), Vr(1));
    g.srImm16(Vr(3), Vr(1), 3);
    g.slImm16(Vr(4), Vr(1), 2);
    g.recipU16(Vr(5), Vr(1));
    const auto &in = g.data(Vr(1));
    for (size_t i = 0; i < in.size(); ++i) {
        EXPECT_EQ(g.data(Vr(0))[i], static_cast<uint16_t>(~in[i]));
        EXPECT_EQ(g.data(Vr(2))[i], __builtin_popcount(in[i]));
        EXPECT_EQ(g.data(Vr(3))[i], in[i] >> 3);
        EXPECT_EQ(g.data(Vr(4))[i],
                  static_cast<uint16_t>(in[i] << 2));
        EXPECT_EQ(g.data(Vr(5))[i],
                  in[i] == 0 ? 0xffff : 65535 / in[i]);
    }
}

TEST_F(GvmlTest, ArithmeticShiftImmediate)
{
    auto &in = g.data(Vr(1));
    in[0] = static_cast<uint16_t>(-100);
    in[1] = 100;
    in[2] = 0x8000;
    g.ashImm16(Vr(0), Vr(1), -2);
    EXPECT_EQ(static_cast<int16_t>(g.data(Vr(0))[0]), -25);
    EXPECT_EQ(g.data(Vr(0))[1], 25);
    EXPECT_EQ(static_cast<int16_t>(g.data(Vr(0))[2]), -8192);
    g.ashImm16(Vr(0), Vr(1), 1);
    EXPECT_EQ(static_cast<int16_t>(g.data(Vr(0))[0]), -200);
    EXPECT_EQ(g.data(Vr(0))[1], 200);
}

TEST_F(GvmlTest, TrigOps)
{
    auto &phase = g.data(Vr(1));
    for (size_t i = 0; i < phase.size(); ++i)
        phase[i] = static_cast<uint16_t>(i * 2);
    g.sinFx(Vr(0), Vr(1));
    g.cosFx(Vr(2), Vr(1));
    for (size_t i = 0; i < phase.size(); i += 501) {
        EXPECT_EQ(static_cast<int16_t>(g.data(Vr(0))[i]),
                  sinFx(phase[i]));
        EXPECT_EQ(static_cast<int16_t>(g.data(Vr(2))[i]),
                  cosFx(phase[i]));
    }
}

TEST_F(GvmlTest, CopiesAndBroadcasts)
{
    fillRandom(Vr(1), 3);
    g.cpy16(Vr(0), Vr(1));
    EXPECT_EQ(g.data(Vr(0)), g.data(Vr(1)));

    g.cpyImm16(Vr(2), 0xabcd);
    for (uint16_t v : g.data(Vr(2)))
        ASSERT_EQ(v, 0xabcd);
}

TEST_F(GvmlTest, MaskedCopies)
{
    fillRandom(Vr(1), 4);
    g.cpyImm16(Vr(0), 7);
    // Mark even elements.
    auto &mark = g.data(Vr(3));
    for (size_t i = 0; i < mark.size(); ++i)
        mark[i] = (i % 2 == 0) ? 1 : 0;
    g.cpy16Msk(Vr(0), Vr(1), Vr(3));
    for (size_t i = 0; i < mark.size(); ++i)
        ASSERT_EQ(g.data(Vr(0))[i],
                  i % 2 == 0 ? g.data(Vr(1))[i] : 7);

    g.cpyImm16Msk(Vr(0), 9, Vr(3));
    for (size_t i = 0; i < mark.size(); ++i)
        ASSERT_EQ(g.data(Vr(0))[i],
                  i % 2 == 0 ? 9 : 7);
}

TEST_F(GvmlTest, MaskedArithmeticFamily)
{
    fillRandom(Vr(1), 41);
    fillRandom(Vr(2), 42);
    auto &mark = g.data(Vr(3));
    Rng rng(43);
    for (auto &m : mark)
        m = rng.next() & 1;

    struct Case
    {
        std::function<void()> run;
        std::function<uint16_t(uint16_t, uint16_t)> ref;
    } cases[] = {
        {[&] { g.addU16Msk(Vr(0), Vr(1), Vr(2), Vr(3)); },
         [](uint16_t a, uint16_t b) {
             return static_cast<uint16_t>(a + b);
         }},
        {[&] { g.subU16Msk(Vr(0), Vr(1), Vr(2), Vr(3)); },
         [](uint16_t a, uint16_t b) {
             return static_cast<uint16_t>(a - b);
         }},
        {[&] { g.mulU16Msk(Vr(0), Vr(1), Vr(2), Vr(3)); },
         [](uint16_t a, uint16_t b) {
             return static_cast<uint16_t>(
                 static_cast<uint32_t>(a) * b);
         }},
        {[&] { g.minU16Msk(Vr(0), Vr(1), Vr(2), Vr(3)); },
         [](uint16_t a, uint16_t b) { return std::min(a, b); }},
        {[&] { g.maxU16Msk(Vr(0), Vr(1), Vr(2), Vr(3)); },
         [](uint16_t a, uint16_t b) { return std::max(a, b); }},
    };
    for (auto &c : cases) {
        g.cpyImm16(Vr(0), 7777);
        c.run();
        const auto &d = g.data(Vr(0));
        const auto &a = g.data(Vr(1));
        const auto &b = g.data(Vr(2));
        for (size_t i = 0; i < d.size(); ++i)
            ASSERT_EQ(d[i],
                      mark[i] ? c.ref(a[i], b[i]) : 7777)
                << i;
    }
}

TEST_F(GvmlTest, MaskedOpCostsIncludeMaskArm)
{
    dev.core(0).stats().reset();
    g.addU16(Vr(0), Vr(1), Vr(2));
    double plain = dev.core(0).stats().cycles();
    dev.core(0).stats().reset();
    g.addU16Msk(Vr(0), Vr(1), Vr(2), Vr(3));
    double masked = dev.core(0).stats().cycles();
    EXPECT_GT(masked, plain);
    EXPECT_LT(masked, plain + 20);
}

TEST_F(GvmlTest, SubgroupBroadcast)
{
    fillRandom(Vr(1), 5);
    const size_t grp = 1024, subgrp = 128;
    g.cpySubgrp16Grp(Vr(0), Vr(1), grp, subgrp);
    const auto &src = g.data(Vr(1));
    const auto &dst = g.data(Vr(0));
    for (size_t i = 0; i < dst.size(); ++i) {
        size_t base = (i / grp) * grp;
        ASSERT_EQ(dst[i], src[base + (i - base) % subgrp]) << i;
    }
    // Cost: Table 4 cpy_subgrp = 82.
    ApuDevice d2;
    Gvml g2(d2.core(0));
    g2.cpySubgrp16Grp(Vr(0), Vr(1), grp, subgrp);
    EXPECT_DOUBLE_EQ(d2.core(0).stats().cycles(),
                     82.0 + d2.timing().control.vcuDecode);
}

TEST_F(GvmlTest, GroupIndexCreation)
{
    g.createGrpIndexU16(Vr(0), 512);
    for (size_t i = 0; i < g.length(); ++i)
        ASSERT_EQ(g.data(Vr(0))[i], i % 512);
    g.createIndexU16(Vr(1));
    for (size_t i = 0; i < g.length(); ++i)
        ASSERT_EQ(g.data(Vr(1))[i], static_cast<uint16_t>(i));
}

TEST_F(GvmlTest, ShiftTowardHeadAndTail)
{
    fillRandom(Vr(1), 6);
    const auto src = g.data(Vr(1));

    g.shiftE(Vr(0), Vr(1), 5);
    for (size_t i = 0; i + 5 < g.length(); ++i)
        ASSERT_EQ(g.data(Vr(0))[i], src[i + 5]);
    for (size_t i = g.length() - 5; i < g.length(); ++i)
        ASSERT_EQ(g.data(Vr(0))[i], 0);

    g.shiftE(Vr(0), Vr(1), -3);
    for (size_t i = 3; i < g.length(); ++i)
        ASSERT_EQ(g.data(Vr(0))[i], src[i - 3]);
    for (size_t i = 0; i < 3; ++i)
        ASSERT_EQ(g.data(Vr(0))[i], 0);
}

TEST_F(GvmlTest, ShiftCostsFollowTable4)
{
    uint64_t decode = dev.timing().control.vcuDecode;
    // Generic path: 373 k.
    dev.core(0).stats().reset();
    g.shiftE(Vr(0), Vr(1), 3);
    EXPECT_DOUBLE_EQ(dev.core(0).stats().cycles(),
                     373.0 * 3 + decode);
    // Intra-bank path for multiples of 4: 8 + k.
    dev.core(0).stats().reset();
    g.shiftE(Vr(0), Vr(1), 4 * 100);
    EXPECT_DOUBLE_EQ(dev.core(0).stats().cycles(),
                     8.0 + 100 + decode);
}

TEST_F(GvmlTest, SubgroupReductionSmallGroups)
{
    auto &src = g.data(Vr(1));
    Rng rng(8);
    for (auto &v : src)
        v = static_cast<uint16_t>(rng.nextBelow(100));

    const size_t grp = 8, subgrp = 2;
    g.addSubgrpS16(Vr(0), Vr(1), grp, subgrp);
    const auto &dst = g.data(Vr(0));
    for (size_t base = 0; base < g.length(); base += grp) {
        for (size_t pos = 0; pos < subgrp; ++pos) {
            int32_t expect = 0;
            for (size_t sg = 0; sg < grp / subgrp; ++sg)
                expect += static_cast<int16_t>(
                    src[base + sg * subgrp + pos]);
            ASSERT_EQ(static_cast<int16_t>(dst[base + pos]), expect)
                << base << "+" << pos;
        }
    }
}

TEST_F(GvmlTest, SubgroupReductionFullVr)
{
    auto &src = g.data(Vr(1));
    for (size_t i = 0; i < src.size(); ++i)
        src[i] = 1;
    // Sum the entire VR into element 0.
    g.addSubgrpS16(Vr(0), Vr(1), g.length(), 1);
    EXPECT_EQ(static_cast<int16_t>(g.data(Vr(0))[0]),
              static_cast<int16_t>(g.length())); // 32768 wraps to -32768
    EXPECT_EQ(g.data(Vr(0))[0], 0x8000);
}

TEST_F(GvmlTest, SubgroupReductionIdentityWhenEqual)
{
    fillRandom(Vr(1), 9);
    g.addSubgrpS16(Vr(0), Vr(1), 64, 64);
    EXPECT_EQ(g.data(Vr(0)), g.data(Vr(1)));
}

TEST_F(GvmlTest, SubgroupReductionMatchesTheStagedLoopOnEveryLane)
{
    // Every power-of-two shape subgrp < grp <= L (120 of them), from a
    // full, a short and an empty source head, into another register
    // and into the source itself: every lane, the partial sums past
    // each group's first `subgrp` lanes included, equals the staged
    // loop's, and the op charges exactly the staged loop's cycles and
    // uops.
    const size_t L = g.length();
    const ApuCore &core = dev.core(0);
    size_t shapes = 0, row = 0;
    for (size_t grp = 2; grp <= L; grp *= 2, ++row) {
        ASSERT_LT(row, kReduceCharges.size());
        ASSERT_EQ(kReduceCharges[row].size(), row + 1);
        for (size_t subgrp = 1, col = 0; subgrp < grp; subgrp *= 2, ++col) {
            ++shapes;
            const auto [cycles, uops] = kReduceCharges[row][col];
            for (size_t hi : kSrcHis) {
                const uint64_t seed = grp * 31 + subgrp + hi;
                const Vr src{1};
                auto in = fillExtent(src, hi, seed);
                auto want = stagedSubgroupSum(in, grp, subgrp);
                std::string what = "grp " + std::to_string(grp) +
                    " subgrp " + std::to_string(subgrp) + " hi " +
                    std::to_string(hi);
                // The closed form gvml.hh states, at group edges,
                // inside groups and at the end of the VR.
                for (size_t i : {size_t{0}, subgrp - 1, subgrp, grp - 1,
                                 L / 2 + 3, L - grp, L - 2, L - 1}) {
                    uint16_t sum = 0;
                    for (size_t m = 0;
                         m < grp / subgrp && i + m * subgrp < L; ++m)
                        sum = u16(sum + in[i + m * subgrp]);
                    ASSERT_EQ(want[i], sum) << what << " closed form " << i;
                }
                for (bool in_place : {false, true}) {
                    const Vr dst = in_place ? src : Vr(0);
                    const std::string how =
                        what + (in_place ? " dst = src" : "");
                    g.cpyImm16(Vr(0), 0x5a5a); // a stale destination
                    fillExtent(src, hi, seed);
                    const double c0 = core.stats().cycles(),
                                 u0 = core.stats().uops();
                    g.addSubgrpS16(dst, src, grp, subgrp);
                    ASSERT_EQ(core.stats().cycles() - c0,
                              static_cast<double>(cycles))
                        << how;
                    ASSERT_EQ(core.stats().uops() - u0,
                              static_cast<double>(uops))
                        << how;
                    const auto &got = g.data(dst);
                    if (got != want) {
                        auto lane = std::mismatch(got.begin(), got.end(),
                                                  want.begin())
                                        .first -
                            got.begin();
                        FAIL() << how << " lane " << lane << ": "
                               << got[lane] << " != " << want[lane];
                    }
                    if (!in_place) {
                        ASSERT_EQ(g.data(src), in) << how << " (source)";
                    }
                }
            }
        }
    }
    EXPECT_EQ(row, kReduceCharges.size());
    EXPECT_EQ(shapes, 120u);
}

TEST_F(GvmlTest, SubgroupReductionOnShortVrsMatchesTheStagedLoop)
{
    // Registers shorter than one 8-lane block of the two passes, one
    // block and two blocks long, every shape.
    for (size_t L : {2, 4, 8, 16}) {
        ApuSpec spec = defaultSpec();
        spec.vrLength = L;
        spec.numBanks = static_cast<unsigned>(std::min<size_t>(L, 16));
        spec.bankElems = L / spec.numBanks;
        ApuDevice small(spec);
        Gvml gs(small.core(0));
        for (size_t grp = 2; grp <= L; grp *= 2) {
            for (size_t subgrp = 1; subgrp < grp; subgrp *= 2) {
                Rng rng(L * 97 + grp * 7 + subgrp);
                for (auto &x : gs.data(Vr(1)))
                    x = rng.nextU16();
                auto want = stagedSubgroupSum(gs.data(Vr(1)), grp, subgrp);
                gs.addSubgrpS16(Vr(0), Vr(1), grp, subgrp);
                EXPECT_EQ(gs.data(Vr(0)), want) << "L " << L << " grp "
                                                << grp << " subgrp "
                                                << subgrp;
            }
        }
    }
}

TEST_F(GvmlTest, SubgroupBroadcastMatchesTheReferenceOnEveryLane)
{
    // Opt1's per-dimension scalar (one group of L, subgroup 1), the
    // spatial mapping's in-place query replication (L, 512) and two
    // multi-group shapes, each from a full, a short and an empty
    // source head, into another register and into the source.
    const size_t L = g.length();
    struct Shape
    {
        size_t grp, subgrp, which;
    };
    const Shape shapes[] = {{L, 1, 0},      {L, 1, 5},
                            {L, 1, L - 1},  {L, 512, 0},
                            {1024, 128, 3}, {64, 16, 2}};
    for (const Shape &s : shapes) {
        for (size_t hi : kSrcHis) {
            for (bool in_place : {false, true}) {
                const Vr src{1}, dst = in_place ? src : Vr(0);
                g.cpyImm16(Vr(0), 0x5a5a); // a stale destination
                auto in = fillExtent(src, hi, s.grp + s.which + hi);
                auto want = subgroupBroadcast(in, s.grp, s.subgrp, s.which);
                g.cpySubgrp16Grp(dst, src, s.grp, s.subgrp, s.which);
                std::string what = "grp " + std::to_string(s.grp) +
                    " subgrp " + std::to_string(s.subgrp) + " which " +
                    std::to_string(s.which) + " hi " +
                    std::to_string(hi) + (in_place ? " dst = src" : "");
                const auto &got = g.data(dst);
                for (size_t i = 0; i < L; ++i)
                    ASSERT_EQ(got[i], want[i]) << what << " lane " << i;
                if (!in_place) {
                    ASSERT_EQ(g.data(src), in) << what << " (source)";
                }
            }
        }
    }
}

TEST_F(GvmlTest, CountMarked)
{
    auto &mark = g.data(Vr(1));
    size_t expect = 0;
    Rng rng(10);
    for (auto &v : mark) {
        v = (rng.next() & 3) == 0 ? 1 : 0;
        expect += v;
    }
    EXPECT_EQ(g.countM(Vr(1)), expect);
}

TEST_F(GvmlTest, MaxAndMinIndex)
{
    auto &src = g.data(Vr(1));
    Rng rng(11);
    for (auto &v : src)
        v = static_cast<uint16_t>(rng.nextBelow(50000));
    src[12345] = 65535;
    src[222] = 0;

    auto mx = g.maxIndexU16(Vr(1));
    EXPECT_EQ(mx.value, 65535);
    EXPECT_EQ(mx.index, 12345u);

    auto mn = g.minIndexU16(Vr(1));
    EXPECT_EQ(mn.value, 0);
    EXPECT_EQ(mn.index, 222u);
}

TEST_F(GvmlTest, MaxIndexReturnsFirstOccurrence)
{
    auto &src = g.data(Vr(1));
    std::fill(src.begin(), src.end(), 5);
    src[100] = 77;
    src[200] = 77;
    auto mx = g.maxIndexU16(Vr(1));
    EXPECT_EQ(mx.value, 77);
    EXPECT_EQ(mx.index, 100u);
}

TEST_F(GvmlTest, TimingOnlyModeChargesButSkips)
{
    fillRandom(Vr(1), 12);
    auto before = g.data(Vr(0));
    dev.core(0).setMode(ExecMode::TimingOnly);
    dev.core(0).stats().reset();
    g.addU16(Vr(0), Vr(1), Vr(1));
    EXPECT_GT(dev.core(0).stats().cycles(), 0.0);
    EXPECT_EQ(g.data(Vr(0)), before);
    dev.core(0).setMode(ExecMode::Functional);
}

TEST_F(GvmlTest, Float16AndGsiFloatArithmetic)
{
    Rng rng(50);
    auto &a = g.data(Vr(1));
    auto &b = g.data(Vr(2));
    std::vector<float> fa(g.length()), fb(g.length());
    for (size_t i = 0; i < g.length(); ++i) {
        fa[i] = rng.nextFloat(-50.0f, 50.0f);
        fb[i] = rng.nextFloat(-50.0f, 50.0f);
        a[i] = Float16::fromFloat(fa[i]).bits();
        b[i] = Float16::fromFloat(fb[i]).bits();
    }
    g.addF16(Vr(0), Vr(1), Vr(2));
    for (size_t i = 0; i < g.length(); i += 733) {
        Float16 expect = Float16::fromBits(a[i]) +
            Float16::fromBits(b[i]);
        ASSERT_EQ(g.data(Vr(0))[i], expect.bits()) << i;
    }

    // GSI-float multiply and add.
    for (size_t i = 0; i < g.length(); ++i) {
        a[i] = GsiFloat16::fromFloat(fa[i]).bits();
        b[i] = GsiFloat16::fromFloat(fb[i]).bits();
    }
    g.mulGf16(Vr(0), Vr(1), Vr(2));
    g.addGf16(Vr(3), Vr(1), Vr(2));
    for (size_t i = 0; i < g.length(); i += 733) {
        ASSERT_EQ(g.data(Vr(0))[i],
                  (GsiFloat16::fromBits(a[i]) *
                   GsiFloat16::fromBits(b[i]))
                      .bits());
        ASSERT_EQ(g.data(Vr(3))[i],
                  (GsiFloat16::fromBits(a[i]) +
                   GsiFloat16::fromBits(b[i]))
                      .bits());
    }
}

TEST_F(GvmlTest, OrderGf16IsMonotone)
{
    Rng rng(51);
    auto &src = g.data(Vr(1));
    for (auto &v : src)
        v = GsiFloat16::fromFloat(rng.nextFloat(-100.f, 100.f))
                .bits();
    g.orderGf16(Vr(0), Vr(1), Vr(2), Vr(3));
    const auto &ord = g.data(Vr(0));
    // Order preservation: float order == u16 key order.
    for (size_t i = 1; i < g.length(); i += 517) {
        float x = GsiFloat16::fromBits(src[i - 1]).toFloat();
        float y = GsiFloat16::fromBits(src[i]).toFloat();
        if (x < y)
            ASSERT_LT(ord[i - 1], ord[i]) << i;
        else if (x > y)
            ASSERT_GT(ord[i - 1], ord[i]) << i;
    }
}

TEST_F(GvmlTest, ExpF16)
{
    auto &in = g.data(Vr(1));
    in[0] = Float16::fromFloat(0.0f).bits();
    in[1] = Float16::fromFloat(1.0f).bits();
    in[2] = Float16::fromFloat(-2.0f).bits();
    g.expF16(Vr(0), Vr(1));
    EXPECT_NEAR(Float16::fromBits(g.data(Vr(0))[0]).toFloat(), 1.0f,
                1e-3);
    EXPECT_NEAR(Float16::fromBits(g.data(Vr(0))[1]).toFloat(),
                2.71828f, 3e-3);
    EXPECT_NEAR(Float16::fromBits(g.data(Vr(0))[2]).toFloat(),
                0.13534f, 1e-3);
}
