/**
 * @file
 * APU device tests: memory hierarchy, DMA functional + timing
 * behaviour, PIO, lookup, execution modes, and cycle accounting.
 */

#include <gtest/gtest.h>

#include "apusim/apu.hh"
#include "common/rng.hh"

using namespace cisram;
using namespace cisram::apu;

namespace {

std::vector<uint8_t>
randomBytes(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> v(n);
    for (auto &b : v)
        b = static_cast<uint8_t>(rng.next());
    return v;
}

} // namespace

TEST(DeviceDram, SparseReadWrite)
{
    DeviceDram dram(1ull << 34);
    EXPECT_EQ(dram.residentPages(), 0u);

    // Unwritten memory reads as zero.
    uint8_t buf[16];
    dram.read(12345678, buf, sizeof(buf));
    for (uint8_t b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(dram.residentPages(), 0u);

    auto data = randomBytes(200000, 3);
    uint64_t addr = 3ull * 1024 * 1024 * 1024 + 17; // unaligned, > 2 GB
    dram.write(addr, data.data(), data.size());
    std::vector<uint8_t> back(data.size());
    dram.read(addr, back.data(), back.size());
    EXPECT_EQ(back, data);
    EXPECT_GT(dram.residentPages(), 2u);
}

TEST(DeviceDram, CrossPageBoundary)
{
    DeviceDram dram(1 << 20);
    uint64_t addr = DeviceDram::pageBytes - 3;
    uint8_t data[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    dram.write(addr, data, sizeof(data));
    uint8_t back[8];
    dram.read(addr, back, sizeof(back));
    EXPECT_EQ(0, std::memcmp(back, data, sizeof(back)));
}

TEST(DramAllocator, AlignmentAndExhaustion)
{
    DramAllocator alloc(4096);
    uint64_t a = alloc.alloc(100, 512);
    uint64_t b = alloc.alloc(100, 512);
    EXPECT_EQ(a % 512, 0u);
    EXPECT_EQ(b % 512, 0u);
    EXPECT_GE(b, a + 100);
    EXPECT_DEATH((void)alloc.alloc(1 << 20), "exhausted");
}

class ApuCoreTest : public ::testing::Test
{
  protected:
    ApuCoreTest() : dev(), core(dev.core(0)) {}

    ApuDevice dev;
    ApuCore &core;
};

TEST_F(ApuCoreTest, DmaL4ToL1RoundTrip)
{
    size_t bytes = dev.spec().vrBytes();
    auto data = randomBytes(bytes, 17);
    uint64_t addr = dev.allocator().alloc(bytes);
    dev.l4().write(addr, data.data(), bytes);

    core.dmaL4ToL1(0, addr);
    uint64_t out_addr = dev.allocator().alloc(bytes);
    core.dmaL1ToL4(out_addr, 0);

    std::vector<uint8_t> back(bytes);
    dev.l4().read(out_addr, back.data(), bytes);
    EXPECT_EQ(back, data);
}

TEST_F(ApuCoreTest, DmaL4ToL1CostMatchesPaper)
{
    // Paper Table 4: dma_l4_l1 measured at 22272 cycles for one full
    // 16-bit x 32K vector. The simulator's decomposed model must land
    // within 1%.
    core.stats().reset();
    core.dmaL4ToL1(0, 0);
    EXPECT_NEAR(core.stats().cycles(), 22272.0, 222.0);

    core.stats().reset();
    core.dmaL1ToL4(0, 0);
    EXPECT_NEAR(core.stats().cycles(), 22186.0, 222.0);
}

TEST_F(ApuCoreTest, DmaL4ToL2CostMatchesPaper)
{
    // Paper Table 4: dma_l4_l2 ~= 0.63 d + 548.
    for (size_t d : {512u, 4096u, 65536u}) {
        core.stats().reset();
        core.dmaL4ToL2(0, 0, d);
        double expect = 0.63 * static_cast<double>(d) + 548.0;
        EXPECT_NEAR(core.stats().cycles(), expect, expect * 0.01 + 20)
            << d;
    }
}

TEST_F(ApuCoreTest, DmaL4ToL3CostMatchesPaper)
{
    for (size_t d : {4096u, 262144u}) {
        core.stats().reset();
        core.dmaL4ToL3(0, 0, d);
        double expect = 0.19 * static_cast<double>(d) + 41164.0;
        EXPECT_NEAR(core.stats().cycles(), expect, expect * 0.01)
            << d;
    }
}

TEST_F(ApuCoreTest, PartialChunksCostWholeChunks)
{
    // 513 bytes needs two 512-byte chunks: costlier than linear.
    core.stats().reset();
    core.dmaL4ToL2(0, 0, 513);
    double two_chunks = core.stats().cycles();
    core.stats().reset();
    core.dmaL4ToL2(0, 0, 1024);
    EXPECT_DOUBLE_EQ(core.stats().cycles(), two_chunks);
}

TEST_F(ApuCoreTest, ChunkedDmaGathersAndDuplicates)
{
    size_t chunk = dev.spec().dmaChunkBytes;
    auto data = randomBytes(chunk * 2, 23);
    uint64_t addr = dev.allocator().alloc(chunk * 2);
    dev.l4().write(addr, data.data(), data.size());

    // Duplicate chunk 0 twice, then chunk 1: a layout transformation.
    core.dmaL4ToL2Chunks({addr, addr, addr + chunk}, 0);
    std::vector<uint8_t> l2(chunk * 3);
    core.l2().read(0, l2.data(), l2.size());
    EXPECT_EQ(0, std::memcmp(l2.data(), data.data(), chunk));
    EXPECT_EQ(0, std::memcmp(l2.data() + chunk, data.data(), chunk));
    EXPECT_EQ(0,
              std::memcmp(l2.data() + 2 * chunk, data.data() + chunk,
                          chunk));
}

TEST_F(ApuCoreTest, PioCostsPerElement)
{
    core.stats().reset();
    core.pioLoad(0, 0, 1, 0, 2, 100);
    EXPECT_NEAR(core.stats().cycles(), 57.0 * 100, 57.0 + 20);

    core.stats().reset();
    core.pioStore(0, 2, 0, 0, 1, 100);
    EXPECT_NEAR(core.stats().cycles(), 61.0 * 100, 61.0 + 20);
}

TEST_F(ApuCoreTest, PioStridedLayout)
{
    // Write a pattern into L4 and gather every third u16 into VR 0
    // with VR stride 2.
    std::vector<uint16_t> pattern(64);
    for (size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<uint16_t>(i * 10);
    uint64_t addr = dev.allocator().alloc(pattern.size() * 2);
    dev.l4().write(addr, pattern.data(), pattern.size() * 2);

    core.pioLoad(0, 4, 2, addr, 6, 10);
    const auto &vr = core.vr()[0];
    for (size_t i = 0; i < 10; ++i)
        EXPECT_EQ(vr[4 + 2 * i], pattern[3 * i]) << i;
}

TEST_F(ApuCoreTest, LookupGathersFromL3)
{
    // Table of 112 entries (a whole number of 16-entry granules) in
    // L3; cost then matches the paper's 7.15 sigma + 629 fit closely.
    std::vector<uint16_t> table(112);
    for (size_t i = 0; i < table.size(); ++i)
        table[i] = static_cast<uint16_t>(1000 + i);
    core.l3().write(0, table.data(), table.size() * 2);

    auto &idx = core.vr()[1];
    Rng rng(31);
    for (auto &v : idx)
        v = static_cast<uint16_t>(rng.nextBelow(table.size()));

    core.stats().reset();
    core.lookup(0, 1, 0, table.size());
    double expect = 7.15 * 112 + 629;
    EXPECT_NEAR(core.stats().cycles(), expect, expect * 0.02);

    const auto &dst = core.vr()[0];
    for (size_t i = 0; i < dst.size(); ++i)
        EXPECT_EQ(dst[i], table[idx[i]]);
}

TEST_F(ApuCoreTest, TimingOnlyModeSkipsData)
{
    auto data = randomBytes(dev.spec().vrBytes(), 5);
    uint64_t addr = dev.allocator().alloc(data.size());
    dev.l4().write(addr, data.data(), data.size());

    core.setMode(ExecMode::TimingOnly);
    core.stats().reset();
    core.dmaL4ToL1(0, addr);
    double cycles = core.stats().cycles();
    EXPECT_GT(cycles, 0.0);
    // L1 slot untouched.
    for (uint16_t v : core.l1().slot(0))
        EXPECT_EQ(v, 0);
    core.setMode(ExecMode::Functional);
}

TEST_F(ApuCoreTest, RepeatScopesMultiplyCycles)
{
    core.stats().reset();
    core.dmaL2ToL1(0);
    double one = core.stats().cycles();

    core.stats().reset();
    {
        ScopedRepeat rep(core.stats(), 1000);
        core.dmaL2ToL1(0);
    }
    EXPECT_DOUBLE_EQ(core.stats().cycles(), 1000 * one);

    // Nested scopes compound.
    core.stats().reset();
    {
        ScopedRepeat a(core.stats(), 10);
        ScopedRepeat b(core.stats(), 5);
        core.dmaL2ToL1(0);
    }
    EXPECT_DOUBLE_EQ(core.stats().cycles(), 50 * one);

    // A repeat factor is a whole loop count.
    EXPECT_DEATH(core.stats().pushRepeat(0.5), "not a positive whole");
    EXPECT_DEATH(core.stats().pushRepeat(0), "not a positive whole");
}

TEST_F(ApuCoreTest, TagsAttributeCycles)
{
    core.stats().reset();
    {
        ScopedTag tag(core.stats(), "ld_lhs");
        core.dmaL2ToL1(0);
    }
    {
        ScopedTag tag(core.stats(), "st");
        core.dmaL1ToL2(0);
    }
    EXPECT_GT(core.stats().taggedCycles("ld_lhs"), 0.0);
    EXPECT_GT(core.stats().taggedCycles("st"), 0.0);
    EXPECT_DOUBLE_EQ(core.stats().taggedCycles("ld_lhs") +
                         core.stats().taggedCycles("st"),
                     core.stats().cycles());
    EXPECT_DOUBLE_EQ(core.stats().taggedCycles("unused"), 0.0);
}

TEST(ApuDevice, FourCoresWithPrivateState)
{
    ApuDevice dev;
    EXPECT_EQ(dev.numCores(), 4u);
    dev.core(0).vr()[0][0] = 42;
    EXPECT_EQ(dev.core(1).vr()[0][0], 0);
    dev.core(2).stats().charge(100);
    EXPECT_DOUBLE_EQ(dev.core(3).stats().cycles(), 0.0);
}

TEST(ApuDevice, CyclesToSeconds)
{
    ApuDevice dev;
    // 500 MHz: 5e8 cycles per second.
    EXPECT_DOUBLE_EQ(dev.cyclesToSeconds(5.0e8), 1.0);
}
