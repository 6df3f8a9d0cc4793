/**
 * @file
 * DRAM simulator tests: bandwidth bounds, row-buffer behaviour,
 * refresh derating, strided access, the page policy, and the power
 * model.
 */

#include <gtest/gtest.h>

#include "dramsim/dram_sim.hh"

using namespace cisram::dram;

TEST(DramConfig, PeakBandwidthMatchesPaper)
{
    DramConfig hbm = hbm2eConfig();
    // Paper: 380-420 GB/s peak for the simulated HBM2e.
    EXPECT_GE(hbm.peakBandwidth(), 380.0e9);
    EXPECT_LE(hbm.peakBandwidth(), 420.0e9);

    DramConfig ddr = ddr4DeviceConfig();
    // Paper: 23.8 GB/s device DDR bandwidth.
    EXPECT_NEAR(ddr.peakBandwidth(), 23.8e9, 0.3e9);
}

TEST(DramSim, StreamingReachesHighEfficiency)
{
    DramSystem sys(hbm2eConfig());
    double secs = sys.streamReadSeconds(0, 64ull * 1024 * 1024);
    EXPECT_GT(secs, 0.0);
    double eff =
        sys.lastEffectiveBandwidth() / sys.config().peakBandwidth();
    // Streaming with open rows should land between 70% and 100%.
    EXPECT_GT(eff, 0.70) << "efficiency " << eff;
    EXPECT_LT(eff, 1.0) << "efficiency " << eff;
}

TEST(DramSim, LongStreamScalesLinearly)
{
    DramSystem sys(hbm2eConfig());
    double t1 = sys.streamReadSeconds(0, 256ull * 1024 * 1024);
    double t2 = sys.streamReadSeconds(0, 512ull * 1024 * 1024);
    EXPECT_NEAR(t2 / t1, 2.0, 0.05);
}

TEST(DramSim, EmbeddingLoadTimesMatchTable8Scale)
{
    // Paper Table 8 (all opts): loading 120 MB / 600 MB / 2.4 GB of
    // embeddings from the simulated HBM takes ~0.3 / 1.5 / 6.1 ms.
    DramSystem sys(hbm2eConfig());
    double t10 = sys.streamReadSeconds(0, 120ull * 1000 * 1000);
    double t50 = sys.streamReadSeconds(0, 600ull * 1000 * 1000);
    double t200 = sys.streamReadSeconds(0, 2400ull * 1000 * 1000);
    EXPECT_NEAR(t10 * 1e3, 0.3, 0.1);
    EXPECT_NEAR(t50 * 1e3, 1.5, 0.5);
    EXPECT_NEAR(t200 * 1e3, 6.1, 2.0);
}

TEST(DramSim, RandomRowsSlowerThanStreaming)
{
    DramConfig cfg = hbm2eConfig();
    DramSystem sys(cfg);
    // Strided reads hitting a new row every chunk.
    uint64_t chunk = cfg.burstBytes();
    uint64_t stride = cfg.rowBytes * cfg.channels * 64 + 4096;
    double t_rand = sys.stridedReadSeconds(0, chunk, stride, 10000);
    double t_seq = sys.streamReadSeconds(0, chunk * 10000);
    EXPECT_GT(t_rand, 2.0 * t_seq);
}

TEST(DramSim, RowHitsDominateForStreams)
{
    DramSystem sys(hbm2eConfig());
    sys.resetStats();
    sys.streamReadSeconds(0, 16ull * 1024 * 1024);
    const DramStats &s = sys.stats();
    EXPECT_GT(s.rowHits, 10 * s.rowMisses);
    EXPECT_EQ(s.writes, 0u);
    EXPECT_GT(s.reads, 0u);
}

TEST(DramSim, WritesAreCounted)
{
    DramSystem sys(hbm2eConfig());
    sys.resetStats();
    sys.streamWriteSeconds(0, 1 << 20);
    EXPECT_GT(sys.stats().writes, 0u);
    EXPECT_EQ(sys.stats().reads, 0u);
}

TEST(DramSim, Ddr4SlowerThanHbm)
{
    DramSystem hbm(hbm2eConfig());
    DramSystem ddr(ddr4DeviceConfig());
    uint64_t bytes = 64ull * 1024 * 1024;
    double t_hbm = hbm.streamReadSeconds(0, bytes);
    double t_ddr = ddr.streamReadSeconds(0, bytes);
    // ~410 / 23.8 ~= 17x peak ratio; allow efficiency wiggle.
    EXPECT_GT(t_ddr / t_hbm, 10.0);
    EXPECT_LT(t_ddr / t_hbm, 25.0);
}

TEST(DramSim, ProcessTraceCountsRequests)
{
    DramSystem sys(hbm2eConfig());
    std::vector<Request> reqs;
    for (int i = 0; i < 100; ++i)
        reqs.push_back({static_cast<uint64_t>(i) *
                            sys.config().burstBytes(),
                        false});
    sys.resetStats();
    double secs = sys.processTrace(reqs);
    EXPECT_GT(secs, 0.0);
    EXPECT_EQ(sys.stats().reads, 100u);
}

TEST(DramPagePolicy, ClosedPageHurtsStreams)
{
    DramConfig open_cfg = hbm2eConfig();
    DramConfig closed_cfg = hbm2eConfig();
    closed_cfg.pagePolicy = PagePolicy::Closed;
    DramSystem open_sys(open_cfg), closed_sys(closed_cfg);
    uint64_t bytes = 16ull << 20;
    double t_open = open_sys.streamReadSeconds(0, bytes);
    double t_closed = closed_sys.streamReadSeconds(0, bytes);
    EXPECT_GT(t_closed, t_open * 1.2);
}

TEST(DramPagePolicy, ClosedPageCountsOneActivatePerBurst)
{
    DramConfig cfg = hbm2eConfig();
    cfg.pagePolicy = PagePolicy::Closed;
    DramSystem sys(cfg);
    sys.resetStats();
    sys.streamReadSeconds(0, 1 << 20);
    EXPECT_EQ(sys.stats().activates, sys.stats().reads);
}

TEST(DramPower, EnergyComponentsPositiveAndAdditive)
{
    DramSystem sys(hbm2eConfig());
    sys.resetStats();
    double secs = sys.streamReadSeconds(0, 32ull * 1024 * 1024);
    DramPowerModel power(hbm2eEnergyConfig());
    double dyn = power.dynamicEnergy(sys.stats());
    double bg = power.backgroundEnergy(secs);
    EXPECT_GT(dyn, 0.0);
    EXPECT_GT(bg, 0.0);
    EXPECT_DOUBLE_EQ(power.totalEnergy(sys.stats(), secs), dyn + bg);
}

TEST(DramPower, EnergyPerBitIsReasonable)
{
    // HBM2e dynamic energy should land in the 2-8 pJ/bit window.
    DramSystem sys(hbm2eConfig());
    sys.resetStats();
    uint64_t bytes = 32ull * 1024 * 1024;
    sys.streamReadSeconds(0, bytes);
    DramPowerModel power(hbm2eEnergyConfig());
    double pj_per_bit = power.dynamicEnergy(sys.stats()) * 1e12 /
        (static_cast<double>(bytes) * 8.0);
    EXPECT_GT(pj_per_bit, 2.0);
    EXPECT_LT(pj_per_bit, 8.0);
}
