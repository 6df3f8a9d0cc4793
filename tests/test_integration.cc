/**
 * @file
 * Cross-module integration through the umbrella header: the planning
 * layer's decisions agree with the simulator's measured outcomes,
 * and the full host -> device -> host pipeline composes.
 */

#include <gtest/gtest.h>

#include "cisram.hh"
#include "common/rng.hh"

using namespace cisram;

TEST(Integration, PlannerDecisionsMatchMeasuredKernels)
{
    // Calibrate the framework from the device, as a user would.
    apu::ApuDevice dev;
    model::SubgroupReductionModel sg;
    sg.calibrate(dev.core(0));
    model::CostTable table;

    // The reduction planner says temporal mapping wins for the
    // paper's BMM reduction length (K = 64 words).
    core::ReductionPlan red = core::planReduction(table, sg, 64);
    EXPECT_EQ(red.best, core::ReductionMapping::Temporal);

    // The coalescing planner says the RHS rows should coalesce.
    core::CoalescePlan co = core::planDmaCoalescing(table, 2048, 64);
    EXPECT_TRUE(co.coalesce);

    // And the simulator agrees: the variant embodying those choices
    // beats the one that ignores them.
    core::BmmShape shape{1024, 1024, 1024};
    auto measure = [&](core::BmmVariant v) {
        apu::ApuDevice d;
        d.core(0).setMode(apu::ExecMode::TimingOnly);
        return kernels::runBmmApu(d, shape, v, nullptr)
            .cycles.total();
    };
    EXPECT_LT(measure(core::BmmVariant::Opt1Opt2),
              measure(core::BmmVariant::Baseline));
    EXPECT_LT(measure(core::BmmVariant::AllOpts),
              measure(core::BmmVariant::Opt1));
}

TEST(Integration, LayoutPlanFeedsDmaEngineFeedsKernel)
{
    // Broadcast-friendly layout -> smaller lookup window -> cheaper
    // measured LHS stage, end to end.
    std::vector<size_t> tile_shape = {32, 64};
    core::BroadcastSweep sweep{0, 32};
    size_t span_rm = core::maxLookupSpan(
        core::Layout::rowMajor(tile_shape), sweep);
    size_t span_bf = core::maxLookupSpan(
        core::broadcastFriendly(tile_shape, 0), sweep);
    EXPECT_GT(span_rm, 10 * span_bf);

    core::BmmShape shape{1024, 1024, 1024};
    auto lhs = [&](core::BmmVariant v) {
        apu::ApuDevice d;
        d.core(0).setMode(apu::ExecMode::TimingOnly);
        return kernels::runBmmApu(d, shape, v, nullptr)
            .cycles.ldLhs;
    };
    EXPECT_GT(lhs(core::BmmVariant::Opt1),
              5.0 * lhs(core::BmmVariant::Opt1Opt3));
}

TEST(Integration, HostPipelineWithGdlAndGvml)
{
    // Host stages two vectors over PCIe, a GDL task computes with
    // GVML ops, the host reads the result back.
    apu::ApuDevice dev;
    gdl::GdlContext host(dev);
    size_t n = dev.spec().vrLength;

    Rng rng(2024);
    std::vector<uint16_t> a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
        a[i] = rng.nextU16();
        b[i] = rng.nextU16();
    }
    gdl::MemHandle ha = host.memAllocAligned(n * 2);
    gdl::MemHandle hb = host.memAllocAligned(n * 2);
    gdl::MemHandle hc = host.memAllocAligned(n * 2);
    host.memCpyToDev(ha, a.data(), n * 2);
    host.memCpyToDev(hb, b.data(), n * 2);

    int rc = host.runTask([&](apu::ApuCore &core) {
        core.dmaL4ToL1(0, ha.addr);
        core.dmaL4ToL1(1, hb.addr);
        gvml::Gvml g(core);
        g.load16(gvml::Vr(1), gvml::Vmr(0));
        g.load16(gvml::Vr(2), gvml::Vmr(1));
        // max(a, b): start from a, take b where a < b.
        g.ltU16(gvml::Vr(3), gvml::Vr(1), gvml::Vr(2));
        g.cpy16(gvml::Vr(4), gvml::Vr(1));
        g.cpy16Msk(gvml::Vr(4), gvml::Vr(2), gvml::Vr(3));
        g.store16(gvml::Vmr(2), gvml::Vr(4));
        core.dmaL1ToL4(hc.addr, 2);
        return 0;
    });
    ASSERT_EQ(rc, 0);

    std::vector<uint16_t> c(n);
    host.memCpyFromDev(c.data(), hc, n * 2);
    for (size_t i = 0; i < n; ++i)
        ASSERT_EQ(c[i], std::max(a[i], b[i])) << i;
    host.memFree(ha);
    host.memFree(hb);
    host.memFree(hc);
}

TEST(Integration, FrameworkEndToEndOnForeignDevice)
{
    // Port the framework to a "different" device (a hypothetical
    // half-clock, double-VR part): recalibrate Eq. 1 by profiling,
    // as Section 3.1 prescribes, and validate predictions there.
    apu::ApuSpec spec;
    spec.clockHz = 250.0e6;
    apu::TimingParams timing;
    timing.compute.sgStageBase = 200; // a slower reduction unit
    apu::ApuDevice dev(spec, timing);

    model::SubgroupReductionModel sg;
    sg.calibrate(dev.core(0));
    EXPECT_LT(sg.fitError(), 0.05);

    gvml::Gvml g(dev.core(0));
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    dev.core(0).stats().reset();
    g.addSubgrpS16(gvml::Vr(0), gvml::Vr(1), 4096, 2);
    double meas = dev.core(0).stats().cycles();
    EXPECT_NEAR(sg.predict(4096, 2), meas, meas * 0.10);
}
