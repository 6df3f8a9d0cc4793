/**
 * @file
 * Ablation: design-space exploration with the analytical framework
 * (Section 1: the framework "supports architectural design space
 * exploration by enabling the tuning of key design parameters").
 * Sweeps DMA bandwidth, lookup cost, PIO cost, and VR length, and
 * reports the predicted all-opts binary-matmul latency at each
 * design point. Exits nonzero if cheaper PIO ever brings the
 * baseline down to the all-opts latency.
 */

#include <cstdio>

#include "apusim/apu.hh"
#include "common/table.hh"
#include "core/bmm_model.hh"
#include "model/dse.hh"
#include "model/sg_model.hh"

using namespace cisram;
using namespace cisram::core;
using namespace cisram::model;

int
main()
{
    std::printf("== Ablation: analytical design-space exploration "
                "==\n");
    apu::ApuDevice dev;
    SubgroupReductionModel sg;
    sg.calibrate(dev.core(0));
    const BmmShape shape{1024, 1024, 1024};

    auto objective_for = [&](BmmVariant v) {
        return [&, v](const CostTable &t) {
            BmmAnalyticalModel m(t, sg);
            return t.seconds(m.predict(shape, v).total()) * 1e3;
        };
    };

    DesignSpaceExplorer dse;

    std::printf("\n-- DMA bandwidth scaling (all-opts BMM, ms) "
                "--\n");
    AsciiTable t1({"BW scale", "baseline (ms)", "all-opts (ms)",
                   "speedup"});
    auto bw = DesignSpaceExplorer::dmaBandwidthScale(
        {0.5, 1, 2, 4, 8});
    auto base_r = dse.sweep(bw, objective_for(BmmVariant::Baseline));
    auto all_r = dse.sweep(bw, objective_for(BmmVariant::AllOpts));
    for (size_t i = 0; i < base_r.size(); ++i) {
        t1.addRow({formatDouble(base_r[i].value, 1) + "x",
                   formatDouble(base_r[i].objective, 1),
                   formatDouble(all_r[i].objective, 1),
                   formatDouble(base_r[i].objective /
                                    all_r[i].objective,
                                1) +
                       "x"});
    }
    t1.print();
    std::printf("DMA bandwidth mostly accelerates the baseline "
                "(duplication traffic); the optimized kernel is "
                "already coalesced.\n");

    std::printf("\n-- Lookup engine cost scaling (opt1+opt3 LHS "
                "path) --\n");
    AsciiTable t2({"lookup cost scale", "opt1 (ms)",
                   "opt1+opt3 (ms)"});
    auto lk =
        DesignSpaceExplorer::lookupCostScale({0.25, 0.5, 1, 2, 4});
    auto o1 = dse.sweep(lk, objective_for(BmmVariant::Opt1));
    auto o13 = dse.sweep(lk, objective_for(BmmVariant::Opt1Opt3));
    for (size_t i = 0; i < o1.size(); ++i) {
        t2.addRow({formatDouble(o1[i].value, 2) + "x",
                   formatDouble(o1[i].objective, 1),
                   formatDouble(o13[i].objective, 1)});
    }
    t2.print();

    std::printf("\n-- PIO cost scaling (baseline store path) --\n");
    AsciiTable t3({"PIO cost scale", "baseline (ms)",
                   "all-opts (ms)"});
    auto pio = DesignSpaceExplorer::pioCostScale({0.25, 0.5, 1, 2});
    auto pb = dse.sweep(pio, objective_for(BmmVariant::Baseline));
    auto pa = dse.sweep(pio, objective_for(BmmVariant::AllOpts));
    bool pio_closes_gap = false;
    for (size_t i = 0; i < pb.size(); ++i) {
        t3.addRow({formatDouble(pb[i].value, 2) + "x",
                   formatDouble(pb[i].objective, 1),
                   formatDouble(pa[i].objective, 1)});
        pio_closes_gap |= pb[i].objective <= pa[i].objective;
    }
    t3.print();
    std::printf("Cheaper PIO shrinks the baseline's store "
                "bottleneck but never reaches the DMA path: the "
                "mapping optimization, not the engine, closes the "
                "gap.\n");

    std::printf("\n-- VR length (elements) --\n");
    AsciiTable t4({"VR length", "all-opts (ms)", "OI (op/B)"});
    auto vl = DesignSpaceExplorer::vrLength(
        {8192, 16384, 32768, 65536, 131072});
    for (double v : vl.values) {
        CostTable t;
        vl.apply(t, v);
        BmmAnalyticalModel m(t, sg);
        t4.addRow({formatDouble(v, 0),
                   formatDouble(
                       t.seconds(m.predict(shape,
                                           BmmVariant::AllOpts)
                                     .total()) *
                           1e3,
                       1),
                   formatDouble(m.operationalIntensity(
                                    shape, BmmVariant::AllOpts),
                                0)});
    }
    t4.print();
    if (pio_closes_gap) {
        std::printf("FAIL: cheaper PIO brought the baseline down to "
                    "the all-opts latency\n");
        return 1;
    }
    return 0;
}
