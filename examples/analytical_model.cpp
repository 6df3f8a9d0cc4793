/**
 * @file
 * Modeling an application with the analytical framework, the C++
 * equivalent of the paper's Fig. 6: the Histogram application's
 * structure is written against the estimator's GVML-shaped API and
 * the framework reports the predicted latency. The same calibration
 * flow (profile the device, fit Eq. 1) is shown explicitly; the
 * example exits nonzero if the Eq. 1 mean fit error reaches 5 %.
 */

#include <cstdio>

#include "apusim/apu.hh"
#include "model/latency_estimator.hh"
#include "model/sg_model.hh"

using namespace cisram;
using namespace cisram::model;

int
main()
{
    // Calibrate the Eq. 1 subgroup-reduction model by profiling the
    // device, as Section 3.1 prescribes for any new platform.
    apu::ApuDevice dev;
    SubgroupReductionModel sg;
    sg.calibrate(dev.core(0));
    std::printf("Eq. 1 calibrated: mean fit error %.2f%%\n",
                sg.fitError() * 100.0);
    if (sg.fitError() >= 0.05) {
        std::printf("FAIL: Eq. 1 fit error is not under 5%%\n");
        return 1;
    }

    // framework = LatencyEstimator()  (Fig. 6, line 1)
    LatencyEstimator framework;
    framework.setSgModel(sg);

    // The Fig. 6 histogram model program, transliterated.
    double total_data_size = 1024.0 * 1024 * 256 * 3;
    double tile_data_size = 8.0 * 1024 * 48;
    double tile_num = total_data_size / tile_data_size;

    framework.repeat(tile_num, [&] {
        framework.repeat(48, [&] {
            framework.repeat(2, [&] {
                framework.fastDmaL4ToL2(32 * 512); // L4 -> L2 DMA
            });
            framework.directDmaL2ToL1_32k(); // L2 -> L1 DMA
        });
        framework.repeat(48, [&] {
            framework.gvmlLoad16();
            framework.repeat(8, [&] {
                framework.gvmlCpySubgrp16Grp();
                framework.gvmlCreateGrpIndexU16();
                framework.gvmlCpyImm16();
                framework.repeat(8, [&] {
                    framework.gvmlCpy16Msk(); // masked copy
                    framework.gvmlSrImm16();  // shift right by imm
                    framework.gvmlEq16();
                    framework.gvmlCpyFromMrk16();
                });
            });
        });
        framework.repeat(8, [&] {
            framework.gvmlStore16();
            framework.directDmaL1ToL4_32k();
        });
    });

    // latency = framework.report_latency()
    std::printf("Latency: %.1f us\n", framework.microseconds());
    std::printf("        (%.3f s for %.0f MB of input)\n",
                framework.seconds(), total_data_size / 1e6);

    // The framework also answers what-if questions: halve the DMA
    // cost and re-evaluate without touching the device.
    LatencyEstimator faster;
    faster.setSgModel(sg);
    faster.table().dmaL4L2PerByte /= 2.0;
    faster.repeat(tile_num, [&] {
        faster.repeat(48, [&] {
            faster.repeat(2,
                          [&] { faster.fastDmaL4ToL2(32 * 512); });
            faster.directDmaL2ToL1_32k();
        });
    });
    std::printf("DMA portion at 2x bandwidth: %.1f us\n",
                faster.microseconds());
    return 0;
}
