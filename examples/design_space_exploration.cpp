/**
 * @file
 * Architectural design-space exploration with the analytical
 * framework: how would the paper's RAG retrieval respond to a
 * next-generation device with faster lookup engines, cheaper PIO,
 * or longer vector registers? (Section 1: the framework "informs
 * the design of next-generation in-SRAM computing architectures".)
 * Exits nonzero if the latency ever rises as the VR length grows or
 * the multiplier latency shrinks.
 */

#include <cmath>
#include <cstdio>

#include "apusim/apu.hh"
#include "model/dse.hh"
#include "model/latency_estimator.hh"
#include "model/sg_model.hh"

using namespace cisram;
using namespace cisram::model;

namespace {

/**
 * Analytical model of the optimized RAG distance computation at the
 * 200 GB scale: 101 super-tiles x 368 dimension planes, one
 * element-wise MAC per plane plus the plane ingest handshake.
 */
double
ragDistanceMs(const CostTable &t)
{
    LatencyEstimator e(t);
    double chunks = 3.3e6;
    double supertiles =
        std::ceil(chunks / static_cast<double>(t.vrLength));
    e.repeat(supertiles, [&] {
        e.gvmlCpyImm16();
        e.repeat(368, [&] {
            e.charge(t.dmaL4L2Init / 2 + 14 + t.dmaL2L1);
            e.gvmlLoad16();
            e.gvmlCpyImm16();
            e.gvmlMulS16();
            e.gvmlAddS16();
        });
    });
    return e.seconds() * 1e3;
}

} // namespace

int
main()
{
    std::printf("== What-if: RAG distance calculation (200 GB) on "
                "hypothetical devices ==\n");
    DesignSpaceExplorer dse;

    std::printf("\nbaseline device: %.1f ms\n",
                ragDistanceMs(CostTable{}));

    std::printf("\nVR length sweep (longer vectors amortize the "
                "per-plane handshake):\n");
    auto vr = DesignSpaceExplorer::vrLength(
        {16384, 32768, 65536, 131072, 262144});
    auto vr_points = dse.sweep(vr, ragDistanceMs);
    for (auto p : vr_points)
        std::printf("  l = %7.0f : %7.1f ms\n", p.value,
                    p.objective);

    std::printf("\nmul_s16 latency sweep (a faster multiplier "
                "microcode):\n");
    DesignParameter mul{"mul_s16",
                        [](CostTable &t, double v) { t.mulS16 = v; },
                        {201, 115, 77, 40}};
    auto mul_points = dse.sweep(mul, ragDistanceMs);
    for (auto p : mul_points)
        std::printf("  mul_s16 = %3.0f cycles : %7.1f ms\n",
                    p.value, p.objective);

    std::printf("\n2-D sweep: VR length x multiplier latency:\n");
    DesignParameter vr2 = DesignSpaceExplorer::vrLength(
        {32768, 131072});
    for (auto p : dse.sweep2D(vr2, mul, ragDistanceMs))
        std::printf("  l = %6.0f, mul = %3.0f : %7.1f ms\n", p.a,
                    p.b, p.objective);

    std::printf("\nConclusion: once the data movement is optimized, "
                "the multiplier microcode dominates -- the same "
                "guidance the paper draws for next-generation "
                "devices.\n");

    // Both sweeps list their values in the improving direction.
    for (const auto *points : {&vr_points, &mul_points}) {
        for (size_t i = 1; i < points->size(); ++i) {
            if ((*points)[i].objective > (*points)[i - 1].objective) {
                std::printf("FAIL: latency rose from %.1f to %.1f ms "
                            "at %.0f\n",
                            (*points)[i - 1].objective,
                            (*points)[i].objective,
                            (*points)[i].value);
                return 1;
            }
        }
    }
    return 0;
}
