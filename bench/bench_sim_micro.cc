/**
 * @file
 * google-benchmark microbenchmarks of the simulator itself: host
 * throughput of functional GVML operations, the bit-processor
 * micro-op engine, and DRAM-trace processing. These measure the
 * reproduction's own performance (simulation rate), not the modeled
 * device.
 *
 * Two modes:
 *
 *  - default: the usual google-benchmark CLI (wall-clock iteration
 *    loops, --benchmark_filter and friends).
 *
 *  - `--report-only`: skips the timing loops and instead runs a small
 *    fixed workload, emitting BENCH_sim_micro.json via BenchReport so
 *    the bench_compare gate can track the micro-op engine and the
 *    lane-extent model. The gated scalars (identity checks,
 *    plan-cache hit rate) are simulated quantities and bit-identical
 *    on any machine; host timings are reported under wall/host keys,
 *    which the gate classifies as informational.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <iterator>

#include "apusim/apu.hh"
#include "apusim/bitproc.hh"
#include "apusim/vr_file.hh"
#include "baseline/workloads.hh"
#include "bench_report.hh"
#include "common/metrics.hh"
#include "dramsim/dram_sim.hh"
#include "fleet/fleet.hh"
#include "gvml/gvml.hh"
#include "gvml/microcode.hh"
#include "common/rng.hh"
#include "kernels/bmm.hh"
#include "kernels/rag.hh"
#include "kernels/serving.hh"
#include "kernels/sort.hh"

using namespace cisram;
using namespace cisram::gvml;

namespace {

/**
 * Fill VRs 1 and 2 with data in every lane, so an element-wise op
 * over them evaluates all g.length() lanes (fresh registers have an
 * empty lane extent).
 */
void
fillOperands(Gvml &g)
{
    Rng rng(4);
    for (unsigned r : {1u, 2u})
        for (auto &v : g.data(Vr(r)))
            v = rng.nextU16();
}

void
BM_GvmlAddU16(benchmark::State &state)
{
    apu::ApuDevice dev;
    Gvml g(dev.core(0));
    fillOperands(g);
    for (auto _ : state)
        g.addU16(Vr(0), Vr(1), Vr(2));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(g.length()));
}
BENCHMARK(BM_GvmlAddU16);

void
BM_GvmlMulS16(benchmark::State &state)
{
    apu::ApuDevice dev;
    Gvml g(dev.core(0));
    fillOperands(g);
    for (auto _ : state)
        g.mulS16(Vr(0), Vr(1), Vr(2));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(g.length()));
}
BENCHMARK(BM_GvmlMulS16);

void
BM_GvmlSubgroupReduce(benchmark::State &state)
{
    apu::ApuDevice dev;
    Gvml g(dev.core(0));
    fillOperands(g);
    size_t grp = static_cast<size_t>(state.range(0));
    for (auto _ : state)
        g.addSubgrpS16(Vr(0), Vr(1), grp, 1);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(g.length()));
}
BENCHMARK(BM_GvmlSubgroupReduce)->Arg(64)->Arg(512)->Arg(1024)->Arg(32768);

void
BM_BitonicSort(benchmark::State &state)
{
    apu::ApuDevice dev;
    Gvml g(dev.core(0));
    Rng rng(1);
    for (auto _ : state) {
        state.PauseTiming();
        for (auto &v : g.data(Vr(0)))
            v = rng.nextU16();
        state.ResumeTiming();
        kernels::bitonicSortU16(g, Vr(0), false, Vr(1),
                                kernels::SortScratch::standard());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(g.length()));
}
BENCHMARK(BM_BitonicSort)->Unit(benchmark::kMillisecond);

void
BM_MicrocodeAdd(benchmark::State &state)
{
    apu::ApuDevice dev;
    auto &vrs = dev.core(0).vr();
    auto &bp = dev.core(0).bitproc();
    Rng rng(2);
    for (auto &v : vrs[0])
        v = rng.nextU16();
    for (auto &v : vrs[1])
        v = rng.nextU16();
    for (auto _ : state)
        mcAddU16(bp, 2, 0, 1, 5, 6, 7);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(vrs.length()));
}
BENCHMARK(BM_MicrocodeAdd)->Unit(benchmark::kMillisecond);

void
BM_MicrocodeMulReplay(benchmark::State &state)
{
    // Warm-cache multiplier replay: items processed = micro-ops
    // issued, so the report's items/s is the plan-replay uop rate.
    apu::ApuDevice dev;
    auto &vrs = dev.core(0).vr();
    auto &bp = dev.core(0).bitproc();
    Rng rng(3);
    for (auto &v : vrs[0])
        v = rng.nextU16();
    for (auto &v : vrs[1])
        v = rng.nextU16();
    mcMulU16(bp, 2, 0, 1, 3, 4, 5, 6, 7); // prime the plan cache
    uint64_t uops = 0;
    for (auto _ : state)
        uops += mcMulU16(bp, 2, 0, 1, 3, 4, 5, 6, 7);
    state.SetItemsProcessed(static_cast<int64_t>(uops));
}
BENCHMARK(BM_MicrocodeMulReplay)->Unit(benchmark::kMillisecond);

void
BM_DramStream(benchmark::State &state)
{
    dram::DramSystem sys(dram::hbm2eConfig());
    uint64_t bytes = 16ull << 20;
    for (auto _ : state)
        benchmark::DoNotOptimize(sys.streamReadSeconds(0, bytes));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<int64_t>(bytes));
}
BENCHMARK(BM_DramStream)->Unit(benchmark::kMillisecond);

void
BM_TimingOnlyBmmAllOpts(benchmark::State &state)
{
    for (auto _ : state) {
        apu::ApuDevice dev;
        dev.core(0).setMode(apu::ExecMode::TimingOnly);
        auto r = kernels::runBmmApu(dev, {1024, 1024, 1024},
                                    core::BmmVariant::AllOpts,
                                    nullptr);
        benchmark::DoNotOptimize(r.cycles.total());
    }
}
BENCHMARK(BM_TimingOnlyBmmAllOpts)->Unit(benchmark::kMillisecond);

// ---- deterministic report mode (--report-only) -------------------

double
elapsedSeconds(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/**
 * Median host seconds of five calls of `call`, each timed alone: the
 * steady cost of a warm call, past the warm-up the first calls after
 * staging still pay.
 */
double
medianWarmSeconds(const std::function<void()> &call)
{
    std::vector<double> secs;
    for (int i = 0; i < 5; ++i) {
        auto t0 = std::chrono::steady_clock::now();
        call();
        secs.push_back(elapsedSeconds(t0));
    }
    std::sort(secs.begin(), secs.end());
    return secs[secs.size() / 2];
}

/**
 * Lane-extent identity over the per-supertile op sequence of
 * RagRetriever::retrieveBatch, for one ragged supertile of 1000
 * corpus rows at batch 2: plane ingest (the rows as the slot's head,
 * a zero tail), load16 and macImmS16 per dimension, then the admit
 * plane, the bias xor16, the cpyImm16Nmsk mask and top-5 extraction.
 * Core 0 starts from random heads and tails; core 1 holds the same
 * contents and materializes every register before each op, i.e.
 * evaluates at full width. True when the two agree on every lane of
 * every VR and VMR after every op, on the winners, cycles and uops.
 */
bool
laneExtentIdentity()
{
    constexpr size_t rows = 1000, dim = 16, k = 5;
    const baseline::RagCorpusSpec spec{"ragged", 0, rows, dim};
    std::vector<int16_t> emb = baseline::genEmbeddings(spec, 0, rows, 5);
    std::vector<int16_t> q0 = baseline::genQuery(dim, 1),
                         q1 = baseline::genQuery(dim, 2);

    using Step = std::function<void(apu::ApuCore &, std::vector<uint64_t> &)>;
    std::vector<Step> steps;
    auto op = [&](auto fn) {
        steps.push_back([fn](apu::ApuCore &core, std::vector<uint64_t> &) {
            Gvml g(core);
            fn(g);
        });
    };
    auto ingest = [&](unsigned vmr, std::vector<uint16_t> plane) {
        steps.push_back([vmr, plane](apu::ApuCore &core,
                                     std::vector<uint64_t> &) {
            apu::LaneVector &slot = core.l1().lanes(vmr);
            std::copy(plane.begin(), plane.end(), slot.head());
            slot.setExtent(plane.size(), 0);
        });
    };
    const Vr accs[2] = {Vr(8), Vr(9)};
    op([](Gvml &g) { g.cpyImm16(Vr(4), 0x8000); });
    for (Vr a : accs)
        op([a](Gvml &g) { g.cpyImm16(a, 0); });
    for (size_t d = 0; d < dim; ++d) {
        std::vector<uint16_t> plane(rows);
        for (size_t i = 0; i < rows; ++i)
            plane[i] = static_cast<uint16_t>(emb[i * dim + d]);
        ingest(0, std::move(plane));
        op([](Gvml &g) { g.load16(Vr(0), Vmr(0)); });
        const uint16_t imm0 = static_cast<uint16_t>(q0[d]),
                       imm1 = static_cast<uint16_t>(q1[d]);
        op([=](Gvml &g) {
            const uint16_t imms[2] = {imm0, imm1};
            g.macImmS16(Vr(0), Vr(1), Vr(2), accs, imms, 2);
        });
    }
    std::vector<uint16_t> admit(rows);
    for (size_t i = 0; i < rows; ++i)
        admit[i] = i % 4 != 0;
    ingest(1, std::move(admit));
    op([](Gvml &g) { g.load16(Vr(6), Vmr(1)); });
    for (Vr a : accs) {
        op([a](Gvml &g) { g.xor16(a, a, Vr(4)); });
        op([a](Gvml &g) { g.cpyImm16Nmsk(a, 0x0000, Vr(6)); });
        for (size_t i = 0; i < k; ++i)
            steps.push_back([a](apu::ApuCore &core,
                                std::vector<uint64_t> &w) {
                auto mx = Gvml(core).maxIndexU16(a);
                w.push_back(static_cast<uint64_t>(mx.value) << 32 |
                            mx.index);
                core.rspSet(a.idx, mx.index, 0);
            });
    }

    apu::ApuDevice dev;
    apu::ApuCore &narrow = dev.core(0), &full = dev.core(1);
    // Random heads of assorted extents and random tails on core 0,
    // the same lanes materialized on core 1.
    const size_t his[] = {0, 1, 63, 1000, narrow.vr().length()};
    Rng rng(6);
    auto seed = [&](apu::LaneVector &v, std::vector<uint16_t> &out,
                    size_t k) {
        size_t hi = his[k % std::size(his)];
        for (size_t i = 0; i < hi; ++i)
            v.head()[i] = rng.nextU16();
        v.setExtent(hi, rng.nextU16());
        for (size_t i = 0; i < out.size(); ++i)
            out[i] = v.lane(i);
    };
    for (unsigned r = 0; r < narrow.vr().numVrs(); ++r)
        seed(narrow.vr().lanes(r), full.vr()[r], r);
    for (unsigned m = 0; m < narrow.l1().numVmrs(); ++m)
        seed(narrow.l1().lanes(m), full.l1().slot(m), m);

    auto sameLanes = [&](const apu::LaneVector &a,
                         const std::vector<uint16_t> &b) {
        for (size_t i = 0; i < b.size(); ++i)
            if (a.lane(i) != b[i])
                return false;
        return true;
    };
    std::vector<uint64_t> winners[2];
    bool same = true;
    for (const Step &step : steps) {
        step(narrow, winners[0]);
        for (unsigned r = 0; r < full.vr().numVrs(); ++r)
            full.vr()[r];
        for (unsigned m = 0; m < full.l1().numVmrs(); ++m)
            full.l1().slot(m);
        step(full, winners[1]);
        for (unsigned r = 0; r < narrow.vr().numVrs(); ++r)
            same = same && sameLanes(narrow.vr().lanes(r), full.vr()[r]);
        for (unsigned m = 0; m < narrow.l1().numVmrs(); ++m)
            same = same && sameLanes(narrow.l1().lanes(m), full.l1().slot(m));
    }
    return same && winners[0] == winners[1] &&
        narrow.stats().cycles() == full.stats().cycles() &&
        narrow.stats().uops() == full.stats().uops();
}

/**
 * Fixed-workload run feeding BENCH_sim_micro.json. Every gated
 * scalar is a simulated quantity (identity flag or cache hit rate)
 * and must reproduce bit-for-bit on any host; everything wall-clock
 * carries a host/wall key so bench_compare treats it as
 * informational.
 */
int
runSimMicroReport()
{
    bench::BenchReport report("sim_micro");
    report.note("mode",
                "--report-only: fixed deterministic workload, no "
                "google-benchmark timing loops");

    // Word-parallel engine vs retained scalar reference over the
    // microcode suite (adder, multiplier, xor, reduction): same
    // micro-op count, same final VR file.
    {
        apu::VrFile vw(8, 512, 4);
        apu::VrFile vs(8, 512, 4);
        for (unsigned r = 0; r < 2; ++r) {
            Rng rng(11 + r);
            for (auto &v : vw[r])
                v = rng.nextU16();
            Rng rng2(11 + r);
            for (auto &v : vs[r])
                v = rng2.nextU16();
        }
        apu::BitProcArray bw(vw);
        apu::BitProcArray bs(vs);
        bs.setScalarReference(true);
        uint64_t uw = 0, us = 0;
        uw += mcAddU16(bw, 2, 0, 1, 5, 6, 7);
        us += mcAddU16(bs, 2, 0, 1, 5, 6, 7);
        uw += mcXor16(bw, 3, 0, 1, 5);
        us += mcXor16(bs, 3, 0, 1, 5);
        uw += mcSubU16(bw, 4, 0, 1, 5, 6, 7, 2);
        us += mcSubU16(bs, 4, 0, 1, 5, 6, 7, 2);
        uw += mcMulU16(bw, 2, 0, 1, 3, 4, 5, 6, 7);
        us += mcMulU16(bs, 2, 0, 1, 3, 4, 5, 6, 7);
        uw += mcAllBitsSet(bw, 3, 2);
        us += mcAllBitsSet(bs, 3, 2);
        bool same = uw == us;
        for (unsigned r = 0; r < 8 && same; ++r)
            same = std::equal(vw[r].begin(), vw[r].end(),
                              vs[r].begin());
        report.scalar("wordparallel_identity", same ? 1.0 : 0.0);
        report.scalar("mc_suite_uops_per_run",
                      static_cast<double>(uw));
    }

    // Plan cache: 10 rounds of {add, mul} after a clear is 2 misses
    // then 18 replays.
    {
        apu::VrFile vrs(8, 512, 4);
        apu::BitProcArray bp(vrs);
        mcPlanCacheClear();
        for (int i = 0; i < 10; ++i) {
            mcAddU16(bp, 2, 0, 1, 5, 6, 7);
            mcMulU16(bp, 2, 0, 1, 3, 4, 5, 6, 7);
        }
        auto st = mcPlanCacheStats();
        double total = static_cast<double>(st.hits + st.misses);
        report.scalar("plan_cache_hit_rate",
                      total ? static_cast<double>(st.hits) / total
                            : 0.0);
    }

    // Fused MAC vs the unfused cpyImm/mul/add triple: identical
    // cycles, uops, and VR state on two cores fed identical data.
    {
        apu::ApuDevice dev;
        Gvml gf(dev.core(0));
        Gvml gu(dev.core(1));
        for (unsigned r = 0; r < 6; ++r) {
            Rng rng(100 + r);
            for (auto &v : dev.core(0).vr()[r])
                v = rng.nextU16();
            Rng rng2(100 + r);
            for (auto &v : dev.core(1).vr()[r])
                v = rng2.nextU16();
        }
        const uint16_t imms[3] = {0x0003, 0xfffe, 0x7f01};
        const Vr accs[3] = {Vr(3), Vr(4), Vr(5)};
        gf.macImmS16(Vr(0), Vr(1), Vr(2), accs, imms, 3);
        for (int q = 0; q < 3; ++q) {
            gu.cpyImm16(Vr(1), imms[q]);
            gu.mulS16(Vr(2), Vr(0), Vr(1));
            gu.addS16(accs[q], accs[q], Vr(2));
        }
        bool same =
            dev.core(0).stats().cycles() ==
                dev.core(1).stats().cycles() &&
            dev.core(0).stats().uops() == dev.core(1).stats().uops();
        for (unsigned r = 0; r < 6 && same; ++r)
            same = std::equal(dev.core(0).vr()[r].begin(),
                              dev.core(0).vr()[r].end(),
                              dev.core(1).vr()[r].begin());
        report.scalar("fused_mac_identity", same ? 1.0 : 0.0);
        report.scalar("fused_mac_cycles",
                      dev.core(0).stats().cycles());
    }

    // Host-side micro-op replay throughput (informational: varies by
    // machine).
    {
        apu::ApuDevice dev;
        auto &vrs = dev.core(0).vr();
        auto &bp = dev.core(0).bitproc();
        Rng rng(3);
        for (auto &v : vrs[0])
            v = rng.nextU16();
        for (auto &v : vrs[1])
            v = rng.nextU16();
        mcMulU16(bp, 2, 0, 1, 3, 4, 5, 6, 7); // prime the cache
        constexpr int iters = 4;
        uint64_t uops = 0;
        auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < iters; ++i)
            uops += mcMulU16(bp, 2, 0, 1, 3, 4, 5, 6, 7);
        double secs = elapsedSeconds(t0);
        report.scalar("mc_mul_replay_host_wall_seconds", secs);
        report.scalar("mc_mul_replay_host_muops_per_sec",
                      secs > 0.0 ? static_cast<double>(uops) / secs /
                                       1e6
                                 : 0.0);
    }

    // The retrieval sections run with detailed metrics off, so the
    // snapshot's per-op counters stay those of the fused-MAC section.
    metrics::setEnabled(false);

    report.scalar("lane_extent_identity",
                  laneExtentIdentity() ? 1.0 : 0.0);

    // Host time of a warm functional batch-1 retrieveBatch over a
    // 1 024-row shard (informational: varies by machine).
    {
        apu::ApuDevice dev;
        dram::DramSystem hbm(dram::hbm2eConfig());
        const baseline::RagCorpusSpec shard{"shard", 0, 1024, 368};
        kernels::RagRetriever r(dev, hbm, shard, 10);
        const std::vector<std::vector<int16_t>> qs = {
            baseline::genQuery(shard.dim, 1)};
        r.retrieveBatch(qs, 77); // stages the shard's planes
        report.scalar("rag_scan_host_wall_seconds", medianWarmSeconds([&] {
                          benchmark::DoNotOptimize(r.retrieveBatch(qs, 77));
                      }));
    }

    // Host time of a warm functional retrieve per Table 8 mapping over
    // a 16 384-chunk corpus (informational: varies by machine).
    {
        apu::ApuDevice dev;
        dram::DramSystem hbm(dram::hbm2eConfig());
        const baseline::RagCorpusSpec corpus{"mappings", 0, 16384, 368};
        kernels::RagRetriever r(dev, hbm, corpus, 10);
        const std::vector<int16_t> q = baseline::genQuery(corpus.dim, 1);
        using kernels::RagVariant;
        for (RagVariant v : {RagVariant::NoOpt, RagVariant::Opt1,
                             RagVariant::Opt2, RagVariant::Opt3,
                             RagVariant::AllOpts}) {
            r.retrieve(q, v, 77); // stages the mapping's layout
            std::string key = kernels::ragVariantName(v);
            std::replace(key.begin(), key.end(), '-', '_');
            report.scalar("rag_mapping_host_wall_seconds." + key,
                          medianWarmSeconds([&] {
                              benchmark::DoNotOptimize(r.retrieve(q, v, 77));
                          }));
        }
    }

    // Host time of one warm subgroup reduction as the spatial
    // mappings issue it per tile (grp 512, subgroup 1, in place) on a
    // filled 32 768-lane VR (informational: varies by machine).
    {
        apu::ApuDevice dev;
        Gvml g(dev.core(0));
        fillOperands(g);
        g.addSubgrpS16(Vr(1), Vr(1), 512, 1);
        auto t0 = std::chrono::steady_clock::now();
        g.addSubgrpS16(Vr(1), Vr(1), 512, 1);
        report.scalar("subgroup_reduce_host_wall_seconds",
                      elapsedSeconds(t0));
    }

    // Host time of serving set-up (informational: varies by
    // machine), under a private registry so the snapshot's metrics
    // stay those of the sections above.
    {
        auto shard = metrics::Registry::makeShard();
        metrics::ShardScope scope(shard.get());

        // A functional IVF fleet in repobench serve_functional's
        // shape: one golden and one clustering per shard, shared by
        // its two replicas.
        fleet::FleetConfig cfg;
        cfg.devices = 4;
        cfg.replicas = 2;
        cfg.shards = 8;
        cfg.functional = true;
        cfg.server.ivf.enabled = true;
        cfg.server.ivf.build = {4, 4096, 4};
        const baseline::RagCorpusSpec corpus{"fleet", 0, 8192, 368, 0,
                                             32};
        auto t0 = std::chrono::steady_clock::now();
        fleet::Router router(corpus, 77, cfg);
        report.scalar("ivf_fleet_setup_host_wall_seconds",
                      elapsedSeconds(t0));

        // A fresh functional server on a 1 024-chunk shard with its
        // golden, serving one query: staging plus one scan.
        apu::ApuDevice dev;
        const baseline::RagCorpusSpec spec{"shard", 0, 1024, 368};
        baseline::IndexFlatI16 golden(
            spec.dim, baseline::genEmbeddings(spec, 0, spec.numChunks, 77));
        t0 = std::chrono::steady_clock::now();
        kernels::DeviceServer server(dev, spec, 0, &golden, 77);
        cisram_assert(server.enqueueAt(1, baseline::genQuery(spec.dim, 1),
                                       0.0)
                          .ok(),
                      "sim_micro: the query was not admitted");
        auto outs = server.drain();
        benchmark::DoNotOptimize(outs);
        report.scalar("server_first_batch_host_wall_seconds",
                      elapsedSeconds(t0));
    }

    report.write();
    std::printf("wrote %s\n", report.path().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--report-only") == 0)
            return runSimMicroReport();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
