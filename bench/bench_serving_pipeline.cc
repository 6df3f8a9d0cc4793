/**
 * @file
 * Serving-pipeline sweep (extension): batch size x overlapped
 * streaming. Each configuration drives one core's DeviceServer —
 * admission queue, batch former, one retrieveBatch call per formed
 * batch — over the same query stream at paper scale (200 GB corpus,
 * TimingOnly), and reports aggregate QPS plus served-latency
 * percentiles with queue wait included.
 *
 * The acceptance bar for the pipeline: batched (B=8) + overlapped
 * streaming must clear 2x the QPS of sequential single-query serving
 * on identical queries, with bit-identical functional top-k (checked
 * here on a small corpus).
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "baseline/workloads.hh"
#include "bench_report.hh"
#include "common/metrics.hh"
#include "common/table.hh"
#include "kernels/rag.hh"
#include "kernels/serving.hh"
#include "obs/flight.hh"
#include "obs/slo.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::kernels;

namespace {

constexpr int kQueries = 32;
constexpr uint64_t kSeed = 2026;

struct SweepPoint
{
    size_t batch;
    bool overlap;
    double qps = 0;
    double p50 = 0, p95 = 0, p99 = 0;
    size_t flightsCompleted = 0;
    size_t flightsReconciled = 0;
};

/**
 * @param slo Fed this point's served latencies (completion order)
 *     under class `sloClass` when non-null — the sweep's endpoints
 *     (sequential B=1 and batched B=8 + overlap) each get a windowed
 *     SLO verdict against their own budget.
 */
SweepPoint
runPoint(const RagCorpusSpec &spec, size_t batch, bool overlap,
         obs::SloMonitor *slo = nullptr,
         const char *sloClass = nullptr)
{
    SweepPoint pt{batch, overlap};

    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);

    ServerConfig cfg;
    cfg.topK = 5;
    cfg.batch = BatchPolicy{batch, batch};
    cfg.overlapStream = overlap;
    // Span trees for every query; the sweep doubles as a
    // reconciliation check over the clean batched path.
    cfg.flight.mode = obs::FlightConfig::Mode::On;
    DeviceServer server(dev, spec, 0, nullptr, kSeed, cfg);

    metrics::Histogram served;
    for (int q = 0; q < kQueries; ++q)
        server.enqueueAt(static_cast<uint64_t>(q),
                         genQuery(spec.dim, 1000 + q),
                         server.busySeconds());
    for (const ServeOutcome &out : server.drain()) {
        served.observe(out.servedSeconds());
        if (slo)
            slo->observe(sloClass, out.servedSeconds());
    }

    pt.qps = kQueries / server.busySeconds();
    pt.p50 = served.quantile(0.50);
    pt.p95 = served.quantile(0.95);
    pt.p99 = served.quantile(0.99);
    pt.flightsCompleted = server.flightRecorder().completedCount();
    pt.flightsReconciled = server.flightRecorder().reconciledCount();
    return pt;
}

/**
 * Functional bit-identity: the batched, overlapped pass must return
 * exactly the top-k the sequential single-query path returns — the
 * overlap is a timing-ledger change, never a result change.
 */
bool
identityCheck()
{
    RagCorpusSpec corpus{"check", 0, 6000, 368};
    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, corpus, 5);

    std::vector<std::vector<int16_t>> queries;
    for (int q = 0; q < 8; ++q)
        queries.push_back(genQuery(corpus.dim, 1000 + q));

    auto batched =
        retriever.retrieveBatch(queries, kSeed, RagBatchOptions{true});
    for (size_t q = 0; q < queries.size(); ++q) {
        auto single = retriever.retrieve(
            queries[q], RagVariant::AllOpts, kSeed);
        if (single.hits.size() != batched[q].hits.size())
            return false;
        for (size_t i = 0; i < single.hits.size(); ++i)
            if (single.hits[i].id != batched[q].hits[i].id)
                return false;
    }
    return true;
}

} // namespace

int
main()
{
    std::printf("== Serving pipeline: batch size x overlapped "
                "streaming ==\n");
    const auto &spec = ragCorpora()[2]; // 200 GB
    std::printf("corpus: %s (%zu chunks), %d queries through one "
                "core's pipeline per point\n\n",
                spec.label, spec.numChunks, kQueries);

    bool identical = identityCheck();
    std::printf("functional top-k identity (batched+overlapped vs "
                "sequential): %s\n\n",
                identical ? "PASS" : "FAIL");

    // Windowed SLO verdicts at the sweep's endpoints: sequential
    // serving pays head-of-line blocking for the whole stream (its
    // budget is wide), the batched+overlapped pipeline is held to a
    // tight one. Targets sit just above each mode's steady p99 so a
    // pipeline regression shows up as burn, not noise.
    obs::SloPolicy sloPolicy;
    sloPolicy.windowQueries = 8;
    sloPolicy.classes.push_back(
        obs::SloClass{"sequential", 3.0, 0.99});
    sloPolicy.classes.push_back(obs::SloClass{"batched", 1.0, 0.99});
    obs::SloMonitor slo(sloPolicy);

    AsciiTable table({"batch", "overlap", "QPS", "served p50 (ms)",
                      "served p95 (ms)", "served p99 (ms)",
                      "speedup vs seq"});
    std::vector<SweepPoint> points;
    double base_qps = 0;
    for (size_t batch : {1u, 2u, 4u, 8u}) {
        for (bool overlap : {false, true}) {
            bool seq_point = batch == 1 && !overlap;
            bool best_point = batch == 8 && overlap;
            SweepPoint pt = runPoint(
                spec, batch, overlap,
                seq_point || best_point ? &slo : nullptr,
                seq_point ? "sequential" : "batched");
            if (batch == 1 && !overlap)
                base_qps = pt.qps;
            table.addRow({std::to_string(batch),
                          overlap ? "on" : "off",
                          formatDouble(pt.qps, 1),
                          formatDouble(pt.p50 * 1e3, 1),
                          formatDouble(pt.p95 * 1e3, 1),
                          formatDouble(pt.p99 * 1e3, 1),
                          formatDouble(pt.qps / base_qps, 2) + "x"});
            points.push_back(pt);
        }
    }
    table.print();

    const SweepPoint &best = points.back(); // batch 8, overlap on
    double speedup = best.qps / base_qps;
    std::printf("\nbatched (B=8) + overlapped streaming: %.2fx the "
                "sequential single-query QPS (target >= 2x): %s\n",
                speedup, speedup >= 2.0 ? "PASS" : "FAIL");

    size_t completed = 0, reconciled = 0;
    for (const SweepPoint &pt : points) {
        completed += pt.flightsCompleted;
        reconciled += pt.flightsReconciled;
    }
    bool reconciled_ok =
        completed == points.size() * kQueries &&
        reconciled == completed;
    std::printf("flight-recorder reconciliation (%zu/%zu queries "
                "across all %zu sweep points): %s\n",
                reconciled, completed, points.size(),
                reconciled_ok ? "PASS" : "FAIL");

    slo.flush();
    double worst_burn = slo.worstBurnRate();
    std::printf("SLO burn (seq target 3.0 s, batched target 1.0 s, "
                "%zu-query windows): worst %.2f, breached windows "
                "%llu\n",
                static_cast<size_t>(sloPolicy.windowQueries),
                worst_burn,
                static_cast<unsigned long long>(
                    slo.breachedWindows()));
    std::printf("the embedding stream amortizes across the batch "
                "and then hides behind the batch's MAC work; queue "
                "wait (included in served latency) is the price of "
                "batching.\n");

    bench::BenchReport report("serving_pipeline");
    report.scalar("queries_per_point", kQueries);
    report.scalar("functional_identity", identical ? 1 : 0);
    for (const SweepPoint &pt : points) {
        std::string key = "b" + std::to_string(pt.batch) +
            (pt.overlap ? "_overlap" : "_seq");
        report.scalar("qps_" + key, pt.qps);
        report.scalar("served_p50_" + key, pt.p50);
        report.scalar("served_p95_" + key, pt.p95);
        report.scalar("served_p99_" + key, pt.p99);
    }
    report.scalar("speedup_b8_overlap_vs_seq", speedup);
    report.scalar("flights_completed",
                  static_cast<double>(completed));
    report.scalar("flights_reconciled",
                  static_cast<double>(reconciled));
    report.scalar("slo_worst_burn_rate", worst_burn);
    report.scalar("slo_breached_windows",
                  static_cast<double>(slo.breachedWindows()));
    report.write();

    return (identical && speedup >= 2.0 && reconciled_ok) ? 0 : 1;
}
