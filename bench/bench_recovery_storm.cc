/**
 * @file
 * Recovery storm (extension): quantify what a device reset costs a
 * live serving pipeline. One core's DeviceServer runs three equal
 * query phases at paper scale (200 GB corpus, TimingOnly):
 *
 *   before — steady-state batched serving (the pre-fault baseline);
 *   during — the same load, but after the first batch is served the
 *            device is force-reset mid-stream: the gdl session
 *            re-allocates, the corpus shard re-stages over PCIe,
 *            and every journaled in-flight query replays with its
 *            original admission timestamp;
 *   after  — steady-state again on the recovered core.
 *
 * The acceptance bar for the escalation ladder: a reset is a blip,
 * not a regime change — post-reset QPS must be >= 0.95x the
 * pre-fault QPS (the DramAllocator's size-keyed free lists hand the
 * rebuilt session the same addresses, so the recovered core's
 * timing ledger is bit-identical to the baseline), and every
 * storm-phase query is delivered exactly once.
 */

#include <cstdio>
#include <set>
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

constexpr int kQueries = 32; // per phase
constexpr uint64_t kSeed = 2026;

/**
 * Windowed SLO target for every phase: just above the steady-state
 * served p99 (head-of-line queue wait included), so the pre/post
 * phases burn ~0 error budget and the storm phase's burn rate is the
 * SLO-granularity cost of the reset.
 */
constexpr double kSloTargetSeconds = 1.0;

struct PhaseResult
{
    double qps = 0;
    double p50 = 0, p99 = 0;
    size_t delivered = 0;
    bool exactlyOnce = true;
    bool allOk = true;
};

ServerConfig
stormConfig()
{
    ServerConfig cfg;
    cfg.topK = 5;
    cfg.batch = BatchPolicy{8, 8};
    cfg.overlapStream = true;
    cfg.health.enabled = true; // reset runs the full ladder
    // Record every query's span tree: the forced reset exercises the
    // park → reset → replay path, and the reconciliation check below
    // proves replayed queries still account bit-exactly.
    cfg.flight.mode = obs::FlightConfig::Mode::On;
    return cfg;
}

/**
 * Serve kQueries through the server; when `resetAfterFirstBatch`,
 * force the device reset once the first batch has been served, so
 * the remaining journaled queries ride the reset + replay path.
 * Phase QPS comes from the server's simulated busy-clock delta,
 * which includes the reset + re-stage time.
 */
PhaseResult
runPhase(DeviceServer &server, const RagCorpusSpec &spec,
         uint64_t idBase, bool resetAfterFirstBatch,
         gdl::ResetOutcome *resetOut, obs::SloMonitor &slo,
         const char *phase)
{
    PhaseResult res;
    double busy0 = server.busySeconds();

    std::vector<ServeOutcome> outs;
    auto admit = [&](int q) {
        server.enqueueAt(idBase + static_cast<uint64_t>(q),
                         genQuery(spec.dim,
                                  static_cast<int>(idBase) + q),
                         server.busySeconds());
    };
    int q = 0;
    if (resetAfterFirstBatch) {
        // Serve one full batch in steady state, then admit the rest
        // of the phase and reset mid-stream: those queries are
        // outstanding in the admission journal and replay on the
        // rebuilt session.
        for (; q < 8; ++q)
            admit(q);
        for (ServeOutcome &out :
             server.pumpUntil(server.busySeconds()))
            outs.push_back(std::move(out));
        for (; q < kQueries; ++q)
            admit(q);
        *resetOut = server.forceReset();
    }
    for (; q < kQueries; ++q)
        admit(q);
    for (ServeOutcome &out : server.drain())
        outs.push_back(std::move(out));

    metrics::Histogram served;
    std::set<uint64_t> ids;
    for (const ServeOutcome &out : outs) {
        served.observe(out.servedSeconds());
        slo.observe(phase, out.servedSeconds());
        res.exactlyOnce =
            res.exactlyOnce && ids.insert(out.id).second;
        res.allOk = res.allOk && out.ok && out.fromDevice;
    }
    res.delivered = outs.size();
    res.exactlyOnce = res.exactlyOnce && outs.size() == kQueries;
    res.qps = kQueries / (server.busySeconds() - busy0);
    res.p50 = served.quantile(0.50);
    res.p99 = served.quantile(0.99);
    return res;
}

} // namespace

int
main()
{
    std::printf("== Recovery storm: serving QPS across a forced "
                "device reset ==\n");
    const auto &spec = ragCorpora()[2]; // 200 GB
    std::printf("corpus: %s (%zu chunks), %d queries per phase "
                "through one core's pipeline (batch <= 8, "
                "overlapped stream)\n\n",
                spec.label, spec.numChunks, kQueries);

    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    DeviceServer server(dev, spec, 0, nullptr, kSeed,
                        stormConfig());

    // Per-phase tumbling SLO windows (one batch per window) against
    // a shared steady-state target: the storm phase's burn rate is
    // the reset's SLO cost.
    obs::SloPolicy sloPolicy;
    sloPolicy.windowQueries = 8;
    for (const char *phase : {"before", "during", "after"})
        sloPolicy.classes.push_back(
            obs::SloClass{phase, kSloTargetSeconds, 0.99});
    obs::SloMonitor slo(sloPolicy);

    gdl::ResetOutcome reset;
    PhaseResult before =
        runPhase(server, spec, 0, false, nullptr, slo, "before");
    PhaseResult during =
        runPhase(server, spec, 1000, true, &reset, slo, "during");
    PhaseResult after =
        runPhase(server, spec, 2000, false, nullptr, slo, "after");
    slo.flush();

    AsciiTable table({"phase", "QPS", "served p50 (ms)",
                      "served p99 (ms)", "delivered",
                      "exactly-once"});
    auto row = [&](const char *name, const PhaseResult &r) {
        table.addRow({name, formatDouble(r.qps, 1),
                      formatDouble(r.p50 * 1e3, 1),
                      formatDouble(r.p99 * 1e3, 1),
                      std::to_string(r.delivered) + "/" +
                          std::to_string(kQueries),
                      r.exactlyOnce && r.allOk ? "yes" : "NO"});
    };
    row("before", before);
    row("during (forced reset)", during);
    row("after", after);
    table.print();

    std::printf("\nreset: %.2f ms simulated (re-init + %.1f MB "
                "shard re-staged over PCIe), %u reset(s), %llu "
                "replayed quer%s\n",
                reset.seconds * 1e3, reset.restagedBytes / 1e6,
                server.resets(),
                static_cast<unsigned long long>(
                    server.replayedQueries()),
                server.replayedQueries() == 1 ? "y" : "ies");

    double post_ratio = after.qps / before.qps;
    bool delivery_ok = before.exactlyOnce && before.allOk &&
        during.exactlyOnce && during.allOk && after.exactlyOnce &&
        after.allOk;
    bool qps_ok = post_ratio >= 0.95;
    std::printf("post-reset QPS is %.3fx the pre-fault QPS "
                "(target >= 0.95x): %s\n",
                post_ratio, qps_ok ? "PASS" : "FAIL");
    std::printf("every query in every phase delivered exactly once "
                "from the device: %s\n",
                delivery_ok ? "PASS" : "FAIL");

    // The flight recorder watched all three phases, including the
    // park → reset → replay of the storm batch; every delivered
    // query's final-round spans must reproduce its served latency
    // bit-exactly.
    const obs::FlightRecorder &fr = server.flightRecorder();
    bool reconciled_ok = fr.completedCount() == 3 * kQueries &&
        fr.reconciledCount() == fr.completedCount();
    std::printf("flight-recorder reconciliation (%zu/%zu queries "
                "bit-exact across the reset): %s\n",
                fr.reconciledCount(), fr.completedCount(),
                reconciled_ok ? "PASS" : "FAIL");

    auto burnOf = [&](const char *phase) {
        double worst = 0;
        for (const auto &w : slo.windows())
            if (w.cls == phase && w.burnRate > worst)
                worst = w.burnRate;
        return worst;
    };
    std::printf("SLO burn rate (target %.0f ms, %zu-query windows): "
                "before %.2f, during %.2f, after %.2f; breached "
                "windows %llu\n",
                kSloTargetSeconds * 1e3,
                static_cast<size_t>(sloPolicy.windowQueries),
                burnOf("before"), burnOf("during"), burnOf("after"),
                static_cast<unsigned long long>(
                    slo.breachedWindows()));

    bench::BenchReport report("recovery_storm");
    report.scalar("queries_per_phase", kQueries);
    report.scalar("qps_before", before.qps);
    report.scalar("qps_during", during.qps);
    report.scalar("qps_after", after.qps);
    report.scalar("served_p99_before", before.p99);
    report.scalar("served_p99_during", during.p99);
    report.scalar("served_p99_after", after.p99);
    report.scalar("reset_seconds", reset.seconds);
    report.scalar("restaged_bytes",
                  static_cast<double>(reset.restagedBytes));
    report.scalar("replayed_queries",
                  static_cast<double>(server.replayedQueries()));
    report.scalar("resets", server.resets());
    report.scalar("post_reset_qps_ratio", post_ratio);
    report.scalar("exactly_once", delivery_ok ? 1 : 0);
    report.scalar("flights_completed",
                  static_cast<double>(fr.completedCount()));
    report.scalar("flights_reconciled",
                  static_cast<double>(fr.reconciledCount()));
    report.scalar("slo_burn_before", burnOf("before"));
    report.scalar("slo_burn_during", burnOf("during"));
    report.scalar("slo_burn_after", burnOf("after"));
    report.scalar("slo_breached_windows",
                  static_cast<double>(slo.breachedWindows()));
    report.write();

    return (qps_ok && delivery_ok && reconciled_ok) ? 0 : 1;
}
