/**
 * @file
 * Fleet scaling (extension): shard the 200 GB corpus across 1..16
 * simulated APU devices behind the fleet router and measure how
 * serving QPS scales, at replication R=1 and R=2.
 *
 * Three phases:
 *
 *   functional — a small corpus served by a 4-device R=2 fleet,
 *     once clean and once with a device killed mid-stream: every
 *     merged top-k must be bit-identical to the unsharded golden
 *     index in both runs, with exactly-once delivery and zero shed
 *     queries. Correctness first; the sweep below is timing-only.
 *
 *   sweep — N in {1, 2, 4, 8, 16} x R in {1, 2} at paper scale
 *     (200 GB, TimingOnly, S=128 shards). QPS = queries / fleet
 *     makespan (the busiest device's core-serialized busy clock).
 *     The acceptance bar: >= 12x QPS at 16 devices over 1 — which
 *     is what bounded-load placement (max primary load
 *     ceil(S/N)+1 = 9 shards of 8) leaves on the table.
 *
 *   kill — the R=2, 8-device fleet loses a device mid-stream. The
 *     run must still deliver every query exactly once with zero
 *     sheds, and the post-failover p99 must stay within 2x the
 *     no-fault baseline p99: replicas absorb a dead device as a
 *     latency blip, not an outage.
 */

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "baseline/faisslite.hh"
#include "baseline/workloads.hh"
#include "bench_report.hh"
#include "common/metrics.hh"
#include "common/table.hh"
#include "fleet/fleet.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::fleet;

namespace {

constexpr int kQueries = 32;
constexpr unsigned kShards = 128;
constexpr uint64_t kSeed = 2026;

FleetConfig
sweepConfig(unsigned devices, unsigned replicas)
{
    FleetConfig cfg;
    cfg.devices = devices;
    cfg.replicas = replicas;
    cfg.shards = kShards;
    cfg.topK = 5;
    return cfg;
}

struct RunResult
{
    double qps = 0;
    double p50 = 0, p99 = 0;
    double routerOverhead = 0; ///< mean host (merge+failover) share
    size_t delivered = 0;
    bool allOk = true;
    bool exactlyOnce = true;
    uint64_t failovers = 0;
};

/**
 * Serve kQueries through a router. The sweep uses a single wave
 * admitted at t=0: every device clock then advances by serve time
 * alone, so QPS = queries / makespan is a pure throughput measure.
 * The kill phase (`twoWaves`) splits the load into two equal waves
 * — the second admitted at the first's makespan, with shard 0's
 * primary killed while it is in flight when `killOne` — and its
 * clean twin runs the identical schedule, so the two latency
 * distributions compare like for like. (Two-wave makespans are not
 * throughput: the inter-wave idle gap is in them.)
 */
RunResult
runFleet(const RagCorpusSpec &spec, FleetConfig cfg, bool twoWaves,
         bool killOne)
{
    Router router(spec, kSeed, std::move(cfg));
    double busy0 = router.makespanSeconds();

    std::vector<FleetOutcome> outs;
    auto admit = [&](int q, double at) {
        Status st = router.admit(static_cast<uint64_t>(q + 1),
                                 genQuery(spec.dim, 600 + q), at);
        cisram_assert(st.ok(), "fleet bench admit: ",
                      st.toString());
    };

    int q = 0;
    if (twoWaves) {
        for (; q < kQueries / 2; ++q)
            admit(q, 0.0);
        for (FleetOutcome &o : router.pumpUntil(0.0))
            outs.push_back(std::move(o));
        double t = router.makespanSeconds();
        for (; q < kQueries; ++q)
            admit(q, t);
        if (killOne)
            router.killDevice(router.placement()[0][0]);
    } else {
        for (; q < kQueries; ++q)
            admit(q, 0.0);
    }
    for (FleetOutcome &o : router.drain())
        outs.push_back(std::move(o));

    RunResult res;
    metrics::Histogram lat;
    std::set<uint64_t> ids;
    double overhead = 0;
    for (const FleetOutcome &o : outs) {
        lat.observe(o.latencySeconds);
        res.allOk = res.allOk && o.ok;
        res.exactlyOnce = res.exactlyOnce && ids.insert(o.id).second;
        overhead += o.hostSeconds / o.latencySeconds;
    }
    res.delivered = outs.size();
    res.exactlyOnce = res.exactlyOnce && outs.size() == kQueries &&
        router.ledgerOutstanding() == 0;
    res.qps = kQueries / (router.makespanSeconds() - busy0);
    res.p50 = lat.quantile(0.50);
    res.p99 = lat.quantile(0.99);
    res.routerOverhead = outs.empty() ? 0 : overhead / outs.size();
    res.failovers = router.failovers();
    return res;
}

/**
 * Functional phase: merged fleet answers vs the unsharded golden
 * index, clean and with a mid-stream device kill. Returns true when
 * every answer in both runs is bit-identical to the golden top-k.
 */
bool
functionalPhase(bool &exactly_once, uint64_t &kill_failovers)
{
    RagCorpusSpec spec{"fleet-bench", 0, 2048, 368};
    IndexFlatI16 golden(spec.dim,
                        genEmbeddings(spec, 0, spec.numChunks, kSeed));

    const int n = 16;
    auto goldenHits = [&](int q) {
        return golden.search(genQuery(spec.dim, 600 + q).data(), 5);
    };

    bool exact = true;
    exactly_once = true;
    for (bool kill : {false, true}) {
        FleetConfig cfg = sweepConfig(4, 2);
        cfg.shards = 8;
        cfg.functional = true;
        Router router(spec, kSeed, std::move(cfg));

        std::vector<FleetOutcome> outs;
        for (int q = 0; q < n / 2; ++q)
            (void)router.admit(static_cast<uint64_t>(q + 1),
                               genQuery(spec.dim, 600 + q));
        for (FleetOutcome &o : router.pumpUntil(0.0))
            outs.push_back(std::move(o));
        double t = router.makespanSeconds();
        for (int q = n / 2; q < n; ++q)
            (void)router.admit(static_cast<uint64_t>(q + 1),
                               genQuery(spec.dim, 600 + q), t);
        if (kill)
            router.killDevice(router.placement()[0][0]);
        for (FleetOutcome &o : router.drain())
            outs.push_back(std::move(o));

        std::set<uint64_t> seen;
        exactly_once = exactly_once && outs.size() == n &&
            router.ledgerOutstanding() == 0;
        for (const FleetOutcome &o : outs) {
            exactly_once =
                exactly_once && o.ok && seen.insert(o.id).second;
            exact = exact &&
                o.hits == goldenHits(static_cast<int>(o.id) - 1);
        }
        if (kill)
            kill_failovers = router.failovers();
    }
    return exact;
}

} // namespace

int
main()
{
    std::printf("== Fleet scaling: sharded serving on 1..16 "
                "devices ==\n\n");

    // Phase 1: functional equivalence, clean and under a kill.
    bool exactly_once = true;
    uint64_t func_failovers = 0;
    bool exact = functionalPhase(exactly_once, func_failovers);
    std::printf("functional (4 devices, R=2, kill mid-stream): "
                "merged top-k %s the unsharded index, exactly-once "
                "%s, %llu failover(s)\n\n",
                exact ? "MATCHES" : "DIVERGES FROM",
                exactly_once ? "holds" : "VIOLATED",
                static_cast<unsigned long long>(func_failovers));

    // Phase 2: the scaling sweep at paper scale.
    const auto &spec = ragCorpora()[2]; // 200 GB
    std::printf("sweep: %s corpus (%zu chunks), %u shards, %d "
                "queries, TimingOnly\n",
                spec.label, spec.numChunks, kShards, kQueries);

    AsciiTable table({"devices", "R", "QPS", "speedup", "p50 (ms)",
                      "p99 (ms)", "router ovh", "ok"});
    bench::BenchReport report("fleet_scaling");
    report.scalar("queries", kQueries);
    report.scalar("shards", kShards);
    report.scalar("functional_exact", exact ? 1 : 0);
    report.scalar("functional_exactly_once", exactly_once ? 1 : 0);

    double base_qps[3] = {0, 0, 0}; // by replication factor
    double speedup16 = 0;
    bool sweep_ok = true;
    for (unsigned r : {1u, 2u}) {
        for (unsigned n : {1u, 2u, 4u, 8u, 16u}) {
            RunResult res =
                runFleet(spec, sweepConfig(n, r), false, false);
            if (n == 1)
                base_qps[r] = res.qps;
            double speedup = res.qps / base_qps[r];
            if (n == 16 && r == 1)
                speedup16 = speedup;
            sweep_ok =
                sweep_ok && res.allOk && res.exactlyOnce;
            table.addRow({std::to_string(n), std::to_string(r),
                          formatDouble(res.qps, 1),
                          formatDouble(speedup, 2) + "x",
                          formatDouble(res.p50 * 1e3, 2),
                          formatDouble(res.p99 * 1e3, 2),
                          formatDouble(res.routerOverhead * 100, 2)
                              + "%",
                          res.allOk && res.exactlyOnce ? "yes"
                                                       : "NO"});
            std::string key = "qps_n" + std::to_string(n) + "_r" +
                std::to_string(r);
            report.scalar(key, res.qps);
            report.scalar("p99_n" + std::to_string(n) + "_r" +
                              std::to_string(r),
                          res.p99);
        }
    }
    table.print();

    bool speedup_ok = speedup16 >= 12.0;
    std::printf("\n16-device speedup %.2fx (target >= 12x): %s\n",
                speedup16, speedup_ok ? "PASS" : "FAIL");
    std::printf("every sweep query delivered exactly once: %s\n",
                sweep_ok ? "PASS" : "FAIL");
    report.scalar("speedup_16x", speedup16);

    // Phase 3: kill a device mid-stream at R=2 and price it.
    RunResult clean = runFleet(spec, sweepConfig(8, 2), true, false);
    RunResult kill = runFleet(spec, sweepConfig(8, 2), true, true);
    double p99_ratio = kill.p99 / clean.p99;
    bool kill_ok = kill.allOk && kill.exactlyOnce &&
        kill.delivered == kQueries && kill.failovers > 0;
    bool p99_ok = p99_ratio <= 2.0;
    std::printf(
        "\nkill one of 8 devices (R=2): %zu/%d delivered, "
        "%llu failover(s), zero shed: %s\n",
        kill.delivered, kQueries,
        static_cast<unsigned long long>(kill.failovers),
        kill_ok ? "PASS" : "FAIL");
    std::printf("post-kill p99 %.2f ms vs no-fault %.2f ms "
                "(%.2fx, target <= 2x): %s\n",
                kill.p99 * 1e3, clean.p99 * 1e3, p99_ratio,
                p99_ok ? "PASS" : "FAIL");

    report.scalar("kill_delivered",
                  static_cast<double>(kill.delivered));
    report.scalar("kill_failovers",
                  static_cast<double>(kill.failovers));
    report.scalar("kill_exactly_once",
                  kill.allOk && kill.exactlyOnce ? 1 : 0);
    report.scalar("kill_p99_ratio", p99_ratio);
    report.write();

    bool pass = exact && exactly_once && sweep_ok && speedup_ok &&
        kill_ok && p99_ok;
    std::printf("\noverall: %s\n", pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
}
