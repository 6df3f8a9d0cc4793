/**
 * @file
 * Open-loop traffic with live corpus mutation (extension): arrivals
 * come from a deterministic seed-driven trace on the simulated
 * clock, independent of service completion, so the fleet can
 * actually be driven PAST saturation — a closed loop can only ever
 * measure its own back-pressure.
 *
 * Three phases (report keys are prefixed `func.` / `sat.` / `mut.`
 * so `bench_compare --only <prefix>` gates one phase at a time):
 *
 *   func — a small functional fleet (3 devices, R=2) serves an
 *     open-loop trace while the corpus mutates through three epochs
 *     AND a device is killed mid-stream. Every answer must
 *     bit-compare against the FAISS-lite golden of its ADMISSION
 *     epoch (snapshot consistency), with exactly-once delivery.
 *
 *   sat — the 200 GB corpus (TimingOnly, 4 devices, 8 shards) under
 *     Poisson arrivals at multiples of the fleet's probed capacity:
 *     the latency-throughput curve to saturation. The acceptance
 *     bar: a knee exists and at least 3 arrival-rate points lie past
 *     it (achieved QPS < 92% of offered), i.e. the curve genuinely
 *     reaches saturation rather than stopping at the comfortable
 *     part.
 *
 *   mut — the 50 GB corpus (TimingOnly, R=2) at 1.6x capacity with
 *     two SLO classes, a tenant quota, two mutation epochs, and a
 *     mid-run device kill. Under overload the lowest class must shed
 *     first (shed_class1 >= shed_class0 > 0), per-class SLO windows
 *     tile the epochs, and delivery stays exactly-once.
 *
 * Then two informational host-time keys, sat.host_us_per_arrival_n*:
 * the sat fleet at 220 q/s through the first 2 000 and 8 000 arrivals
 * of one trace. Router and journal bookkeeping that grows with the
 * run shows as a rising ratio between them.
 */

#include <algorithm>
#include <chrono>
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
#include "load/arrivals.hh"
#include "load/mutation.hh"
#include "load/openloop.hh"
#include "obs/slo.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::fleet;
using namespace cisram::load;

namespace {

constexpr uint64_t kSeed = 77;

/** Unique outcome ids + empty ledger: the exactly-once core. */
bool
exactlyOnce(const OpenLoopResult &res, const Router &router)
{
    std::set<uint64_t> seen;
    for (const FleetOutcome &o : res.outcomes)
        if (!seen.insert(o.id).second)
            return false;
    return router.ledgerOutstanding() == 0 &&
        res.outcomes.size() >= res.admitted;
}

// ---- phase 1: functional epoch-golden correctness ----------------------

bool
funcPhase(bench::BenchReport &report)
{
    RagCorpusSpec base{"openloop-func", 0, 1024, 368};

    MutationConfig mc;
    mc.batches = 3;
    mc.startSeconds = 0.25;
    mc.intervalSeconds = 0.2;
    mc.insertsPerBatch = 64;
    mc.deletesPerBatch = 32;
    mc.seed = 7;
    MutationPlan plan(base, 4, mc);

    FleetConfig cfg;
    cfg.devices = 3;
    cfg.replicas = 2;
    cfg.shards = 4;
    cfg.functional = true;
    cfg.topK = 5;
    // Open-loop traffic is sparse: without the time close-out, tail
    // batches would sit until the final drain barrier.
    cfg.server.batch.maxLingerSeconds = 0.05;
    Router router(base, kSeed, cfg);

    TrafficConfig tc;
    tc.shape = ArrivalShape::Poisson;
    tc.ratePerSecond = 48;
    tc.durationSeconds = 1.0;
    tc.seed = 11;
    tc.tenants = {{"alpha", 2.0, 0, 32}, {"beta", 1.0, 1, 8}};
    ArrivalTrace trace = genArrivalTrace(tc);

    OpenLoopOptions opts;
    opts.plan = &plan;
    opts.killAtSeconds = 0.55;
    opts.killDevice = router.placement()[0][0];
    OpenLoopResult res = runOpenLoop(router, trace, base, opts);

    uint64_t mism = countGoldenMismatches(
        res.outcomes, trace, base, kSeed, &plan, cfg.topK);

    bool all_ok = true;
    std::set<uint64_t> epochs;
    for (const FleetOutcome &o : res.outcomes) {
        all_ok = all_ok && o.ok;
        epochs.insert(o.epoch);
    }
    bool once = exactlyOnce(res, router) && all_ok &&
        res.admitted == res.offered &&
        res.outcomes.size() == res.admitted;
    bool ok = once && mism == 0 && res.epochsApplied == 3 &&
        epochs.size() >= 2 && router.failovers() > 0;

    std::printf(
        "functional (3 devices, R=2, 3 epochs, kill at t=0.55):\n"
        "  %llu arrivals, %llu delivered across %zu epoch(s), "
        "%llu failover(s)\n"
        "  exactly-once %s, admission-epoch goldens: %llu "
        "mismatch(es) -> %s\n\n",
        static_cast<unsigned long long>(res.offered),
        static_cast<unsigned long long>(res.delivered),
        epochs.size(),
        static_cast<unsigned long long>(router.failovers()),
        once ? "holds" : "VIOLATED",
        static_cast<unsigned long long>(mism),
        ok ? "PASS" : "FAIL");

    report.scalar("func.delivered",
                  static_cast<double>(res.delivered));
    report.scalar("func.exactly_once", once ? 1 : 0);
    report.scalar("func.golden_mismatch_errors",
                  static_cast<double>(mism));
    report.scalar("func.epochs_applied",
                  static_cast<double>(res.epochsApplied));
    report.scalar("func.p99_seconds", res.latency.quantile(0.99));
    return ok;
}

// ---- phase 2: latency-throughput curve to saturation -------------------

FleetConfig
satConfig()
{
    FleetConfig cfg;
    cfg.devices = 4;
    cfg.replicas = 1;
    cfg.shards = 8;
    cfg.topK = 5;
    // One core per co-located shard server: the makespan is then a
    // true wall-clock span. With shared cores the servers' clocks
    // add, and in open loop each clock is ratcheted to the arrival
    // stream — summing them would double-count the trace duration.
    cfg.coresPerDevice = 2;
    cfg.server.batch.maxLingerSeconds = 0.05;
    return cfg;
}

/** Closed-wave probe: fleet capacity in queries per second. */
double
probeCapacity(const RagCorpusSpec &spec, const FleetConfig &cfg,
              metrics::Histogram *lat = nullptr)
{
    const int n = 16;
    Router probe(spec, kSeed, cfg);
    double busy0 = probe.makespanSeconds();
    for (int q = 0; q < n; ++q) {
        Status st = probe.admit(static_cast<uint64_t>(q + 1),
                                genQuery(spec.dim, 300 + q));
        cisram_assert(st.ok(), "capacity probe admit: ",
                      st.toString());
    }
    auto outs = probe.drain();
    cisram_assert(outs.size() == n, "capacity probe lost queries");
    if (lat)
        for (const FleetOutcome &o : outs)
            lat->observe(o.latencySeconds);
    return n / (probe.makespanSeconds() - busy0);
}

bool
satPhase(bench::BenchReport &report)
{
    const RagCorpusSpec &spec = ragCorpora()[2]; // 200 GB
    double capacity = probeCapacity(spec, satConfig());
    std::printf("saturation sweep: %s corpus, 4 devices, 8 shards, "
                "probed capacity %.2f QPS\n",
                spec.label, capacity);
    report.scalar("sat.capacity_qps", capacity);

    const double mults[] = {0.3, 0.6, 0.9, 1.1, 1.4,
                            1.8, 2.2, 2.6, 3.0};
    const int kPoints = 9;
    AsciiTable table({"load", "offered QPS", "achieved QPS",
                      "p50 (ms)", "p99 (ms)", "past knee"});

    int knee = -1;
    for (int i = 0; i < kPoints; ++i) {
        TrafficConfig tc;
        tc.shape = ArrivalShape::Poisson;
        tc.ratePerSecond = capacity * mults[i];
        tc.durationSeconds = 64.0 / tc.ratePerSecond;
        tc.seed = 21 + static_cast<uint64_t>(i);
        tc.tenants = {{"sat", 1.0, 0, 256}};
        ArrivalTrace trace = genArrivalTrace(tc);

        Router router(spec, kSeed, satConfig());
        OpenLoopResult res = runOpenLoop(router, trace, spec, {});
        // Open-loop throughput over the completion span (first
        // admission to last completion). The device makespan is the
        // wrong denominator here: idle servers ratchet their clocks
        // to the arrival stream, and co-resident servers' clocks
        // add, so it double-counts the trace duration.
        double first = 1e300, last = 0;
        for (const FleetOutcome &o : res.outcomes) {
            first = std::min(first, o.admitSeconds);
            last = std::max(last,
                            o.admitSeconds + o.latencySeconds);
        }
        double offered = res.offered / tc.durationSeconds;
        double achieved = res.delivered / (last - first);
        bool past = achieved < 0.92 * offered;
        if (past && knee < 0)
            knee = i;

        table.addRow({formatDouble(mults[i], 1) + "x",
                      formatDouble(offered, 2),
                      formatDouble(achieved, 2),
                      formatDouble(res.latency.quantile(0.50) * 1e3,
                                   2),
                      formatDouble(res.latency.quantile(0.99) * 1e3,
                                   2),
                      past ? "yes" : "no"});
        std::string m = std::to_string(i);
        report.scalar("sat.qps_m" + m, achieved);
        report.scalar("sat.p99_seconds_m" + m,
                      res.latency.quantile(0.99));
    }
    table.print();

    int past_knee = knee < 0 ? 0 : kPoints - knee;
    bool ok = knee >= 1 && past_knee >= 3;
    std::printf("\nknee at %.1fx capacity; %d point(s) past the "
                "knee (target >= 3): %s\n\n",
                knee < 0 ? 0.0 : mults[knee], past_knee,
                ok ? "PASS" : "FAIL");
    report.scalar("sat.points_past_knee",
                  static_cast<double>(past_knee));
    return ok;
}

// ---- phase 3: SLO classes under mutation + kill + overload -------------

bool
mutPhase(bench::BenchReport &report)
{
    const RagCorpusSpec &spec = ragCorpora()[1]; // 50 GB

    FleetConfig cfg;
    cfg.devices = 4;
    cfg.replicas = 2;
    cfg.shards = 8;
    cfg.topK = 5;
    cfg.coresPerDevice = 4; // 8 shards x R=2 over 4 devices
    // The batch queue drains every pump, so depth never exceeds the
    // batch scale: the cap must sit AT that scale to bite. Class 1
    // keeps half of it and sheds first inside each linger window.
    cfg.server.admission.maxQueueDepth = 8;
    cfg.server.admission.sloClasses = 2;
    cfg.server.batch.maxLingerSeconds = 0.05;
    // Admission sheds hedge to the next replica and count as router
    // breaker failures; a sustained-overload phase must widen the
    // breaker or it measures the breaker, not the class caps.
    cfg.server.breakerThreshold = 64;
    cfg.quotas.push_back(FleetConfig::TenantQuota{"tenantB", 16});

    metrics::Histogram clean;
    double capacity = probeCapacity(spec, cfg, &clean);

    MutationConfig mc;
    mc.batches = 2;
    mc.insertsPerBatch = 96;
    mc.deletesPerBatch = 48;
    mc.seed = 5;
    double rate = 1.6 * capacity;
    double duration = 96.0 / rate;
    mc.startSeconds = 0.3 * duration;
    mc.intervalSeconds = 0.3 * duration;
    MutationPlan plan(spec, cfg.shards, mc);

    TrafficConfig tc;
    tc.shape = ArrivalShape::Burst;
    tc.ratePerSecond = rate;
    tc.durationSeconds = duration;
    tc.burstFactor = 3.0;
    tc.burstDuty = 0.25;
    tc.burstPeriodSeconds = duration / 6;
    tc.seed = 31;
    tc.tenants = {{"tenantA", 1.0, 0, 64}, {"tenantB", 1.0, 1, 64}};
    ArrivalTrace trace = genArrivalTrace(tc);

    Router router(spec, kSeed, cfg);
    OpenLoopOptions opts;
    opts.plan = &plan;
    opts.killAtSeconds = 0.75 * duration;
    opts.killDevice = router.placement()[0][0];
    opts.slo.windowQueries = 32;
    opts.slo.classes = {
        obs::SloClass{sloClassName(0), 4 * clean.quantile(0.50),
                      0.9},
        obs::SloClass{sloClassName(1), 8 * clean.quantile(0.50),
                      0.9}};
    OpenLoopResult res = runOpenLoop(router, trace, spec, opts);

    uint64_t shed0 = 0, shed1 = 0;
    auto it0 = res.shedByClass.find(0);
    if (it0 != res.shedByClass.end())
        shed0 = it0->second;
    auto it1 = res.shedByClass.find(1);
    if (it1 != res.shedByClass.end())
        shed1 = it1->second;

    size_t win0 = 0, win1 = 0;
    for (const obs::SloWindow &w : res.sloWindows)
        (w.cls == sloClassName(0) ? win0 : win1) += 1;

    bool once = exactlyOnce(res, router);
    bool shed_order = shed1 >= shed0 && shed1 > 0;
    bool ok = once && shed_order && res.epochsApplied == 2 &&
        win0 >= 2 && win1 >= 2;

    std::printf("mutation + kill + overload (%s corpus, R=2, "
                "1.6x capacity, bursty):\n",
                spec.label);
    std::printf("  %llu arrivals: %llu admitted, %llu delivered; "
                "shed class0=%llu class1=%llu (lowest first: %s)\n",
                static_cast<unsigned long long>(res.offered),
                static_cast<unsigned long long>(res.admitted),
                static_cast<unsigned long long>(res.delivered),
                static_cast<unsigned long long>(shed0),
                static_cast<unsigned long long>(shed1),
                shed_order ? "PASS" : "FAIL");
    std::printf(
        "  %llu epoch(s) applied, %llu failover(s), exactly-once "
        "%s\n",
        static_cast<unsigned long long>(res.epochsApplied),
        static_cast<unsigned long long>(router.failovers()),
        once ? "holds" : "VIOLATED");
    std::printf(
        "  SLO windows: %zu/%zu per class, %llu breached, worst "
        "burn %.2f\n\n",
        win0, win1,
        static_cast<unsigned long long>(res.breachedWindows),
        res.worstBurnRate);

    report.scalar("mut.delivered",
                  static_cast<double>(res.delivered));
    report.scalar("mut.exactly_once", once ? 1 : 0);
    report.scalar("mut.shed_class0_total",
                  static_cast<double>(shed0));
    report.scalar("mut.shed_class1_total",
                  static_cast<double>(shed1));
    report.scalar("mut.breached_windows",
                  static_cast<double>(res.breachedWindows));
    report.scalar("mut.worst_burn_rate", res.worstBurnRate);
    report.scalar("mut.p99_seconds", res.latency.quantile(0.99));
    return ok;
}

// ---- host bookkeeping per arrival (informational) --------------------

/** Host microseconds per arrival over the first `n` of `trace`. */
double
hostUsPerArrival(const RagCorpusSpec &spec, ArrivalTrace trace, size_t n)
{
    cisram_assert(trace.arrivals.size() >= n, "trace too short");
    trace.arrivals.resize(n);
    Router router(spec, kSeed, satConfig());
    auto t0 = std::chrono::steady_clock::now();
    OpenLoopResult res = runOpenLoop(router, trace, spec, {});
    std::chrono::duration<double, std::micro> us =
        std::chrono::steady_clock::now() - t0;
    cisram_assert(res.outcomes.size() == n, "bookkeeping run lost "
                                            "queries");
    return us.count() / static_cast<double>(n);
}

void
bookkeepingPhase(bench::BenchReport &report)
{
    // Host time only: a private registry and detailed metrics off
    // keep the snapshot's metrics those of the three phases above.
    auto shard = metrics::Registry::makeShard();
    metrics::ShardScope scope(shard.get());
    bool detailed = metrics::enabled();
    metrics::setEnabled(false);

    TrafficConfig tc;
    tc.ratePerSecond = 220;
    tc.durationSeconds = 40; // ~8 800 arrivals
    tc.seed = 61;
    tc.tenants = {{"sat", 1.0, 0, 256}};
    ArrivalTrace trace = genArrivalTrace(tc);
    const RagCorpusSpec &spec = ragCorpora()[2];
    // Best of two routers per count: one short run is at the mercy of
    // host noise.
    double n2000 = 1e300, n8000 = 1e300;
    for (int rep = 0; rep < 2; ++rep) {
        n2000 = std::min(n2000, hostUsPerArrival(spec, trace, 2000));
        n8000 = std::min(n8000, hostUsPerArrival(spec, trace, 8000));
    }
    std::printf("host bookkeeping at 220 q/s: %.1f us/arrival over "
                "2000 arrivals, %.1f over 8000 (%.2fx)\n",
                n2000, n8000, n8000 / n2000);
    report.scalar("sat.host_us_per_arrival_n2000", n2000);
    report.scalar("sat.host_us_per_arrival_n8000", n8000);
    metrics::setEnabled(detailed);
}

} // namespace

int
main()
{
    std::printf("== Open-loop serving under live corpus mutation "
                "==\n\n");
    bench::BenchReport report("open_loop");

    bool func_ok = funcPhase(report);
    bool sat_ok = satPhase(report);
    bool mut_ok = mutPhase(report);
    bookkeepingPhase(report);

    bool pass = func_ok && sat_ok && mut_ok;
    std::printf("overall: %s\n", pass ? "PASS" : "FAIL");
    report.write();
    return pass ? 0 : 1;
}
