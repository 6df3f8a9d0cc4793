/**
 * @file
 * A fault-tolerant, batched end-to-end RAG service on the
 * compute-in-SRAM device: queries flow through the full pipeline —
 * admission into a per-core batch former, host staging over PCIe
 * (GDL), one batched corpus pass on the APU against simulated HBM
 * (with the embedding stream double-buffered behind distance
 * compute), and generation TTFT on the dedicated-GPU model —
 * reproducing the serving scenario behind the paper's Fig. 14 and
 * energy study.
 *
 * This example is the showcase for the serving-path contracts
 * (DESIGN.md "Fault model", "Serving pipeline", and "Escalation
 * ladder"):
 *
 *  - Fault tolerance: every batch is served under a deadline through
 *    a bounded retry policy, behind a per-core circuit breaker that
 *    routes to the FAISS-lite CPU baseline (Xeon timing model) when a
 *    core misbehaves, and probes the core again after a cooldown.
 *
 *  - Persistent-fault escalation: each core's HealthMonitor watches
 *    the per-batch fault ledger; a persistently faulting core is
 *    quarantined (admissions shed with ResourceExhausted and
 *    re-routed to sibling cores — never silently dropped), then
 *    reset: the gdl session re-allocates, re-stages the corpus shard
 *    over PCIe, and replays the journaled in-flight batches with
 *    exactly-once outcomes. Arm a persistent fault with e.g.
 *
 *      CISRAM_FAULT_SPEC="task_hang:core=1,nth=2,sticky=1;seed:7"
 *
 *    and the service still answers every query with correct top-k
 *    ids; when a plan is armed, the timing loop also runs a clean
 *    baseline and checks the faulted p99 stays under 2x.
 *
 *  - Batched throughput: each core's DeviceServer coalesces up to
 *    eight admitted queries into one retrieveBatch call, amortizing
 *    the dominant HBM embedding stream across the batch, and overlaps
 *    the next supertile's stream with the current one's compute.
 *    Queue wait is part of every query's served latency; p50/p95/p99
 *    come from the metrics histograms.
 *
 * The query stream is sharded across the device's four cores with
 * runOnAllCores (each core owns its own retriever, HBM model, GDL
 * session, breaker, batch former, health monitor, and admission
 * journal) and served concurrently when CISRAM_SIM_THREADS allows;
 * reported latencies, fault draws, resets, and the aggregate QPS are
 * identical for any thread count.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apusim/multicore.hh"
#include "baseline/faisslite.hh"
#include "baseline/timing_models.hh"
#include "bench_report.hh"
#include "common/metrics.hh"
#include "common/threadpool.hh"
#include "common/trace.hh"
#include "energy/energy.hh"
#include "fault/fault.hh"
#include "fleet/fleet.hh"
#include "gdl/gdl.hh"
#include "kernels/rag.hh"
#include "kernels/serving.hh"
#include "obs/flight.hh"
#include "obs/slo.hh"
#include "recovery/health.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::kernels;

namespace {

constexpr size_t kTopK = 5;
constexpr int kQueries = 48;

ServerConfig
servingConfig()
{
    ServerConfig cfg;
    cfg.topK = kTopK;
    // A full 8-query batch's corpus pass takes ~196 ms at the
    // 200 GB corpus, so 250 ms is the tightest deadline that never
    // fires on a healthy batch.
    cfg.retry = RetryPolicy{3, 0.25};
    cfg.breakerThreshold = 2;
    cfg.batch = BatchPolicy{8, 8};
    cfg.overlapStream = true;

    // This showcase serves one device; the fleet demo below runs
    // several, and the router stamps each server's deviceIndex so
    // recovery metrics stay distinguishable per device.
    cfg.deviceIndex = 0;

    // The escalation ladder above retry, tuned fail-fast: one
    // ledger fault (timeout, exhausted PCIe, ECC double) in a
    // 16-query window quarantines the core immediately — a reset
    // plus re-stage costs ~2 ms of simulated time, two orders of
    // magnitude cheaper than burning another retry deadline on a
    // wedged core. The quarantine ages over shed admissions, then
    // the core is reset and its journaled batches replayed (at
    // most twice before parking on the CPU fallback).
    cfg.health.enabled = true;
    cfg.health.windowQueries = 16;
    cfg.health.degradeThreshold = 1;
    cfg.health.quarantineThreshold = 1;
    cfg.health.quarantineAdmissions = 4;
    cfg.maxResets = 2;

    // Overload shedding: bound the queue well above the per-core
    // burst so normal operation admits everything, but a core
    // absorbing a quarantined sibling's re-routed load sheds loudly
    // instead of collapsing.
    cfg.admission.maxQueueDepth = 32;

    // Patrol-scrub the core's HBM so latent corrected singles are
    // rewritten before a second flip can escalate them.
    cfg.scrub.enabled = true;

    // Always-on flight recorder: every query's span tree feeds the
    // attribution table and the per-query reconciliation check; with
    // CISRAM_TRACE armed the same spans land on the Perfetto
    // timeline.
    cfg.flight.mode = obs::FlightConfig::Mode::On;
    return cfg;
}

/**
 * Per-class latency SLOs for the windowed monitor: device-served
 * queries against a budget just above the worst clean batch (head-of-
 * line queue wait included), CPU-fallback answers against the
 * FAISS-lite budget. Window sized to one core's shard so each core
 * contributes whole windows.
 */
obs::SloPolicy
sloPolicy()
{
    obs::SloPolicy policy;
    policy.windowQueries = 12;
    policy.classes.push_back(
        obs::SloClass{"device", 0.5, 0.99});
    policy.classes.push_back(
        obs::SloClass{"fallback", 5.0, 0.99});
    return policy;
}

/**
 * Functional self-check: serve queries over a small corpus through
 * the full batched fault-tolerant path — batch formation, retry,
 * breaker, quarantine/reset/replay, CPU fallback — and verify every
 * answer's top-k ids against FAISS-lite exact search. Admissions a
 * quarantined core sheds are re-routed round-robin to its siblings
 * (the two-round pattern a front-end load balancer would run); a
 * query every core shed is reported as shed and owes no answer.
 * With an armed fault plan this is the proof that injected hangs,
 * PCIe corruption, and ECC errors degrade latency, never
 * correctness.
 */
bool
selfCheck()
{
    RagCorpusSpec corpus{"demo", 0, 20000, 368};
    const uint64_t seed = 2026;

    apu::ApuDevice dev;
    IndexFlatI16 index(corpus.dim, genEmbeddings(corpus, 0,
                                                 corpus.numChunks, seed));

    ServerConfig cfg = servingConfig();
    // Small batches keep the functional corpus pass cheap while
    // still exercising the batched device path.
    cfg.batch = BatchPolicy{4, 4};

    const unsigned cores = dev.numCores();
    std::vector<std::unique_ptr<DeviceServer>> servers;
    for (unsigned c = 0; c < cores; ++c)
        servers.push_back(std::make_unique<DeviceServer>(
            dev, corpus, c, &index, seed, cfg));

    constexpr int checkQueries = 16;
    unsigned sheds = 0, rerouted = 0, unanswered = 0;
    std::vector<ServeOutcome> outcomes;
    for (int q = 0; q < checkQueries; ++q) {
        unsigned home = static_cast<unsigned>(q) % cores;
        auto query = genQuery(corpus.dim, 100 + q);
        bool admitted = false;
        for (unsigned hop = 0; hop < cores && !admitted; ++hop) {
            unsigned c = (home + hop) % cores;
            Status st = servers[c]->enqueueAt(
                static_cast<uint64_t>(q), query,
                servers[c]->busySeconds());
            if (st.ok()) {
                admitted = true;
                if (hop > 0)
                    ++rerouted;
            } else {
                ++sheds; // ResourceExhausted: re-route, never drop
            }
        }
        if (!admitted)
            ++unanswered; // every core shed it, loudly
    }

    for (auto &server : servers)
        for (ServeOutcome &out : server->drain())
            outcomes.push_back(std::move(out));

    bool all_ok = outcomes.size() + unanswered == checkQueries;
    unsigned device_answers = 0, fallback_answers = 0;
    for (const ServeOutcome &out : outcomes) {
        int q = static_cast<int>(out.id);
        auto query = genQuery(corpus.dim, 100 + q);
        auto expect = index.search(query.data(), kTopK);
        bool ok = out.ok && out.run.hits == expect;
        if (out.fromDevice)
            ++device_answers;
        else
            ++fallback_answers;
        if (!ok) {
            std::printf("  query %d (batch of %zu): WRONG ANSWER "
                        "(attempts %u, %s)\n",
                        q, out.batchSize, out.attempts,
                        out.lastError.empty()
                            ? "no error"
                            : out.lastError.c_str());
            all_ok = false;
        }
    }

    unsigned resets = 0;
    uint64_t replayed = 0;
    for (auto &server : servers) {
        resets += server->resets();
        replayed += server->replayedQueries();
    }
    std::printf("self-check: %d queries over %zu chunks, "
                "%u from device, %u from CPU fallback: %s\n",
                checkQueries, corpus.numChunks, device_answers,
                fallback_answers, all_ok ? "PASS" : "FAIL");
    if (sheds || resets)
        std::printf("  recovery: %u admissions shed (%u re-routed, "
                    "%u shed by every core), %u core reset(s), %llu "
                    "replayed quer%s\n",
                    sheds, rerouted, unanswered, resets,
                    static_cast<unsigned long long>(replayed),
                    replayed == 1 ? "y" : "ies");
    std::printf("\n");
    return all_ok;
}

/**
 * Fleet demo: the same serving contract one level up. A 4-device
 * fleet (R=2, 8 shards) serves queries scattered over the fabric;
 * one device is killed mid-stream and its in-flight queries replay
 * on replicas. The check: every merged top-k equals the unsharded
 * index's answer, exactly once, despite the kill.
 */
bool
fleetDemo()
{
    RagCorpusSpec corpus{"fleet-demo", 0, 2048, 368};
    const uint64_t seed = 2026;

    IndexFlatI16 index(corpus.dim, genEmbeddings(corpus, 0,
                                                 corpus.numChunks, seed));

    fleet::FleetConfig cfg;
    cfg.devices = 4;
    cfg.replicas = 2;
    cfg.shards = 8;
    cfg.functional = true;
    cfg.topK = kTopK;
    fleet::Router router(corpus, seed, std::move(cfg));

    constexpr int n = 16;
    std::vector<fleet::FleetOutcome> outs;
    for (int q = 0; q < n / 2; ++q)
        (void)router.admit(static_cast<uint64_t>(q + 1),
                           genQuery(corpus.dim, 300 + q));
    for (fleet::FleetOutcome &o : router.pumpUntil(0.0))
        outs.push_back(std::move(o));
    double t = router.makespanSeconds();
    for (int q = n / 2; q < n; ++q)
        (void)router.admit(static_cast<uint64_t>(q + 1),
                           genQuery(corpus.dim, 300 + q), t);
    router.killDevice(router.placement()[0][0]);
    for (fleet::FleetOutcome &o : router.drain())
        outs.push_back(std::move(o));

    bool all_ok = outs.size() == n &&
        router.ledgerOutstanding() == 0;
    for (const fleet::FleetOutcome &o : outs) {
        int q = static_cast<int>(o.id) - 1;
        auto expect = index.search(
            genQuery(corpus.dim, 300 + q).data(), kTopK);
        all_ok = all_ok && o.ok && o.hits == expect;
    }
    std::printf("fleet demo: %d queries over a 4-device R=2 fleet, "
                "one device killed mid-stream: %llu failover(s), "
                "%llu quer%s evacuated, merged top-k %s\n\n",
                n,
                static_cast<unsigned long long>(router.failovers()),
                static_cast<unsigned long long>(
                    router.evacuatedQueries()),
                router.evacuatedQueries() == 1 ? "y" : "ies",
                all_ok ? "exact: PASS" : "WRONG: FAIL");
    return all_ok;
}

struct QueryRecord
{
    double queueWaitSeconds = 0;
    double retrievalSeconds = 0;
    double hostSeconds = 0;
    double servedSeconds = 0;
    double ttftSeconds = 0;
    double joules = 0;
    unsigned attempts = 0;
    size_t batchSize = 1;
    bool fromDevice = true;
    int core = 0;
    bool answered = false; ///< false: shed by the core, twice
};

/** One timing-loop run's records plus its recovery/fault ledger. */
struct LoopResult
{
    std::vector<QueryRecord> records;
    double busiest = 0;
    double wallSeconds = 0;
    gdl::HostStats agg;
    dram::EccStats ecc;
    unsigned breakerTrips = 0;
    uint64_t batches = 0;
    unsigned resets = 0;
    uint64_t replayed = 0;
    unsigned sheds = 0;
    unsigned unanswered = 0;
    double resetSeconds = 0;
    std::vector<std::string> breakerStates;

    // Flight-recorder ledger, aggregated over the per-core recorders:
    // per-stage attribution plus the reconciliation tally (queries
    // whose span-tree sum is bit-exactly their served latency).
    std::map<std::string, double> attribution;
    uint64_t flightsCompleted = 0;
    uint64_t flightsReconciled = 0;

    double
    servedQuantile(double p) const
    {
        std::vector<double> v;
        for (const auto &r : records)
            if (r.answered)
                v.push_back(r.servedSeconds);
        std::sort(v.begin(), v.end());
        size_t i = static_cast<size_t>(p * (v.size() - 1));
        return v[i];
    }
};

/**
 * The paper-scale timing loop: kQueries sharded over all cores,
 * served through the full pipeline. Self-contained (fresh device,
 * fresh servers, reset fault streams) so a baseline and a faulted
 * run are comparable.
 */
LoopResult
runTimingLoop(const RagCorpusSpec &spec)
{
    gdl::resetFaultStreams();
    apu::ApuDevice dev;
    const unsigned cores = dev.numCores();
    for (unsigned c = 0; c < cores; ++c)
        dev.core(c).setMode(apu::ExecMode::TimingOnly);

    // Per-core serving shards, constructed up front on this thread
    // so device addresses and fault-draw streams are identical for
    // any thread count: the HBM model is stateful and a GDL session
    // is single-threaded, so each core owns one of each.
    std::vector<std::unique_ptr<DeviceServer>> servers;
    for (unsigned c = 0; c < cores; ++c)
        servers.push_back(std::make_unique<DeviceServer>(
            dev, spec, c, nullptr, 2026, servingConfig()));

    LlmGenerationModel llm;
    energy::ApuPowerModel power;

    LoopResult res;
    res.records.resize(kQueries);
    std::vector<unsigned> shedsPerCore(cores, 0);

    auto wallStart = std::chrono::steady_clock::now();
    apu::runOnAllCores(dev, [&](apu::ApuCore &, unsigned c,
                                unsigned n) {
        auto shard = apu::shardOf(kQueries, c, n);
        auto &server = *servers[c];

        auto record = [&](const ServeOutcome &out) {
            auto &rec = res.records[out.id];
            rec.answered = true;
            rec.core = static_cast<int>(c);
            rec.queueWaitSeconds = out.queueWaitSeconds;
            rec.retrievalSeconds = out.retrievalSeconds;
            rec.hostSeconds = out.hostSeconds;
            rec.servedSeconds = out.servedSeconds();
            rec.attempts = out.attempts;
            rec.batchSize = out.batchSize;
            rec.fromDevice = out.fromDevice;
            rec.ttftSeconds = rec.servedSeconds + llm.ttftSeconds();
            if (out.fromDevice) {
                energy::ApuActivity act;
                act.totalSeconds = out.run.stages.total();
                act.computeSeconds = out.run.computeSeconds;
                act.dramBytes = out.run.dramBytes;
                act.cacheBytes = out.run.cacheBytes;
                rec.joules = power.energy(act).totalJ();
            }
        };

        // The shard arrives as one burst (every query admitted at
        // the same server clock), so batches past the first pay a
        // visible head-of-line queue wait; drain serves them all —
        // escalating through reset + replay if the core wedges. A
        // shed admission (quarantined core past its reset budget,
        // or queue over its bound) drains the core and retries
        // once; a second shed is reported, never silently dropped,
        // and the query stays out of the latency records.
        for (size_t q = shard.begin; q < shard.end; ++q) {
            auto emb =
                genQuery(spec.dim, 1000 + static_cast<int>(q));
            Status st = server.enqueueAt(static_cast<uint64_t>(q),
                                         emb, server.busySeconds());
            if (!st.ok()) {
                ++shedsPerCore[c];
                for (const auto &out : server.drain())
                    record(out);
                st = server.enqueueAt(static_cast<uint64_t>(q), emb,
                                      server.busySeconds());
            }
            if (!st.ok())
                ++shedsPerCore[c]; // its record stays unanswered
        }
        for (const auto &out : server.drain())
            record(out);
    });
    res.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() -
                          wallStart)
                          .count();
    for (const auto &rec : res.records)
        res.unanswered += rec.answered ? 0 : 1;

    for (unsigned c = 0; c < cores; ++c) {
        const auto &hs = servers[c]->host().stats();
        res.busiest =
            std::max(res.busiest, servers[c]->busySeconds());
        res.agg.tasksFailed += hs.tasksFailed;
        res.agg.tasksTimedOut += hs.tasksTimedOut;
        res.agg.pcieRetries += hs.pcieRetries;
        res.agg.pcieErrors += hs.pcieErrors;
        res.agg.allocFailures += hs.allocFailures;
        res.agg.coreResets += hs.coreResets;
        res.agg.deviceResets += hs.deviceResets;
        res.resetSeconds += hs.resetSeconds;
        res.ecc += servers[c]->hbm().eccStats();
        res.breakerTrips += servers[c]->breaker().trips();
        res.batches += servers[c]->former().batchesFormed();
        res.resets += servers[c]->resets();
        res.replayed += servers[c]->replayedQueries();
        res.sheds += shedsPerCore[c];
        res.breakerStates.push_back(
            breakerStateName(servers[c]->breaker().state()));
        const auto &fr = servers[c]->flightRecorder();
        res.flightsCompleted += fr.completedCount();
        res.flightsReconciled += fr.reconciledCount();
        for (const auto &kv : fr.attribution())
            res.attribution[kv.first] += kv.second;
    }
    // Tear down in declaration order inside each server: the query
    // buffer releases before its GDL session's leak check runs.
    servers.clear();
    return res;
}

} // namespace

int
main()
{
    // Serving metrics for the whole session; CISRAM_TRACE=<path>
    // additionally dumps a per-op timeline of every query.
    trace::Tracer::init();
    metrics::initFromEnv();
    metrics::setEnabled(true);
    fault::initFromEnv();

    if (const fault::FaultPlan *fp = fault::plan())
        std::printf("fault plan armed: %s\n\n",
                    fp->toString().c_str());

    if (!selfCheck())
        return 1;
    if (!fleetDemo())
        return 1;

    // 200 GB corpus, timing mode (paper scale).
    const auto &spec = ragCorpora()[2];

    std::printf("corpus: %s (%zu chunks, %.1f GB of embeddings)\n",
                spec.label, spec.numChunks,
                spec.embeddingBytes() / 1e9);
    std::printf("generation: Llama3.1-8B prefill on dedicated GPU "
                "model\n");
    std::printf("serving: %d queries sharded over 4 cores "
                "(batch <= %zu, overlapped stream %s, escalation "
                "ladder on), CISRAM_SIM_THREADS=%u\n\n",
                kQueries, servingConfig().batch.maxBatch,
                servingConfig().overlapStream ? "on" : "off",
                simThreads());

    // With a fault plan armed, first measure the clean service as
    // the degradation baseline, then run the faulted loop. The
    // recovery contract: the faulted service answers every query
    // and its p99 stays under 2x the clean p99.
    double baseline_p99 = 0;
    if (const fault::FaultPlan *fp = fault::plan()) {
        fault::FaultPlan plan = *fp;
        fault::disarm();
        LoopResult clean = runTimingLoop(spec);
        baseline_p99 = clean.servedQuantile(0.99);
        std::printf("clean baseline: %.1f QPS, served p99 %.1f ms "
                    "(for the <2x degradation check)\n\n",
                    kQueries / clean.busiest, baseline_p99 * 1e3);
        fault::armPlan(plan);
    }

    LoopResult loop = runTimingLoop(spec);
    const unsigned cores =
        static_cast<unsigned>(loop.breakerStates.size());

    // Registry observations in query order on this thread, so the
    // snapshot is independent of worker interleaving.
    auto &reg = metrics::Registry::get();
    auto &m_queries = reg.counter("rag.queries");
    auto &m_served = reg.histogram("rag.served_seconds");
    auto &m_wait = reg.histogram("rag.queue_wait_seconds");
    auto &m_ttft = reg.histogram("rag.ttft_seconds");
    auto &m_energy = reg.histogram("rag.query_energy_joules");
    auto &m_host = reg.histogram("rag.host_pcie_seconds");

    // Windowed SLO monitor, fed in query order on this thread so the
    // window boundaries (and with them the burn rates) are identical
    // for any worker interleaving.
    obs::SloMonitor slo(sloPolicy());

    const unsigned answered = kQueries - loop.unanswered;
    double total_energy = 0.0, total_ttft = 0.0;
    unsigned device_queries = 0, fallback_queries = 0;
    unsigned total_attempts = 0;
    std::printf("%5s %4s %5s %5s %10s %12s %12s %12s\n", "query",
                "core", "path", "batch", "wait (ms)", "served (ms)",
                "TTFT (ms)", "APU E (mJ)");
    for (int q = 0; q < kQueries; ++q) {
        const auto &rec = loop.records[q];
        if (!rec.answered) {
            std::printf("%5d  shed twice, never answered\n", q);
            continue;
        }
        m_queries.inc();
        m_served.observe(rec.servedSeconds);
        m_wait.observe(rec.queueWaitSeconds);
        m_ttft.observe(rec.ttftSeconds);
        m_energy.observe(rec.joules);
        m_host.observe(rec.hostSeconds);
        slo.observe(rec.fromDevice ? "device" : "fallback",
                    rec.servedSeconds);
        total_energy += rec.joules;
        total_ttft += rec.ttftSeconds;
        total_attempts += rec.attempts;
        if (rec.fromDevice)
            ++device_queries;
        else
            ++fallback_queries;
        std::printf("%5d %4d %5s %5zu %10.1f %12.1f %12.1f %12.1f\n",
                    q, rec.core, rec.fromDevice ? "apu" : "cpu",
                    rec.batchSize, rec.queueWaitSeconds * 1e3,
                    rec.servedSeconds * 1e3, rec.ttftSeconds * 1e3,
                    rec.joules * 1e3);
    }

    // Aggregate throughput: the service is limited by the busiest
    // core's simulated serving time (cores run concurrently; queue
    // waits overlap with service and don't add to core busy time).
    std::printf("\naggregate throughput: %.1f QPS over %u cores "
                "(busiest core %.1f ms for its shard)\n",
                answered / loop.busiest, cores,
                loop.busiest * 1e3);
    std::printf("host wall-clock for the serving loop: %.2f s "
                "(%u sim thread(s) on %u host cpu(s))\n",
                loop.wallSeconds,
                simThreads() == 0 ? cores : simThreads(),
                std::thread::hardware_concurrency());
    std::printf("average TTFT: %.0f ms; retrieval energy per "
                "query: %.0f mJ\n",
                total_ttft / answered * 1e3,
                total_energy / answered * 1e3);
    energy::GpuEnergyModel gpu;
    std::printf("GPU retrieval energy at this corpus: %.1f J per "
                "query -> %.0fx reduction\n",
                gpu.retrievalEnergy(spec.embeddingBytes()),
                gpu.retrievalEnergy(spec.embeddingBytes()) /
                    (total_energy / std::max(1u, device_queries)));

    // Fault/robustness ledger: host-observed failure counters plus
    // the per-core breaker outcome and the escalation-ladder tally.
    std::printf("\nfault ledger (timing loop):\n");
    std::printf("  device queries %u, CPU fallbacks %u, device "
                "attempts %u, batches %llu\n",
                device_queries, fallback_queries, total_attempts,
                static_cast<unsigned long long>(loop.batches));
    std::printf("  task timeouts %u, task failures %u, PCIe retries "
                "%u, PCIe errors %u\n",
                loop.agg.tasksTimedOut, loop.agg.tasksFailed,
                loop.agg.pcieRetries, loop.agg.pcieErrors);
    std::printf("  ECC: %llu words checked, %llu corrected, %llu "
                "uncorrectable, %llu scrubbed\n",
                static_cast<unsigned long long>(
                    loop.ecc.wordsChecked),
                static_cast<unsigned long long>(
                    loop.ecc.singleCorrected),
                static_cast<unsigned long long>(
                    loop.ecc.doubleDetected),
                static_cast<unsigned long long>(
                    loop.ecc.scrubCorrected));
    std::printf("  breaker trips %u; per-core state:",
                loop.breakerTrips);
    for (unsigned c = 0; c < cores; ++c)
        std::printf(" %u=%s", c, loop.breakerStates[c].c_str());
    std::printf("\n");
    std::printf("recovery ledger (escalation ladder):\n");
    std::printf("  core resets %u (%.1f ms reset+re-stage), "
                "replayed queries %llu, admissions shed %u\n",
                loop.resets, loop.resetSeconds * 1e3,
                static_cast<unsigned long long>(loop.replayed),
                loop.sheds);
    if (loop.unanswered > 0)
        std::printf("  queries shed twice, never answered %u\n",
                    loop.unanswered);

    // Flight-recorder attribution: where every served second went,
    // summed over the per-query span trees. The reconciliation
    // invariant (DESIGN.md "Observability"): each query's spans sum
    // bit-exactly to its served latency.
    // Every answered query is journaled and must reconcile; a query
    // shed twice is never answered, so completed can trail kQueries
    // under a fault plan — but never in a clean run.
    bool reconciled_ok = loop.flightsCompleted > 0 &&
        loop.flightsReconciled == loop.flightsCompleted;
    double attributed = 0;
    for (const auto &kv : loop.attribution)
        if (kv.second > 0 &&
            kv.first.rfind("device_compute.", 0) != 0)
            attributed += kv.second;
    std::printf("\nper-stage attribution (flight recorder, %llu/%llu "
                "queries reconciled bit-exactly: %s):\n",
                static_cast<unsigned long long>(
                    loop.flightsReconciled),
                static_cast<unsigned long long>(
                    loop.flightsCompleted),
                reconciled_ok ? "PASS" : "FAIL");
    for (const auto &kv : loop.attribution) {
        if (kv.second == 0)
            continue;
        bool detail = kv.first.rfind("device_compute.", 0) == 0;
        if (detail)
            std::printf("    %-24s %10.1f ms\n", kv.first.c_str(),
                        kv.second * 1e3);
        else
            std::printf("  %-26s %10.1f ms  (%5.1f%%)\n",
                        kv.first.c_str(), kv.second * 1e3,
                        100.0 * kv.second / attributed);
    }

    // Close partial SLO windows and report burn rates.
    slo.flush();
    std::printf("SLO (windowed, %zu queries/window):\n",
                slo.policy().windowQueries);
    for (const auto &w : slo.windows())
        std::printf("  class %-9s window %zu: %zu/%zu violations, "
                    "burn %.2f%s%s\n",
                    w.cls.c_str(), w.index, w.violations, w.queries,
                    w.burnRate, w.breached ? "  BREACH" : "",
                    w.partial ? " (partial)" : "");
    std::printf("  breached windows %zu, worst burn rate %.2f\n",
                slo.breachedWindows(), slo.worstBurnRate());

    double p99 = loop.servedQuantile(0.99);
    bool p99_ok = true;
    if (baseline_p99 > 0) {
        double ratio = p99 / baseline_p99;
        p99_ok = ratio < 2.0;
        std::printf("  p99 under fault %.1f ms vs clean %.1f ms: "
                    "%.2fx degradation (%s 2x budget)\n",
                    p99 * 1e3, baseline_p99 * 1e3, ratio,
                    p99_ok ? "within" : "OVER");
    }

    std::printf("\nservice metrics (registry snapshot):\n");
    std::printf("  queries served: %.0f\n", m_queries.value());
    std::printf("  served     p50 %.1f ms  p95 %.1f  p99 %.1f  "
                "max %.1f\n",
                m_served.quantile(0.50) * 1e3,
                m_served.quantile(0.95) * 1e3,
                m_served.quantile(0.99) * 1e3, m_served.max() * 1e3);
    std::printf("  queue wait p50 %.1f ms  p95 %.1f  max %.1f\n",
                m_wait.quantile(0.50) * 1e3,
                m_wait.quantile(0.95) * 1e3, m_wait.max() * 1e3);
    std::printf("  TTFT       p50 %.1f ms  p95 %.1f  mean %.1f\n",
                m_ttft.quantile(0.50) * 1e3,
                m_ttft.quantile(0.95) * 1e3, m_ttft.mean() * 1e3);
    std::printf("  energy     mean %.1f mJ  total %.1f mJ\n",
                m_energy.mean() * 1e3, m_energy.sum() * 1e3);
    std::printf("  host PCIe  mean %.1f us\n", m_host.mean() * 1e6);
    if (trace::active())
        std::printf("  trace timeline armed (written at exit)\n");

    // Machine-readable fault/serving report (includes the metrics
    // registry snapshot, and with it every fault.* and recovery.*
    // counter and the serving histograms with their p50/p95/p99
    // summaries).
    {
        bench::BenchReport report("rag_service");
        report.note("fault_spec",
                    fault::plan() ? fault::plan()->toString()
                                  : "(none)");
        report.scalar("queries", kQueries);
        report.scalar("batches",
                      static_cast<double>(loop.batches));
        report.scalar("device_queries", device_queries);
        report.scalar("fallback_queries", fallback_queries);
        report.scalar("device_attempts", total_attempts);
        report.scalar("task_timeouts", loop.agg.tasksTimedOut);
        report.scalar("task_failures", loop.agg.tasksFailed);
        report.scalar("pcie_retries", loop.agg.pcieRetries);
        report.scalar("pcie_errors", loop.agg.pcieErrors);
        report.scalar("alloc_failures", loop.agg.allocFailures);
        report.scalar("ecc_words_checked",
                      static_cast<double>(loop.ecc.wordsChecked));
        report.scalar("ecc_single_corrected",
                      static_cast<double>(loop.ecc.singleCorrected));
        report.scalar("ecc_double_detected",
                      static_cast<double>(loop.ecc.doubleDetected));
        report.scalar("ecc_scrub_reads",
                      static_cast<double>(loop.ecc.scrubReads));
        report.scalar("ecc_scrub_corrected",
                      static_cast<double>(loop.ecc.scrubCorrected));
        report.scalar("breaker_trips", loop.breakerTrips);
        report.scalar("core_resets", loop.resets);
        report.scalar("replayed_queries",
                      static_cast<double>(loop.replayed));
        report.scalar("admissions_shed", loop.sheds);
        report.scalar("reset_seconds", loop.resetSeconds);
        report.scalar("mean_ttft_seconds", total_ttft / answered);
        report.scalar("served_p50_seconds", m_served.quantile(0.50));
        report.scalar("served_p95_seconds", m_served.quantile(0.95));
        report.scalar("served_p99_seconds", m_served.quantile(0.99));
        if (baseline_p99 > 0) {
            report.scalar("baseline_p99_seconds", baseline_p99);
            report.scalar("p99_degradation_ratio",
                          p99 / baseline_p99);
        }
        report.scalar("qps", answered / loop.busiest);

        // Flight-recorder ledger: the per-stage attribution
        // breakdown plus the reconciliation tally — a query that
        // stops reconciling bit-exactly shows up as a drop in
        // flights_reconciled and gates the bench_compare diff.
        report.scalar("flights_completed",
                      static_cast<double>(loop.flightsCompleted));
        report.scalar("flights_reconciled",
                      static_cast<double>(loop.flightsReconciled));
        report.breakdown("stage_attribution_seconds",
                         loop.attribution);

        // Windowed SLO outcome (burn_rate and violations also land
        // in the metrics snapshot under slo.* with class labels).
        report.scalar("slo_breached_windows",
                      static_cast<double>(slo.breachedWindows()));
        report.scalar("slo_worst_burn_rate", slo.worstBurnRate());
        report.write();
    }

    return (p99_ok && reconciled_ok) ? 0 : 1;
}
