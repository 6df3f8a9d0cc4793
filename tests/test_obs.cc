/**
 * @file
 * The observability layer's contracts: flight-recorder span trees
 * that reconcile *bit-exactly* with served latency across every
 * serving outcome (clean, retried, breaker-fallback, shed-rerouted,
 * reset-replayed), ledger identity for any CISRAM_SIM_THREADS under
 * an armed fault plan, the recorder's never-charges-time guarantee,
 * the windowed SLO monitor's burn-rate arithmetic, the histogram
 * quantile edge cases the bench snapshots pin, the bench_diff
 * regression-gate classifier, and the trace writer's atomic-write /
 * fail-loudly behavior.
 */

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "apusim/apu.hh"
#include "apusim/multicore.hh"
#include "baseline/workloads.hh"
#include "common/json.hh"
#include "common/metrics.hh"
#include "common/threadpool.hh"
#include "common/trace.hh"
#include "fault/fault.hh"
#include "gdl/gdl.hh"
#include "kernels/rag.hh"
#include "kernels/serving.hh"
#include "obs/bench_diff.hh"
#include "obs/flight.hh"
#include "obs/slo.hh"
#include "recovery/health.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::kernels;
using namespace cisram::obs;

namespace {

/** Disarm on scope exit so no test leaks an armed plan. */
struct PlanGuard
{
    explicit PlanGuard(const std::string &spec)
    {
        auto p = fault::FaultPlan::parse(spec);
        EXPECT_TRUE(p.ok()) << p.status().toString();
        fault::armPlan(*p);
    }
    ~PlanGuard() { fault::disarm(); }
};

/** Pin CISRAM_SIM_THREADS for one scope. */
struct ThreadSetting
{
    explicit ThreadSetting(unsigned n) { setSimThreads(n); }
    ~ThreadSetting() { setSimThreads(0); }
};

recovery::HealthPolicy
enabledPolicy(unsigned window, unsigned degrade, unsigned quarantine,
              unsigned sheds)
{
    recovery::HealthPolicy p;
    p.enabled = true;
    p.windowQueries = window;
    p.degradeThreshold = degrade;
    p.quarantineThreshold = quarantine;
    p.quarantineAdmissions = sheds;
    return p;
}

ServerConfig
recordingConfig(size_t batch)
{
    ServerConfig cfg;
    cfg.batch = BatchPolicy{batch, batch};
    cfg.flight.mode = FlightConfig::Mode::On;
    return cfg;
}

size_t
spanCount(const QueryFlight::Round &round, Stage stage)
{
    size_t n = 0;
    for (const Span &s : round.spans)
        if (s.stage == stage)
            ++n;
    return n;
}

/**
 * The reconciliation invariant, asserted per outcome: the recorder's
 * re-derived latency equals the server's — with ==, not a tolerance.
 */
void
expectReconciled(const FlightRecorder &fr, const ServeOutcome &out)
{
    const QueryFlight *fl = fr.flight(out.id);
    ASSERT_NE(fl, nullptr) << "query " << out.id;
    EXPECT_TRUE(fl->delivered) << "query " << out.id;
    EXPECT_EQ(fl->state, FlightState::Completed);
    EXPECT_EQ(fl->servedSeconds, out.servedSeconds())
        << "query " << out.id;
    EXPECT_EQ(fl->reconciledSeconds(), out.servedSeconds())
        << "query " << out.id;
    EXPECT_EQ(fl->fromDevice, out.fromDevice);
    EXPECT_EQ(fl->attempts, out.attempts);
    EXPECT_EQ(fl->batchSize, out.batchSize);
}

} // namespace

// ---- Reconciliation: clean batched serving -----------------------------

TEST(FlightReconcile, CleanBatchedServing)
{
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    DeviceServer server(dev, spec, 0, nullptr, 1,
                        recordingConfig(4));

    std::vector<ServeOutcome> outs;
    for (uint64_t q = 0; q < 8; ++q)
        ASSERT_TRUE(
            server.enqueueAt(q, genQuery(spec.dim, 10 + q),
                             server.busySeconds()).ok());
    for (auto &o : server.drain())
        outs.push_back(std::move(o));
    ASSERT_EQ(outs.size(), 8u);

    const FlightRecorder &fr = server.flightRecorder();
    EXPECT_TRUE(fr.enabled());
    EXPECT_EQ(fr.completedCount(), 8u);
    EXPECT_EQ(fr.reconciledCount(), 8u);
    for (const auto &out : outs) {
        expectReconciled(fr, out);
        const QueryFlight *fl = fr.flight(out.id);
        ASSERT_EQ(fl->rounds.size(), 1u);
        const auto &round = fl->rounds.front();
        EXPECT_FALSE(round.abandoned);
        // One wait, one staging, one compute, no failures.
        EXPECT_EQ(spanCount(round, Stage::QueueWait), 1u);
        EXPECT_EQ(spanCount(round, Stage::PcieStage), 1u);
        EXPECT_EQ(spanCount(round, Stage::DeviceCompute), 1u);
        EXPECT_EQ(spanCount(round, Stage::DeviceAttempt), 0u);
        EXPECT_EQ(spanCount(round, Stage::CpuFallback), 0u);
        // Table 8 stage children ride under the compute span.
        EXPECT_GE(spanCount(round, Stage::ComputeDetail), 4u);
    }

    // Aggregate attribution reproduces the outcome components when
    // summed in the same (admission) order.
    auto attr = fr.attribution();
    double wait = 0, host = 0, compute = 0;
    for (const auto &out : outs) { // drain order == admission order
        wait += out.queueWaitSeconds;
        host += out.hostSeconds;
        compute += out.retrievalSeconds;
    }
    EXPECT_DOUBLE_EQ(attr["queue_wait"], wait);
    EXPECT_DOUBLE_EQ(attr["pcie_stage"], host); // clean: host = pcie
    EXPECT_DOUBLE_EQ(attr["device_compute"], compute);
    EXPECT_EQ(attr.count("cpu_fallback"), 0u);
    EXPECT_GT(attr["device_compute.calc_distance"], 0.0);
}

// ---- Reconciliation: a failed attempt, then device success -------------

TEST(FlightReconcile, RetriedAttemptStillBitExact)
{
    // The first task hangs once (not sticky): attempt 1 burns the
    // deadline, attempt 2 serves the batch. The failed attempt's
    // exact charge must appear as a DeviceAttempt span and the total
    // still reconcile.
    PlanGuard plan("task_hang:core=0,nth=1;seed:7");
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    DeviceServer server(dev, spec, 0, nullptr, 1,
                        recordingConfig(4));

    std::vector<ServeOutcome> outs;
    for (uint64_t q = 0; q < 4; ++q)
        ASSERT_TRUE(
            server.enqueueAt(q, genQuery(spec.dim, 20 + q),
                             server.busySeconds()).ok());
    for (auto &o : server.drain())
        outs.push_back(std::move(o));
    ASSERT_EQ(outs.size(), 4u);

    const FlightRecorder &fr = server.flightRecorder();
    EXPECT_EQ(fr.reconciledCount(), 4u);
    bool saw_retry = false;
    for (const auto &out : outs) {
        expectReconciled(fr, out);
        if (out.attempts > 1) {
            saw_retry = true;
            EXPECT_TRUE(out.fromDevice);
            const auto *round = fr.flight(out.id)->finalRound();
            ASSERT_NE(round, nullptr);
            EXPECT_EQ(spanCount(*round, Stage::DeviceAttempt),
                      out.attempts - 1);
            EXPECT_EQ(spanCount(*round, Stage::DeviceCompute), 1u);
        }
    }
    EXPECT_TRUE(saw_retry) << "plan produced no retried batch";
}

// ---- Reconciliation: breaker / retry-exhausted CPU fallback ------------

TEST(FlightReconcile, BreakerFallbackBitExact)
{
    // Every task hangs: the first batch exhausts its retries and
    // falls back; the tripped breaker routes the second batch
    // straight to the CPU. Both shapes must reconcile.
    PlanGuard plan("task_hang:p=1;seed:5");
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    DeviceServer server(dev, spec, 0, nullptr, 1,
                        recordingConfig(2));

    std::vector<ServeOutcome> outs;
    for (uint64_t q = 0; q < 4; ++q)
        ASSERT_TRUE(
            server.enqueueAt(q, genQuery(spec.dim, 30 + q),
                             server.busySeconds()).ok());
    for (auto &o : server.drain())
        outs.push_back(std::move(o));
    ASSERT_EQ(outs.size(), 4u);

    const FlightRecorder &fr = server.flightRecorder();
    EXPECT_EQ(fr.reconciledCount(), 4u);
    for (const auto &out : outs) {
        EXPECT_FALSE(out.fromDevice) << "query " << out.id;
        expectReconciled(fr, out);
        const auto *round = fr.flight(out.id)->finalRound();
        ASSERT_NE(round, nullptr);
        EXPECT_EQ(spanCount(*round, Stage::CpuFallback), 1u);
        EXPECT_EQ(spanCount(*round, Stage::DeviceCompute), 0u);
        EXPECT_EQ(spanCount(*round, Stage::DeviceAttempt),
                  out.attempts);
    }
    EXPECT_DOUBLE_EQ(fr.attribution()["device_compute"], 0.0);
    EXPECT_GT(fr.attribution()["cpu_fallback"], 0.0);
}

// ---- Reconciliation: shed at the door, then re-admitted ----------------

TEST(FlightReconcile, ShedThenReadmittedBitExact)
{
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    ServerConfig cfg = recordingConfig(2);
    cfg.admission.maxQueueDepth = 2;
    DeviceServer server(dev, spec, 0, nullptr, 1, cfg);

    ASSERT_TRUE(server.enqueueAt(0, genQuery(spec.dim, 40),
                                 server.busySeconds()).ok());
    ASSERT_TRUE(server.enqueueAt(1, genQuery(spec.dim, 41),
                                 server.busySeconds()).ok());
    // Queue full: the third admission sheds loudly...
    Status shed = server.enqueueAt(2, genQuery(spec.dim, 42),
                                   server.busySeconds());
    ASSERT_FALSE(shed.ok());

    // ...and the recorder saw it even though no flight is open yet.
    const FlightRecorder &fr = server.flightRecorder();
    {
        const QueryFlight *fl = fr.flight(2);
        ASSERT_NE(fl, nullptr);
        EXPECT_EQ(fl->state, FlightState::Shed);
        EXPECT_EQ(fl->sheds, 1u);
        EXPECT_EQ(fl->shedReason, "depth");
    }

    std::vector<ServeOutcome> outs;
    for (auto &o : server.drain())
        outs.push_back(std::move(o));
    ASSERT_TRUE(server.enqueueAt(2, genQuery(spec.dim, 42),
                                 server.busySeconds()).ok());
    for (auto &o : server.drain())
        outs.push_back(std::move(o));
    ASSERT_EQ(outs.size(), 3u);

    EXPECT_EQ(fr.completedCount(), 3u);
    EXPECT_EQ(fr.reconciledCount(), 3u);
    for (const auto &out : outs)
        expectReconciled(fr, out);
    // The rerouted query kept its shed history on the same flight.
    EXPECT_EQ(fr.flight(2)->sheds, 1u);
    EXPECT_EQ(fr.flight(2)->state, FlightState::Completed);
}

// ---- Reconciliation: park -> reset -> replay ---------------------------

TEST(FlightReconcile, ResetReplayBitExact)
{
    // A sticky hang wedges the core mid-stream: the batch parks, the
    // core resets, the journaled queries replay. The abandoned
    // round's charges stay visible in the trace but only the fresh
    // round reconciles — and it must, bit-exactly.
    PlanGuard plan("task_hang:core=0,nth=2,sticky=1;seed:7");
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    ServerConfig cfg = recordingConfig(2);
    cfg.health = enabledPolicy(16, 1, 1, 2);
    DeviceServer server(dev, spec, 0, nullptr, 1, cfg);

    std::vector<ServeOutcome> outs;
    for (uint64_t q = 0; q < 8; ++q)
        ASSERT_TRUE(
            server.enqueueAt(q, genQuery(spec.dim, 50 + q),
                             server.busySeconds()).ok());
    for (auto &o : server.drain())
        outs.push_back(std::move(o));
    ASSERT_EQ(outs.size(), 8u);
    ASSERT_GE(server.resets(), 1u);
    ASSERT_GE(server.replayedQueries(), 1u);

    const FlightRecorder &fr = server.flightRecorder();
    EXPECT_EQ(fr.completedCount(), 8u);
    EXPECT_EQ(fr.reconciledCount(), 8u);
    size_t replayed_flights = 0, parked_flights = 0;
    for (const auto &out : outs) {
        expectReconciled(fr, out);
        const QueryFlight *fl = fr.flight(out.id);
        if (fl->replays > 0) {
            ++replayed_flights;
            EXPECT_FALSE(fl->rounds.back().abandoned);
            // A query parked mid-service keeps its abandoned round
            // for the timeline; one still waiting in the queue at
            // reset time replays with only the fresh round.
            if (fl->rounds.size() >= 2) {
                ++parked_flights;
                EXPECT_TRUE(fl->rounds.front().abandoned);
            }
        }
    }
    EXPECT_EQ(replayed_flights, server.replayedQueries());
    // The wedged batch itself was mid-service when it parked.
    EXPECT_GE(parked_flights, 2u);
}

// ---- Ledger determinism across thread counts ---------------------------

namespace {

struct LedgerSnapshot
{
    std::vector<std::string> ledgers; // per-core ledger JSON dumps
    std::vector<double> served;       // per-query, indexed by id
};

LedgerSnapshot
runRecordedPipeline()
{
    constexpr int kQ = 16;
    gdl::resetFaultStreams();
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    for (unsigned c = 0; c < dev.numCores(); ++c)
        dev.core(c).setMode(apu::ExecMode::TimingOnly);

    ServerConfig cfg = recordingConfig(2);
    cfg.health = enabledPolicy(16, 1, 2, 4);
    std::vector<std::unique_ptr<DeviceServer>> servers;
    for (unsigned c = 0; c < dev.numCores(); ++c)
        servers.push_back(std::make_unique<DeviceServer>(
            dev, spec, c, nullptr, 7, cfg));

    LedgerSnapshot snap;
    snap.served.resize(kQ);
    apu::runOnAllCores(dev, [&](apu::ApuCore &, unsigned c,
                                unsigned n) {
        auto shard = apu::shardOf(kQ, c, n);
        auto &server = *servers[c];
        for (size_t q = shard.begin; q < shard.end; ++q) {
            Status st = server.enqueueAt(
                q, genQuery(spec.dim, 70 + static_cast<int>(q)),
                server.busySeconds());
            cisram_assert(st.ok(), st.toString());
        }
        for (const auto &out : server.drain())
            snap.served[out.id] = out.servedSeconds();
    });
    for (auto &s : servers) {
        // Every journaled query reconciled, even mid-recovery.
        EXPECT_EQ(s->flightRecorder().reconciledCount(),
                  s->flightRecorder().completedCount());
        snap.ledgers.push_back(
            s->flightRecorder().ledgerJson().dump(2));
    }
    return snap;
}

} // namespace

TEST(FlightReconcile, LedgerBitIdenticalAcrossSimThreadCounts)
{
    // The hard case: quarantine -> reset -> replay on core 1 plus
    // transient PCIe corruption everywhere, recorded. The *entire
    // serialized ledger* — every span timestamp, duration, round
    // structure, and reconciliation verdict — must be byte-identical
    // between a serial and a 4-thread run.
    PlanGuard plan(
        "task_hang:core=1,nth=2,sticky=1;pcie_corrupt:p=0.02;"
        "seed:11");
    LedgerSnapshot serial, threaded;
    {
        ThreadSetting one(1);
        serial = runRecordedPipeline();
    }
    {
        ThreadSetting four(4);
        threaded = runRecordedPipeline();
    }
    ASSERT_EQ(serial.ledgers.size(), threaded.ledgers.size());
    for (size_t c = 0; c < serial.ledgers.size(); ++c)
        EXPECT_EQ(serial.ledgers[c], threaded.ledgers[c])
            << "core " << c;
    for (size_t q = 0; q < serial.served.size(); ++q)
        EXPECT_EQ(serial.served[q], threaded.served[q])
            << "q=" << q;
}

// ---- The recorder never charges simulated time -------------------------

TEST(FlightRecorderCost, RecordingNeverChangesTiming)
{
    const auto &spec = ragCorpora()[0];
    auto run = [&](FlightConfig::Mode mode) {
        gdl::resetFaultStreams();
        apu::ApuDevice dev;
        dev.core(0).setMode(apu::ExecMode::TimingOnly);
        ServerConfig cfg = recordingConfig(4);
        cfg.flight.mode = mode;
        DeviceServer server(dev, spec, 0, nullptr, 1, cfg);
        std::vector<double> served;
        for (uint64_t q = 0; q < 8; ++q)
            EXPECT_TRUE(
                server.enqueueAt(q, genQuery(spec.dim, 80 + q),
                                 server.busySeconds()).ok());
        for (const auto &o : server.drain())
            served.push_back(o.servedSeconds());
        served.push_back(server.busySeconds());
        return served;
    };
    auto off = run(FlightConfig::Mode::Off);
    auto on = run(FlightConfig::Mode::On);
    ASSERT_EQ(off.size(), on.size());
    for (size_t i = 0; i < off.size(); ++i)
        EXPECT_EQ(off[i], on[i]) << "i=" << i;
}

TEST(FlightRecorderCost, DisabledRecorderIsInert)
{
    FlightRecorder fr(0, FlightConfig{FlightConfig::Mode::Off});
    EXPECT_FALSE(fr.enabled());
    fr.recordAdmit(1, 0.0);
    fr.recordShed(2, 0.0, "depth");
    fr.beginRound(1, 0.0);
    fr.span(1, Stage::QueueWait, 0, 0.0, 1.0);
    fr.complete(1, FlightCompletion{});
    EXPECT_TRUE(fr.flights().empty());
    EXPECT_EQ(fr.completedCount(), 0u);
    EXPECT_EQ(fr.flight(1), nullptr);
}

// ---- Ledger JSON -------------------------------------------------------

TEST(FlightLedger, JsonCarriesPerQueryVerdicts)
{
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    DeviceServer server(dev, spec, 0, nullptr, 1,
                        recordingConfig(4));
    for (uint64_t q = 0; q < 4; ++q)
        ASSERT_TRUE(
            server.enqueueAt(q, genQuery(spec.dim, 95 + q),
                             server.busySeconds()).ok());
    server.drain();

    json::Value ledger = server.flightRecorder().ledgerJson();
    const auto &root = ledger.asObject();
    ASSERT_TRUE(root.contains("queries"));
    const auto &queries = root.find("queries")->asArray();
    ASSERT_EQ(queries.size(), 4u);
    for (const auto &q : queries) {
        const auto &obj = q.asObject();
        EXPECT_TRUE(obj.find("exact")->asBool());
        EXPECT_EQ(obj.find("served_seconds")->asNumber(),
                  obj.find("reconciled_seconds")->asNumber());
        EXPECT_FALSE(obj.find("rounds")->asArray().empty());
    }

    // The dump is valid JSON end to end.
    json::Value reparsed;
    std::string err;
    EXPECT_TRUE(json::parse(ledger.dump(2), reparsed, &err)) << err;
}

// ---- SLO monitor -------------------------------------------------------

TEST(SloMonitor, WindowingAndBurnRate)
{
    SloPolicy policy;
    policy.windowQueries = 4;
    policy.classes.push_back(SloClass{"c", 0.1, 0.9});
    obs::SloMonitor slo(policy);

    // Window 0: one violation in four -> fraction 0.25, burn
    // 0.25 / (1 - 0.9) = 2.5, breached.
    slo.observe("c", 0.05);
    slo.observe("c", 0.20); // violation
    slo.observe("c", 0.05);
    EXPECT_TRUE(slo.windows().empty()); // window still open
    slo.observe("c", 0.05);
    ASSERT_EQ(slo.windows().size(), 1u);
    const SloWindow &w0 = slo.windows()[0];
    EXPECT_EQ(w0.index, 0u);
    EXPECT_EQ(w0.queries, 4u);
    EXPECT_EQ(w0.violations, 1u);
    EXPECT_DOUBLE_EQ(w0.violationFraction, 0.25);
    EXPECT_DOUBLE_EQ(w0.burnRate, 2.5);
    EXPECT_TRUE(w0.breached);
    EXPECT_FALSE(w0.partial);
    EXPECT_EQ(w0.max, 0.20);

    // Window 1: clean -> burn 0.
    for (int i = 0; i < 4; ++i)
        slo.observe("c", 0.05);
    ASSERT_EQ(slo.windows().size(), 2u);
    EXPECT_DOUBLE_EQ(slo.windows()[1].burnRate, 0.0);
    EXPECT_FALSE(slo.windows()[1].breached);

    EXPECT_EQ(slo.observed("c"), 8u);
    EXPECT_EQ(slo.violations("c"), 1u);
    EXPECT_DOUBLE_EQ(slo.worstBurnRate(), 2.5);
    EXPECT_EQ(slo.breachedWindows(), 1u);
}

TEST(SloMonitor, ExactlyOnTargetIsNotAViolation)
{
    SloPolicy policy;
    policy.windowQueries = 1;
    policy.classes.push_back(SloClass{"c", 0.1, 0.5});
    obs::SloMonitor slo(policy);
    slo.observe("c", 0.1); // == target: meets the SLO
    ASSERT_EQ(slo.windows().size(), 1u);
    EXPECT_EQ(slo.windows()[0].violations, 0u);
}

TEST(SloMonitor, FlushClosesPartialWindowsOnce)
{
    SloPolicy policy;
    policy.windowQueries = 4;
    policy.classes.push_back(SloClass{"a", 1.0, 0.99});
    policy.classes.push_back(SloClass{"b", 1.0, 0.99});
    obs::SloMonitor slo(policy);
    slo.observe("a", 0.5);
    slo.observe("a", 2.0); // violation
    slo.observe("b", 0.5);
    slo.flush();
    ASSERT_EQ(slo.windows().size(), 2u); // map order: a then b
    EXPECT_TRUE(slo.windows()[0].partial);
    EXPECT_EQ(slo.windows()[0].queries, 2u);
    EXPECT_EQ(slo.windows()[0].violations, 1u);
    EXPECT_TRUE(slo.windows()[1].partial);
    slo.flush(); // idempotent: nothing new to close
    EXPECT_EQ(slo.windows().size(), 2u);
}

TEST(SloMonitor, ZeroQueryWindowIsDefinedAndHarmless)
{
    // Epoch boundaries close a window for EVERY class, including one
    // that saw no traffic. The contract for a zero-query window:
    // violation fraction 0, burn rate 0, never breached, quantiles 0
    // (an empty histogram's quantile is 0 by pin), marked partial.
    SloPolicy policy;
    policy.windowQueries = 8;
    policy.classes.push_back(SloClass{"busy", 0.1, 0.9});
    policy.classes.push_back(SloClass{"silent", 0.1, 0.9});
    obs::SloMonitor slo(policy);
    slo.observe("busy", 0.05);
    slo.flushAll();
    ASSERT_EQ(slo.windows().size(), 2u); // map order: busy, silent
    const SloWindow &quiet = slo.windows()[1];
    EXPECT_EQ(quiet.cls, "silent");
    EXPECT_EQ(quiet.queries, 0u);
    EXPECT_EQ(quiet.violations, 0u);
    EXPECT_DOUBLE_EQ(quiet.violationFraction, 0.0);
    EXPECT_DOUBLE_EQ(quiet.burnRate, 0.0);
    EXPECT_FALSE(quiet.breached);
    EXPECT_TRUE(quiet.partial);
    EXPECT_DOUBLE_EQ(quiet.p50, 0.0);
    EXPECT_DOUBLE_EQ(quiet.p99, 0.0);
    EXPECT_DOUBLE_EQ(quiet.max, 0.0);
    EXPECT_EQ(slo.breachedWindows(), 0u);
}

TEST(SloMonitor, FlushAllTilesWindowsOneToOneWithEpochs)
{
    // flushAll() at every epoch boundary gives every class the same
    // number of windows — the SLO curve tiles the run 1:1 with
    // epochs regardless of which classes saw traffic when. Plain
    // flush() still skips the empty windows.
    SloPolicy policy;
    policy.windowQueries = 8;
    policy.classes.push_back(SloClass{"a", 0.1, 0.9});
    policy.classes.push_back(SloClass{"b", 0.1, 0.9});
    obs::SloMonitor slo(policy);

    slo.observe("a", 0.05); // epoch 0: only a sees traffic
    slo.flushAll();
    slo.observe("b", 0.05); // epoch 1: only b sees traffic
    slo.flushAll();
    ASSERT_EQ(slo.windows().size(), 4u);
    size_t a_windows = 0, b_windows = 0;
    for (const SloWindow &w : slo.windows()) {
        EXPECT_TRUE(w.partial);
        (w.cls == "a" ? a_windows : b_windows) += 1;
    }
    EXPECT_EQ(a_windows, 2u);
    EXPECT_EQ(b_windows, 2u);

    // Final flush(): both windows are empty, nothing new closes.
    slo.flush();
    EXPECT_EQ(slo.windows().size(), 4u);
    // But another flushAll() does emit two more empty windows.
    slo.flushAll();
    EXPECT_EQ(slo.windows().size(), 6u);
}

TEST(SloMonitor, ToJsonSummarizes)
{
    SloPolicy policy;
    policy.windowQueries = 2;
    policy.classes.push_back(SloClass{"c", 0.1, 0.9});
    obs::SloMonitor slo(policy);
    slo.observe("c", 0.2);
    slo.observe("c", 0.2);
    json::Value doc = slo.toJson();
    const auto &root = doc.asObject();
    EXPECT_EQ(root.find("window_queries")->asNumber(), 2.0);
    EXPECT_EQ(root.find("windows")->asArray().size(), 1u);
    EXPECT_EQ(root.find("breached_windows")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(root.find("worst_burn_rate")->asNumber(), 10.0);
}

TEST(SloMonitorDeathTest, MisuseDies)
{
    SloPolicy good;
    good.windowQueries = 4;
    good.classes.push_back(SloClass{"c", 0.1, 0.9});

    EXPECT_DEATH(
        {
            obs::SloMonitor slo(good);
            slo.observe("typo", 0.1);
        },
        "unconfigured class");

    SloPolicy zero = good;
    zero.windowQueries = 0;
    EXPECT_DEATH(obs::SloMonitor{zero}, "windowQueries");

    SloPolicy unnamed = good;
    unnamed.classes.push_back(SloClass{"", 0.1, 0.9});
    EXPECT_DEATH(obs::SloMonitor{unnamed}, "unnamed");

    SloPolicy badObjective = good;
    badObjective.classes[0].objective = 1.0;
    EXPECT_DEATH(obs::SloMonitor{badObjective}, "objective");

    SloPolicy dup = good;
    dup.classes.push_back(SloClass{"c", 0.2, 0.9});
    EXPECT_DEATH(obs::SloMonitor{dup}, "duplicate");
}

// ---- Histogram quantile pins (bench snapshots depend on these) ---------

TEST(HistogramPins, EmptyQuantileIsZero)
{
    metrics::Histogram h;
    EXPECT_EQ(h.count(), 0u);
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(h.quantile(q), 0.0) << "q=" << q;
}

TEST(HistogramPins, SingleSampleQuantileIsThatSample)
{
    metrics::Histogram h;
    h.observe(0.42);
    for (double q : {0.0, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(h.quantile(q), 0.42) << "q=" << q;
}

TEST(HistogramPins, MergedQuantilesEqualPooledObservation)
{
    // The fleet router rolls per-device latency histograms into one
    // fleet series with Histogram::merge. Buckets add and moments
    // combine, so merging shards must be *identical* — count, sum,
    // min/max, and every quantile, bit-for-bit — to having observed
    // the pooled samples into a single histogram.
    metrics::Histogram shard[4];
    metrics::Histogram pooled;
    uint64_t x = 0x2545f4914f6cdd1dull;
    for (int i = 0; i < 4096; ++i) {
        // xorshift64*: deterministic, spans many buckets.
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        double v = 1e-6 *
            (1.0 + static_cast<double>(x % 100000) / 100.0);
        shard[i % 4].observe(v);
        pooled.observe(v);
    }

    metrics::Histogram merged;
    for (const auto &s : shard)
        merged.merge(s);

    EXPECT_EQ(merged.count(), pooled.count());
    EXPECT_EQ(merged.sum(), pooled.sum());
    EXPECT_EQ(merged.min(), pooled.min());
    EXPECT_EQ(merged.max(), pooled.max());
    for (int b = 0; b < metrics::Histogram::numBuckets; ++b)
        ASSERT_EQ(merged.bucketCount(b), pooled.bucketCount(b))
            << "bucket " << b;
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0})
        EXPECT_EQ(merged.quantile(q), pooled.quantile(q))
            << "q=" << q;

    // Merging an empty histogram is a no-op.
    metrics::Histogram empty;
    double p99 = merged.quantile(0.99);
    merged.merge(empty);
    EXPECT_EQ(merged.quantile(0.99), p99);
    EXPECT_EQ(merged.count(), pooled.count());
}

TEST(HistogramPins, SnapshotExportsCountAndSum)
{
    auto &h = metrics::Registry::get().histogram(
        "test_obs.pin_series");
    h.observe(1.0);
    h.observe(3.0);
    json::Value doc = metrics::Registry::get().toJson();
    const json::Value *hists =
        doc.asObject().find("histograms");
    ASSERT_NE(hists, nullptr);
    const json::Value *series =
        hists->asObject().find("test_obs.pin_series");
    ASSERT_NE(series, nullptr);
    const auto &obj = series->asObject();
    EXPECT_EQ(obj.find("count")->asNumber(), 2.0);
    EXPECT_EQ(obj.find("sum")->asNumber(), 4.0);
    for (const char *key : {"min", "max", "mean", "p50", "p95",
                            "p99"})
        EXPECT_TRUE(obj.contains(key)) << key;
}

// ---- bench_diff: the regression-gate classifier ------------------------

namespace {

json::Value
miniReport()
{
    json::Value doc;
    doc["bench"] = "mini";
    doc["schema"] = 1;
    doc["scalars"]["qps"] = 100.0;
    doc["scalars"]["served_p99_seconds"] = 0.5;
    doc["scalars"]["wall_seconds"] = 3.0;
    doc["scalars"]["exactly_once"] = 1.0;
    json::Value hist;
    hist["count"] = 32;
    hist["sum"] = 16.0;
    hist["min"] = 0.25;
    hist["max"] = 1.0;
    hist["mean"] = 0.5;
    hist["p50"] = 0.5;
    hist["p95"] = 0.9;
    hist["p99"] = 1.0;
    doc["metrics"]["histograms"]["rag.served_seconds"] =
        std::move(hist);
    return doc;
}

} // namespace

TEST(BenchDiff, DirectionClassification)
{
    using obs::MetricDirection;
    EXPECT_EQ(scalarDirection("qps"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(scalarDirection("speedup_b8_overlap_vs_seq"),
              MetricDirection::HigherIsBetter);
    EXPECT_EQ(scalarDirection("served_p99_seconds"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(scalarDirection("task_timeouts"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(scalarDirection("slo_worst_burn_rate"),
              MetricDirection::LowerIsBetter);
    // Degradation ratios gate lower even though "ratio" alone would
    // not: the "degradation" token wins.
    EXPECT_EQ(scalarDirection("p99_degradation_ratio"),
              MetricDirection::LowerIsBetter);
    // Host wall time is machine-dependent: never gate on it.
    EXPECT_EQ(scalarDirection("wall_seconds"),
              MetricDirection::Informational);
    EXPECT_EQ(scalarDirection("host_cpus"),
              MetricDirection::Informational);
    EXPECT_EQ(scalarDirection("mystery_knob"),
              MetricDirection::Informational);
    EXPECT_EQ(histogramDirection("rag.served_seconds"),
              MetricDirection::LowerIsBetter);
    EXPECT_EQ(histogramDirection("some.count_series"),
              MetricDirection::Informational);
}

TEST(BenchDiff, IdenticalSnapshotsPass)
{
    json::Value doc = miniReport();
    obs::BenchDiffResult res = diffBenchReports(doc, doc);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.regressions, 0u);
    EXPECT_EQ(res.improvements, 0u);
    EXPECT_GT(res.compared, 0u);
    EXPECT_EQ(res.bench, "mini");
}

TEST(BenchDiff, GatesPastThresholdInBadDirectionOnly)
{
    json::Value base = miniReport();

    // 12% worse latency: regression at the default 10% gate.
    json::Value cur = miniReport();
    cur["scalars"]["served_p99_seconds"] = 0.56;
    EXPECT_FALSE(diffBenchReports(base, cur).ok());

    // 8% worse: under threshold, passes.
    cur["scalars"]["served_p99_seconds"] = 0.54;
    EXPECT_TRUE(diffBenchReports(base, cur).ok());

    // 12% *better* latency: improvement, not regression.
    cur["scalars"]["served_p99_seconds"] = 0.44;
    obs::BenchDiffResult res = diffBenchReports(base, cur);
    EXPECT_TRUE(res.ok());
    EXPECT_EQ(res.improvements, 1u);

    // Throughput collapse gates in the other direction.
    cur = miniReport();
    cur["scalars"]["qps"] = 85.0;
    EXPECT_FALSE(diffBenchReports(base, cur).ok());

    // Wall clock may drift arbitrarily: informational.
    cur = miniReport();
    cur["scalars"]["wall_seconds"] = 30.0;
    EXPECT_TRUE(diffBenchReports(base, cur).ok());

    // A tighter threshold catches what the default lets through.
    cur = miniReport();
    cur["scalars"]["served_p99_seconds"] = 0.54;
    obs::BenchDiffOptions tight;
    tight.thresholdPct = 5.0;
    EXPECT_FALSE(diffBenchReports(base, cur, tight).ok());
}

TEST(BenchDiff, MissingKeysReportButNeverGate)
{
    json::Value base = miniReport();
    base["scalars"]["retired_metric"] = 7.0;
    json::Value cur = miniReport();
    cur["scalars"]["brand_new_metric"] = 9.0;

    obs::BenchDiffResult res = diffBenchReports(base, cur);
    EXPECT_TRUE(res.ok());
    bool saw_only_base = false, saw_only_current = false;
    for (const auto &d : res.deltas) {
        saw_only_base |= d.onlyBase && d.key == "retired_metric";
        saw_only_current |=
            d.onlyCurrent && d.key == "brand_new_metric";
    }
    EXPECT_TRUE(saw_only_base);
    EXPECT_TRUE(saw_only_current);
}

TEST(BenchDiff, HistogramPercentilesGateByCount)
{
    json::Value base = miniReport();
    json::Value cur = miniReport();
    cur["metrics"]["histograms"]["rag.served_seconds"]["p99"] = 1.2;
    EXPECT_FALSE(diffBenchReports(base, cur).ok());

    // Below the sample floor the percentile is noise: skipped.
    obs::BenchDiffOptions sparse;
    sparse.minHistogramCount = 64;
    EXPECT_TRUE(diffBenchReports(base, cur, sparse).ok());
}

TEST(BenchDiff, DegradedFixtureFiresTheGate)
{
    // The self-test bench_compare's ctest gate relies on: a snapshot
    // degraded 12% in every gated direction must fail a 10% gate and
    // pass a 20% one.
    json::Value base = miniReport();
    json::Value worse = degradeBenchReport(base, 12.0);

    obs::BenchDiffResult res = diffBenchReports(base, worse);
    EXPECT_FALSE(res.ok());
    EXPECT_GT(res.regressions, 1u); // scalars AND histogram p99s

    obs::BenchDiffOptions loose;
    loose.thresholdPct = 20.0;
    EXPECT_TRUE(diffBenchReports(base, worse, loose).ok());

    // Informational keys and histogram counts pass through
    // untouched — degrading must not fake a coverage change.
    const auto &scal = worse.asObject()
                           .find("scalars")->asObject();
    EXPECT_EQ(scal.find("wall_seconds")->asNumber(), 3.0);
    const auto &hist = worse.asObject()
                           .find("metrics")->asObject()
                           .find("histograms")->asObject()
                           .find("rag.served_seconds")->asObject();
    EXPECT_EQ(hist.find("count")->asNumber(), 32.0);
    EXPECT_GT(hist.find("p99")->asNumber(), 1.0);
    // Higher-is-better scalars degrade downward.
    EXPECT_LT(scal.find("qps")->asNumber(), 100.0);
}

// ---- Trace writer: atomic, and loud on a bad path ----------------------

TEST(TraceWriter, WriteIsAtomicAndParsable)
{
    // Per-process path: the plain, ASan and TSan copies of this
    // suite run concurrently under ctest -j.
    std::string file = "/tmp/cisram_test_obs_trace." +
        std::to_string(getpid()) + ".json";
    const char *path = file.c_str();
    std::remove(path);
    std::remove((file + ".tmp").c_str());

    auto &tracer = trace::Tracer::get();
    tracer.enable(path);
    tracer.async('b', 1, 0, "query", "serving.query", 1.0, 42);
    tracer.async('e', 1, 0, "query", "serving.query", 2.0, 42);
    tracer.async('s', 1, 0, "flow", "serving.flow", 1.5, 7);
    tracer.async('f', 1, 0, "flow", "serving.flow", 1.8, 7);
    tracer.write();

    std::string text;
    {
        std::FILE *f = std::fopen(path, "rb");
        ASSERT_NE(f, nullptr);
        char buf[4096];
        size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
    }
    json::Value doc;
    std::string err;
    ASSERT_TRUE(json::parse(text, doc, &err)) << err;
    EXPECT_FALSE(
        doc.asObject().find("traceEvents")->asArray().empty());

    // No temp file survives a successful write.
    struct stat st;
    EXPECT_NE(stat((std::string(path) + ".tmp").c_str(), &st), 0);
    std::remove(path);
}

TEST(TraceWriterDeathTest, UnwritablePathDiesLoudly)
{
    // A CISRAM_TRACE pointing into a directory that does not exist
    // must kill the run at write time, not silently drop the
    // timeline the user asked for.
    EXPECT_EXIT(
        {
            auto &tracer = trace::Tracer::get();
            tracer.enable(
                "/nonexistent_cisram_dir/subdir/trace.json");
            tracer.instant(0, 0, "x", 1.0);
            tracer.write();
        },
        testing::ExitedWithCode(1), "CISRAM_TRACE");
}
