/**
 * @file
 * The batched serving pipeline and the serving-path correctness
 * contracts: exact circuit-breaker cooldown counts, deterministic
 * batch formation, batched-vs-single functional equivalence,
 * overlapped-streaming timing invariants, honest per-attempt latency
 * accounting under injected faults, stage attribution of the bias
 * setup, and bit-identical pipeline runs for any CISRAM_SIM_THREADS.
 */

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apusim/apu.hh"
#include "apusim/multicore.hh"
#include "baseline/faisslite.hh"
#include "baseline/workloads.hh"
#include "common/metrics.hh"
#include "common/status.hh"
#include "common/threadpool.hh"
#include "dramsim/dram_sim.hh"
#include "fault/fault.hh"
#include "gdl/gdl.hh"
#include "kernels/rag.hh"
#include "kernels/serving.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::kernels;

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

} // namespace

// ---- Circuit breaker: exact cooldown counts ----------------------------

TEST(ServingBreaker, ExactCooldownCounts)
{
    // While Open, exactly `cooldown` calls fall back; the next call
    // is the probe. The pre-fix code admitted the probe one query
    // early (only cooldown-1 fallbacks).
    for (unsigned cooldown : {1u, 2u, 4u}) {
        CircuitBreaker br(/*failure_threshold=*/1, cooldown);
        br.recordFailure();
        ASSERT_EQ(br.state(), BreakerState::Open)
            << "cooldown " << cooldown;
        for (unsigned i = 0; i < cooldown; ++i)
            EXPECT_FALSE(br.allowRequest())
                << "cooldown " << cooldown << ", fallback " << i;
        EXPECT_TRUE(br.allowRequest())
            << "cooldown " << cooldown << ": probe expected";
        EXPECT_EQ(br.state(), BreakerState::HalfOpen);
    }
}

TEST(ServingBreaker, ZeroCooldownProbesImmediately)
{
    CircuitBreaker br(1, 0);
    br.recordFailure();
    ASSERT_EQ(br.state(), BreakerState::Open);
    EXPECT_TRUE(br.allowRequest());
    EXPECT_EQ(br.state(), BreakerState::HalfOpen);
}

TEST(ServingBreaker, FailedProbeRestartsFullCooldown)
{
    CircuitBreaker br(1, 3);
    br.recordFailure();
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 3; ++i)
            EXPECT_FALSE(br.allowRequest()) << "round " << round;
        EXPECT_TRUE(br.allowRequest()) << "round " << round;
        br.recordFailure(); // probe fails: back to Open
        EXPECT_EQ(br.state(), BreakerState::Open);
    }
    EXPECT_EQ(br.trips(), 3u); // initial + two failed probes
}

TEST(ServingBreaker, ProbeOutcomesAreCounted)
{
    // Every half-open probe outcome lands in the metrics registry:
    // operators watching breaker.probe_failure climb without a
    // matching probe_success are looking at a persistent fault.
    auto &succ =
        metrics::Registry::get().counter("breaker.probe_success");
    auto &fail =
        metrics::Registry::get().counter("breaker.probe_failure");
    double succ_before = succ.value();
    double fail_before = fail.value();

    CircuitBreaker br(1, 1);
    br.recordFailure(); // trips Open
    EXPECT_FALSE(br.allowRequest()); // cooldown
    EXPECT_TRUE(br.allowRequest());  // probe admitted (HalfOpen)
    br.recordFailure();              // probe fails: re-open
    EXPECT_EQ(fail.value() - fail_before, 1.0);
    EXPECT_EQ(succ.value() - succ_before, 0.0);

    EXPECT_FALSE(br.allowRequest());
    EXPECT_TRUE(br.allowRequest()); // second probe
    br.recordSuccess();             // probe succeeds: close
    EXPECT_EQ(succ.value() - succ_before, 1.0);
    EXPECT_EQ(fail.value() - fail_before, 1.0);
    EXPECT_EQ(br.state(), BreakerState::Closed);

    // Success from a Closed breaker is not a probe: no counter move.
    br.recordSuccess();
    EXPECT_EQ(succ.value() - succ_before, 1.0);
}

// ---- Batch former -------------------------------------------------------

namespace {

PendingQuery
pq(uint64_t id)
{
    return PendingQuery{id, std::vector<int16_t>(4, 0), 0.0};
}

} // namespace

TEST(BatchFormer, ShipsWhenFull)
{
    BatchFormer f(BatchPolicy{4, 100});
    for (uint64_t i = 0; i < 3; ++i) {
        f.admit(pq(i));
        EXPECT_FALSE(f.batchReady()) << "after admission " << i;
    }
    f.admit(pq(3));
    ASSERT_TRUE(f.batchReady());
    auto batch = f.takeBatch();
    ASSERT_EQ(batch.size(), 4u);
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(batch[i].id, i); // FIFO order
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.batchesFormed(), 1u);
}

TEST(BatchFormer, LingerBoundShipsPartialBatch)
{
    // maxBatch 8, but the oldest query ships after 3 later
    // admissions even though the batch is not full.
    BatchFormer f(BatchPolicy{8, 3});
    f.admit(pq(0));
    EXPECT_FALSE(f.batchReady());
    f.admit(pq(1));
    f.admit(pq(2));
    EXPECT_FALSE(f.batchReady());
    f.admit(pq(3)); // third admission after query 0
    EXPECT_TRUE(f.batchReady());
    EXPECT_EQ(f.takeBatch().size(), 4u);
}

TEST(BatchFormer, ZeroLingerIsSequentialServing)
{
    BatchFormer f(BatchPolicy{8, 0});
    f.admit(pq(0));
    EXPECT_TRUE(f.batchReady());
    EXPECT_EQ(f.takeBatch().size(), 1u);
}

TEST(BatchFormer, TakeBatchOnEmptyReturnsNothing)
{
    BatchFormer f;
    EXPECT_FALSE(f.batchReady());
    EXPECT_TRUE(f.takeBatch().empty());
    EXPECT_EQ(f.batchesFormed(), 0u);
}

TEST(BatchFormerDeathTest, RejectsOversizedPolicy)
{
    EXPECT_DEATH(BatchFormer f(BatchPolicy{9, 1}), "maxBatch");
}

TEST(BatchFormer, TimeCloseOutShipsDepthOneAtTheBound)
{
    // Open-loop close-out: a lone query under a sparse trace has no
    // batch-mates coming, so it ships once the observed arrival
    // clock reaches its admission plus maxLingerSeconds — inclusive
    // at the bound, never before.
    BatchFormer f(BatchPolicy{8, 100, 0.5});
    f.admit(PendingQuery{1, std::vector<int16_t>(4, 0), 1.0});
    EXPECT_FALSE(f.batchReady());
    EXPECT_FALSE(f.batchReadyAt(1.0));
    EXPECT_FALSE(f.batchReadyAt(1.499));
    EXPECT_TRUE(f.batchReadyAt(1.5));
    EXPECT_EQ(f.frontAdmitSeconds(), 1.0);
    EXPECT_EQ(f.takeBatch().size(), 1u);
    // An empty queue never closes out, whatever the clock says.
    EXPECT_FALSE(f.batchReadyAt(100.0));
}

TEST(BatchFormer, ExactlyMaxLingerAdmissionsStillShipsByCount)
{
    // The admission-count rule is independent of the time close-out:
    // with an absurd time bound, exactly maxLingerAdmissions later
    // admissions ship the oldest query; one fewer does not.
    BatchFormer f(BatchPolicy{8, 3, 1e9});
    f.admit(pq(0));
    f.admit(pq(1));
    f.admit(pq(2));
    EXPECT_FALSE(f.batchReady());
    EXPECT_FALSE(f.batchReadyAt(0.0));
    f.admit(pq(3)); // exactly the third admission after query 0
    EXPECT_TRUE(f.batchReady());
    EXPECT_TRUE(f.batchReadyAt(0.0)); // no clock involved
    EXPECT_EQ(f.takeBatch().size(), 4u);
}

// ---- Batched retrieval: functional equivalence -------------------------

TEST(ServingBatch, EveryBatchSizeMatchesSingleRetrieval)
{
    RagCorpusSpec corpus{"unit", 0, 2500, 368};
    const uint64_t seed = 77;
    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, corpus, 5);

    std::vector<std::vector<int16_t>> queries;
    std::vector<RagRunResult> singles;
    for (int q = 0; q < 8; ++q) {
        queries.push_back(genQuery(corpus.dim, 300 + q));
        singles.push_back(retriever.retrieve(
            queries.back(), RagVariant::AllOpts, seed));
    }

    for (size_t b = 1; b <= 8; ++b) {
        std::vector<std::vector<int16_t>> sub(queries.begin(),
                                              queries.begin() + b);
        auto batched = retriever.retrieveBatch(sub, seed);
        ASSERT_EQ(batched.size(), b);
        for (size_t q = 0; q < b; ++q) {
            ASSERT_EQ(batched[q].hits.size(),
                      singles[q].hits.size())
                << "batch " << b << ", query " << q;
            for (size_t i = 0; i < singles[q].hits.size(); ++i) {
                EXPECT_EQ(batched[q].hits[i].id,
                          singles[q].hits[i].id)
                    << "batch " << b << ", query " << q;
                EXPECT_EQ(batched[q].hits[i].score,
                          singles[q].hits[i].score);
            }
        }
    }
}

TEST(ServingBatch, OverlapDoesNotChangeFunctionalResults)
{
    RagCorpusSpec corpus{"unit", 0, 2000, 368};
    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, corpus, 5);

    std::vector<std::vector<int16_t>> queries;
    for (int q = 0; q < 4; ++q)
        queries.push_back(genQuery(corpus.dim, 500 + q));

    auto seq = retriever.retrieveBatch(queries, 9,
                                       RagBatchOptions{false});
    auto ovl = retriever.retrieveBatch(queries, 9,
                                       RagBatchOptions{true});
    for (size_t q = 0; q < queries.size(); ++q) {
        ASSERT_EQ(seq[q].hits.size(), ovl[q].hits.size());
        for (size_t i = 0; i < seq[q].hits.size(); ++i)
            EXPECT_EQ(seq[q].hits[i].id, ovl[q].hits[i].id);
    }
}

// ---- Overlapped streaming: timing invariants ---------------------------

TEST(ServingOverlap, TimingInvariantsAtPaperScale)
{
    const auto &spec = ragCorpora()[2]; // 200 GB, many supertiles
    std::vector<std::vector<int16_t>> queries;
    for (int q = 0; q < 4; ++q)
        queries.push_back(genQuery(spec.dim, 40 + q));

    auto run = [&](bool overlap) {
        apu::ApuDevice dev;
        dev.core(0).setMode(apu::ExecMode::TimingOnly);
        dram::DramSystem hbm(dram::hbm2eConfig());
        RagRetriever retriever(dev, hbm, spec, 5);
        return retriever.retrieveBatch(queries, 1,
                                       RagBatchOptions{overlap});
    };
    auto seq = run(false);
    auto ovl = run(true);

    // Stage attribution is mode-independent: overlap only moves work
    // off the critical path, it never re-labels it.
    EXPECT_DOUBLE_EQ(ovl[0].stages.loadEmbedding,
                     seq[0].stages.loadEmbedding);
    EXPECT_DOUBLE_EQ(ovl[0].stages.calcDistance,
                     seq[0].stages.calcDistance);
    EXPECT_DOUBLE_EQ(ovl[0].stages.loadQuery,
                     seq[0].stages.loadQuery);
    EXPECT_DOUBLE_EQ(seq[0].stages.overlapHidden, 0.0);

    // Overlap helps at this scale and never hurts.
    EXPECT_GT(ovl[0].stages.overlapHidden, 0.0);
    EXPECT_LT(ovl[0].stages.total(), seq[0].stages.total());

    // The pipeline cannot beat its slower stage: the overlapped
    // stream+compute portion is bounded below by max(stream, calc).
    double overlapped_portion = ovl[0].stages.loadEmbedding +
        ovl[0].stages.calcDistance - ovl[0].stages.overlapHidden;
    EXPECT_GE(overlapped_portion,
              std::max(ovl[0].stages.loadEmbedding,
                       ovl[0].stages.calcDistance));
}

TEST(ServingOverlap, SingleSupertileHidesNothing)
{
    // One supertile leaves nothing to pipeline: the first stream and
    // the last compute are both exposed, and the sync charge makes
    // overlap a strict non-win, which the clamp turns into "no
    // change".
    RagCorpusSpec corpus{"tiny", 0, 10000, 368};
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, corpus, 5);
    std::vector<std::vector<int16_t>> queries{genQuery(corpus.dim,
                                                       3)};
    auto r = retriever.retrieveBatch(queries, 1,
                                     RagBatchOptions{true});
    EXPECT_DOUBLE_EQ(r[0].stages.overlapHidden, 0.0);
}

// ---- Stage attribution of the bias setup -------------------------------

TEST(ServingStages, LoadQueryIsPureQueryStaging)
{
    // The batched load-query stage must be exactly the cost of the
    // L4->L3 query transfer: the score-bias constant setup
    // (cpyImm16) belongs to calc-distance. The pre-fix code charged
    // it to load-query, which this exact-equality check catches.
    const auto &spec = ragCorpora()[0];
    std::vector<std::vector<int16_t>> one{genQuery(spec.dim, 11)};

    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto r = retriever.retrieveBatch(one, 1);

    apu::ApuDevice ref;
    ref.core(0).setMode(apu::ExecMode::TimingOnly);
    ref.core(0).stats().reset();
    ref.core(0).dmaL4ToL3(0, 0, spec.dim * 2);
    double staging =
        ref.cyclesToSeconds(ref.core(0).stats().cycles());

    EXPECT_DOUBLE_EQ(r[0].stages.loadQuery, staging);
}

// ---- DeviceServer: end-to-end functional serving -----------------------

namespace {

struct ServingFixture
{
    RagCorpusSpec corpus{"unit", 0, 3000, 368};
    uint64_t seed = 2026;
    apu::ApuDevice dev;
    IndexFlatI16 index{368};

    ServingFixture()
    {
        auto emb =
            genEmbeddings(corpus, 0, corpus.numChunks, seed);
        index.add(emb.data(), corpus.numChunks);
    }

    std::vector<int16_t>
    query(int q) const
    {
        return genQuery(corpus.dim, 600 + q);
    }

    bool
    matchesGolden(int q, const std::vector<Hit> &hits) const
    {
        return hits == index.search(query(q).data(), 5);
    }
};

} // namespace

TEST(DeviceServerTest, PipelineServesCorrectAnswers)
{
    ServingFixture fx;
    ServerConfig cfg;
    cfg.batch = BatchPolicy{4, 4};
    DeviceServer server(fx.dev, fx.corpus, 0, &fx.index, fx.seed,
                        cfg);

    // All eight queries arrive at once (admitted at the same server
    // clock), so the second batch's wait is pure head-of-line
    // blocking behind the first.
    std::vector<ServeOutcome> outs;
    for (int q = 0; q < 8; ++q)
        server.enqueueAt(static_cast<uint64_t>(q), fx.query(q),
                         server.busySeconds());
    for (auto &o : server.drain())
        outs.push_back(std::move(o));

    ASSERT_EQ(outs.size(), 8u);
    EXPECT_EQ(server.former().batchesFormed(), 2u);
    for (const auto &out : outs) {
        EXPECT_TRUE(out.ok);
        EXPECT_TRUE(out.fromDevice);
        EXPECT_EQ(out.batchSize, 4u);
        EXPECT_TRUE(
            fx.matchesGolden(static_cast<int>(out.id), out.run.hits))
            << "query " << out.id;
    }

    // Queue wait: the first batch ships at a quiet server (no wait);
    // the second batch's queries waited for the first to finish.
    EXPECT_DOUBLE_EQ(outs[0].queueWaitSeconds, 0.0);
    EXPECT_GT(outs[4].queueWaitSeconds, 0.0);
    EXPECT_GE(outs[4].servedSeconds(), outs[4].queueWaitSeconds);
    EXPECT_GT(server.busySeconds(), 0.0);
}

// ---- Open-loop close-out at the device server --------------------------

TEST(ServingBatch, DepthOneClosesOutAtExactlyTheLingerBound)
{
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    ServerConfig cfg;
    cfg.batch = BatchPolicy{8, 100, 0.5};
    DeviceServer server(dev, spec, 0, nullptr, 1, cfg);

    ASSERT_TRUE(
        server.enqueueAt(1, genQuery(spec.dim, 1), 1.0).ok());
    // Neither depth nor admission count is anywhere near shipping,
    // and the arrival clock has not reached the close-out instant.
    EXPECT_TRUE(server.pumpUntil(1.499).empty());
    // Poll PAST the bound: service still starts at the close-out
    // instant (admit + linger = 1.5), not at the polling instant,
    // so the query waited exactly the linger bound.
    auto outs = server.pumpUntil(1.6);
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_TRUE(outs[0].ok);
    EXPECT_EQ(outs[0].batchSize, 1u);
    EXPECT_DOUBLE_EQ(outs[0].queueWaitSeconds, 0.5);
}

TEST(ServingBatch, BurstThenSilenceShipsFullThenCloseOutTail)
{
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    ServerConfig cfg;
    cfg.batch = BatchPolicy{4, 100, 0.25};
    DeviceServer server(dev, spec, 0, nullptr, 1, cfg);

    // Six arrivals in a tight burst (1/64 s apart — exact binary
    // times so the close-out comparison has no rounding slop), then
    // silence: the open-loop trace never fills a second batch.
    for (uint64_t q = 0; q < 6; ++q)
        ASSERT_TRUE(server
                        .enqueueAt(q + 1, genQuery(spec.dim, q),
                                   q * 0.015625)
                        .ok());
    // The burst depth-ships one full batch immediately...
    auto first = server.pumpUntil(6 * 0.015625);
    ASSERT_EQ(first.size(), 4u);
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].id, i + 1);
        EXPECT_EQ(first[i].batchSize, 4u);
    }
    // ...and the 2-query tail lingers: its oldest admit is at
    // 4/64 s, so close-out is at 4/64 + 0.25 and not a tick before.
    EXPECT_TRUE(server.pumpUntil(4 * 0.015625 + 0.249).empty());
    auto tail = server.pumpUntil(4 * 0.015625 + 0.25);
    ASSERT_EQ(tail.size(), 2u);
    EXPECT_EQ(tail[0].id, 5u);
    EXPECT_EQ(tail[1].id, 6u);
    EXPECT_EQ(tail[0].batchSize, 2u);
    // Exactly-once: every burst query served, none twice.
    EXPECT_TRUE(server.pumpUntil(1e9).empty());
}

// ---- Latency accounting under injected faults --------------------------

namespace {

/** Admit one query at the server's clock and drain: its outcome. */
ServeOutcome
serveOne(DeviceServer &server, uint64_t id,
         std::vector<int16_t> query)
{
    EXPECT_TRUE(server
                    .enqueueAt(id, std::move(query),
                               server.busySeconds())
                    .ok());
    auto outs = server.drain();
    EXPECT_EQ(outs.size(), 1u);
    return outs.empty() ? ServeOutcome{} : outs[0];
}

} // namespace

TEST(ServingLatency, ImmediateFailuresDontChargeTheDeadline)
{
    // Every PCIe transfer corrupts: each device attempt dies in
    // microseconds of (retried) transfer time, so the served latency
    // must NOT include the 0.5 s deadline budget per attempt. The
    // pre-fix accounting charged attempts * deadline here.
    PlanGuard plan("pcie_corrupt:p=1;seed:5");
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    DeviceServer server(dev, spec, 0, nullptr, 1, ServerConfig{});

    ServeOutcome out = serveOne(server, 1, genQuery(spec.dim, 1));
    EXPECT_TRUE(out.ok);
    EXPECT_FALSE(out.fromDevice);
    EXPECT_EQ(out.attempts, server.config().retry.maxAttempts);
    EXPECT_FALSE(out.lastError.empty());
    // Failed-attempt cost is actual simulated transfer time —
    // far below even one deadline.
    EXPECT_LT(out.hostSeconds,
              server.config().retry.deadlineSeconds);
    EXPECT_LT(out.hostSeconds, 0.01);
}

TEST(ServingLatency, HangsChargeExactlyTheDeadlinePerAttempt)
{
    // Every task hangs: the host waits out the full deadline per
    // attempt, and that wait IS the served latency (plus the
    // microscopic PCIe staging).
    PlanGuard plan("task_hang:p=1;seed:5");
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    DeviceServer server(dev, spec, 0, nullptr, 1, ServerConfig{});

    ServeOutcome out = serveOne(server, 1, genQuery(spec.dim, 1));
    EXPECT_TRUE(out.ok);
    EXPECT_FALSE(out.fromDevice);
    unsigned attempts = server.config().retry.maxAttempts;
    EXPECT_EQ(out.attempts, attempts);
    double budget =
        attempts * server.config().retry.deadlineSeconds;
    EXPECT_GE(out.hostSeconds, budget);
    EXPECT_LT(out.hostSeconds, budget + 0.01);
}

TEST(ServingLatency, BreakerRoutesCooldownQueriesStraightToCpu)
{
    PlanGuard plan("task_hang:p=1;seed:5");
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    ServerConfig cfg;
    cfg.breakerThreshold = 1;
    DeviceServer server(dev, spec, 0, nullptr, 1, cfg);

    auto first = serveOne(server, 1, genQuery(spec.dim, 1));
    EXPECT_GT(first.attempts, 0u);
    EXPECT_EQ(server.breaker().state(), BreakerState::Open);

    // Exactly two cooldown queries bypass the device entirely (no
    // attempts, no deadline waits)...
    for (int q = 0; q < 2; ++q) {
        auto out = serveOne(server, 2 + q, genQuery(spec.dim, 2 + q));
        EXPECT_TRUE(out.ok);
        EXPECT_EQ(out.attempts, 0u) << "cooldown query " << q;
        EXPECT_LT(out.hostSeconds, 1e-9);
    }
    // ...then the next query probes the device again.
    auto probe = serveOne(server, 9, genQuery(spec.dim, 9));
    EXPECT_GT(probe.attempts, 0u);
    EXPECT_EQ(server.breaker().state(), BreakerState::Open);
}

// ---- Pipeline determinism across thread counts -------------------------

namespace {

struct RunSnapshot
{
    std::vector<double> served, waits;
    std::vector<unsigned> attempts;
    std::vector<int> fromDevice;
    std::vector<double> busy;

    bool
    operator==(const RunSnapshot &o) const
    {
        return served == o.served && waits == o.waits &&
            attempts == o.attempts && fromDevice == o.fromDevice &&
            busy == o.busy;
    }
};

RunSnapshot
runShardedPipeline()
{
    constexpr int kQ = 16;
    // Both replays must assign the same fault-draw streams to their
    // (fresh) GdlContexts, or the comparison measures stream
    // assignment instead of thread scheduling.
    gdl::resetFaultStreams();
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    for (unsigned c = 0; c < dev.numCores(); ++c)
        dev.core(c).setMode(apu::ExecMode::TimingOnly);

    ServerConfig cfg;
    cfg.batch = BatchPolicy{2, 2};
    std::vector<std::unique_ptr<DeviceServer>> servers;
    for (unsigned c = 0; c < dev.numCores(); ++c)
        servers.push_back(std::make_unique<DeviceServer>(
            dev, spec, c, nullptr, 7, cfg));

    RunSnapshot snap;
    snap.served.resize(kQ);
    snap.waits.resize(kQ);
    snap.attempts.resize(kQ);
    snap.fromDevice.resize(kQ);
    apu::runOnAllCores(dev, [&](apu::ApuCore &, unsigned c,
                                unsigned n) {
        auto shard = apu::shardOf(kQ, c, n);
        auto &server = *servers[c];
        auto record = [&](const ServeOutcome &out) {
            snap.served[out.id] = out.servedSeconds();
            snap.waits[out.id] = out.queueWaitSeconds;
            snap.attempts[out.id] = out.attempts;
            snap.fromDevice[out.id] = out.fromDevice ? 1 : 0;
        };
        for (size_t q = shard.begin; q < shard.end; ++q) {
            server.enqueueAt(
                q, genQuery(spec.dim, 70 + static_cast<int>(q)),
                server.busySeconds());
            for (const auto &out :
                 server.pumpUntil(server.busySeconds()))
                record(out);
        }
        for (const auto &out : server.drain())
            record(out);
    });
    for (auto &s : servers)
        snap.busy.push_back(s->busySeconds());
    return snap;
}

} // namespace

TEST(ServingDeterminism, BitIdenticalAcrossSimThreadCounts)
{
    // An armed fault plan makes this the hard case: retries,
    // breaker transitions, and fallbacks must all replay
    // identically whether cores run serially or concurrently.
    PlanGuard plan(
        "task_hang:core=1,p=0.9;pcie_corrupt:p=0.05;seed:31");
    RunSnapshot serial, threaded;
    {
        ThreadSetting one(1);
        serial = runShardedPipeline();
    }
    {
        ThreadSetting four(4);
        threaded = runShardedPipeline();
    }
    ASSERT_EQ(serial.served.size(), threaded.served.size());
    for (size_t q = 0; q < serial.served.size(); ++q) {
        EXPECT_EQ(serial.served[q], threaded.served[q]) << "q=" << q;
        EXPECT_EQ(serial.waits[q], threaded.waits[q]) << "q=" << q;
        EXPECT_EQ(serial.attempts[q], threaded.attempts[q])
            << "q=" << q;
        EXPECT_EQ(serial.fromDevice[q], threaded.fromDevice[q])
            << "q=" << q;
    }
    ASSERT_EQ(serial.busy.size(), threaded.busy.size());
    for (size_t c = 0; c < serial.busy.size(); ++c)
        EXPECT_EQ(serial.busy[c], threaded.busy[c]) << "core=" << c;
    // The plan actually bit: something fell back or retried.
    bool plan_bit = false;
    for (size_t q = 0; q < serial.fromDevice.size(); ++q)
        plan_bit |= (serial.fromDevice[q] == 0) ||
            (serial.attempts[q] > 1);
    EXPECT_TRUE(plan_bit);
}
