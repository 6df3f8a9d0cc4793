/**
 * @file
 * Open-loop load subsystem: deterministic arrival traces (shapes,
 * tenants, bit-identical regeneration), mutation plans (epoch
 * overlays that partition exactly across shards, tombstones that
 * never compact), the per-epoch flat golden (searchEpochFlat), a
 * single server's epoch-tagged incremental re-stage, and the full
 * open-loop drive: live mutation plus a mid-stream device kill with
 * exactly-once delivery and every answer bit-compared against its
 * admission epoch's snapshot.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "baseline/faisslite.hh"
#include "baseline/workloads.hh"
#include "fleet/fleet.hh"
#include "kernels/serving.hh"
#include "load/arrivals.hh"
#include "load/mutation.hh"
#include "load/openloop.hh"
#include "obs/slo.hh"

using namespace cisram;
using namespace cisram::load;

// ---- arrival traces -----------------------------------------------------

TEST(Arrivals, DeterministicAndOpenLoopShaped)
{
    TrafficConfig cfg;
    cfg.ratePerSecond = 200;
    cfg.durationSeconds = 2.0;
    cfg.seed = 7;

    ArrivalTrace a = genArrivalTrace(cfg);
    ArrivalTrace b = genArrivalTrace(cfg);
    ASSERT_EQ(a.arrivals.size(), b.arrivals.size());
    for (size_t i = 0; i < a.arrivals.size(); ++i) {
        EXPECT_EQ(a.arrivals[i].seconds, b.arrivals[i].seconds);
        EXPECT_EQ(a.arrivals[i].querySeed,
                  b.arrivals[i].querySeed);
    }

    // Poisson at λ=200 over 2s: ~400 arrivals; the Bernoulli grid
    // keeps the count within a loose band deterministically.
    EXPECT_GT(a.arrivals.size(), 300u);
    EXPECT_LT(a.arrivals.size(), 500u);

    // Timestamps ascend strictly (one slot admits at most one
    // arrival) and ids are dense and 1-based.
    for (size_t i = 0; i < a.arrivals.size(); ++i) {
        EXPECT_EQ(a.arrivals[i].id, i + 1);
        if (i)
            EXPECT_GT(a.arrivals[i].seconds,
                      a.arrivals[i - 1].seconds);
    }

    // A different seed is a different trace.
    cfg.seed = 8;
    ArrivalTrace c = genArrivalTrace(cfg);
    EXPECT_NE(a.arrivals.size(), 0u);
    bool differs = c.arrivals.size() != a.arrivals.size();
    for (size_t i = 0;
         !differs && i < std::min(a.arrivals.size(),
                                  c.arrivals.size());
         ++i)
        differs = a.arrivals[i].seconds != c.arrivals[i].seconds;
    EXPECT_TRUE(differs);
}

TEST(Arrivals, BurstThenSilenceConcentratesArrivals)
{
    // burstFactor · burstDuty = 1: the off-burst rate clamps to
    // zero, so every arrival must land inside a burst window.
    TrafficConfig cfg;
    cfg.shape = ArrivalShape::Burst;
    cfg.ratePerSecond = 400;
    cfg.durationSeconds = 1.0;
    cfg.burstFactor = 4.0;
    cfg.burstDuty = 0.25;
    cfg.burstPeriodSeconds = 0.25;
    cfg.seed = 11;

    ArrivalTrace t = genArrivalTrace(cfg);
    ASSERT_GT(t.arrivals.size(), 100u);
    EXPECT_EQ(t.peakRate, 1600.0);
    for (const Arrival &a : t.arrivals) {
        double phase =
            std::fmod(a.seconds, cfg.burstPeriodSeconds);
        EXPECT_LT(phase, cfg.burstDuty * cfg.burstPeriodSeconds)
            << "arrival at t=" << a.seconds
            << " landed in a silent window";
    }
}

TEST(Arrivals, DiurnalRateRampsToMidRunPeak)
{
    TrafficConfig cfg;
    cfg.shape = ArrivalShape::Diurnal;
    cfg.ratePerSecond = 100;
    cfg.durationSeconds = 4.0;
    cfg.diurnalAmplitude = 0.5;

    EXPECT_DOUBLE_EQ(arrivalRateAt(cfg, 0.0), 50.0);
    EXPECT_DOUBLE_EQ(arrivalRateAt(cfg, 2.0), 150.0);
    EXPECT_DOUBLE_EQ(arrivalRateAt(cfg, 4.0), 50.0);
    EXPECT_DOUBLE_EQ(arrivalRateAt(cfg, 1.0), 100.0);

    // More arrivals in the middle half than in the outer half.
    ArrivalTrace t = genArrivalTrace(cfg);
    size_t mid = 0, outer = 0;
    for (const Arrival &a : t.arrivals)
        (a.seconds >= 1.0 && a.seconds < 3.0 ? mid : outer)++;
    EXPECT_GT(mid, outer);
}

TEST(Arrivals, TenantsDrawByWeightAndCarryTheirClass)
{
    TrafficConfig cfg;
    cfg.ratePerSecond = 500;
    cfg.durationSeconds = 2.0;
    cfg.seed = 13;
    cfg.tenants = {TenantSpec{"alpha", 3.0, 0, 64},
                   TenantSpec{"beta", 1.0, 1, 8}};

    ArrivalTrace t = genArrivalTrace(cfg);
    size_t alpha = 0, beta = 0;
    for (const Arrival &a : t.arrivals) {
        ASSERT_LT(a.tenant, 2u);
        const TenantSpec &ts = t.cfg.tenants[a.tenant];
        EXPECT_EQ(a.sloClass, ts.sloClass);
        EXPECT_LT(a.user, ts.users);
        (a.tenant == 0 ? alpha : beta)++;
    }
    ASSERT_GT(alpha, 0u);
    ASSERT_GT(beta, 0u);
    // 3:1 weights: alpha should dominate clearly (loose band — the
    // draw is seeded, so this is a deterministic assertion).
    EXPECT_GT(alpha, 2 * beta);
}

// ---- mutation plans -----------------------------------------------------

namespace {

baseline::RagCorpusSpec
tinyCorpus()
{
    return baseline::RagCorpusSpec{"load-unit", 0, 1536, 96};
}

} // namespace

TEST(MutationPlanTest, ShardViewsPartitionTheWholeCorpusView)
{
    const unsigned kShards = 4;
    MutationConfig mc;
    mc.batches = 3;
    mc.insertsPerBatch = 96;
    mc.deletesPerBatch = 48;
    mc.seed = 5;
    baseline::RagCorpusSpec base = tinyCorpus();
    MutationPlan plan(base, kShards, mc);
    ASSERT_EQ(plan.epochs(), 3u);

    for (uint64_t e = 1; e <= plan.epochs(); ++e) {
        const baseline::RagCorpusSpec &spec = plan.specAt(e);
        ASSERT_NE(spec.epochView, nullptr);
        const baseline::CorpusEpochView &whole = *spec.epochView;
        EXPECT_EQ(whole.epoch, e);
        EXPECT_EQ(spec.numChunks,
                  whole.baseChunks + whole.inserted.size());
        EXPECT_EQ(whole.inserted.size(), e * mc.insertsPerBatch);
        EXPECT_EQ(whole.deleted.size(), e * mc.deletesPerBatch);
        EXPECT_EQ(plan.liveChunksAt(e),
                  base.numChunks + e * mc.insertsPerBatch -
                      e * mc.deletesPerBatch);
        EXPECT_TRUE(std::is_sorted(whole.inserted.begin(),
                                   whole.inserted.end()));

        auto updates = plan.shardUpdates(e);
        ASSERT_EQ(updates.size(), kShards);
        std::multiset<uint64_t> shard_ins, shard_del;
        uint64_t delta = 0;
        for (const auto &u : updates) {
            ASSERT_NE(u.view, nullptr);
            EXPECT_EQ(u.view->epoch, e);
            EXPECT_EQ(u.numChunks, u.view->baseChunks +
                                       u.view->inserted.size());
            EXPECT_TRUE(std::is_sorted(u.view->inserted.begin(),
                                       u.view->inserted.end()));
            for (uint64_t g : u.view->inserted) {
                shard_ins.insert(g);
                EXPECT_EQ(g % kShards, u.shard)
                    << "insert " << g << " on the wrong shard";
            }
            for (uint64_t g : u.view->deleted)
                shard_del.insert(g);
            delta += u.deltaBytes;
        }
        // Exact partition: every insert/delete on exactly one
        // shard, none invented, none lost.
        EXPECT_EQ(shard_ins.size(), whole.inserted.size());
        for (uint64_t g : whole.inserted)
            EXPECT_EQ(shard_ins.count(g), 1u);
        EXPECT_EQ(shard_del.size(), whole.deleted.size());
        for (uint64_t g : whole.deleted)
            EXPECT_EQ(shard_del.count(g), 1u);
        // Re-stage bytes = this batch's inserts only (incremental,
        // not a full restage).
        EXPECT_EQ(delta, mc.insertsPerBatch * base.dim *
                             sizeof(int16_t));
    }

    // Tombstones never compact: positions present at epoch e stay
    // at the same local position in every later epoch.
    const auto &s1 = plan.specAt(1);
    const auto &s3 = plan.specAt(3);
    for (uint64_t local = 0; local < s1.numChunks; ++local)
        EXPECT_EQ(s1.globalChunk(local), s3.globalChunk(local));
}

TEST(MutationPlanTest, DeterministicInConfigAlone)
{
    baseline::RagCorpusSpec base = tinyCorpus();
    MutationConfig mc;
    mc.seed = 21;
    MutationPlan a(base, 3, mc);
    MutationPlan b(base, 3, mc);
    for (uint64_t e = 1; e <= a.epochs(); ++e) {
        EXPECT_EQ(a.batches()[e - 1].inserts,
                  b.batches()[e - 1].inserts);
        EXPECT_EQ(a.batches()[e - 1].deletes,
                  b.batches()[e - 1].deletes);
    }
}

// ---- the per-epoch flat golden ------------------------------------------

TEST(EpochGolden, MatchesTheStaticIndexAtEpochZero)
{
    baseline::RagCorpusSpec base = tinyCorpus();
    const uint64_t seed = 99;
    baseline::IndexFlatI16 index(base.dim);
    auto emb =
        baseline::genEmbeddings(base, 0, base.numChunks, seed);
    index.add(emb.data(), base.numChunks);

    for (int q = 0; q < 4; ++q) {
        auto query = baseline::genQuery(base.dim, 700 + q);
        auto want = index.search(query.data(), 5);
        auto got = baseline::searchEpochFlat(base, seed,
                                             query.data(), 5);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i].id, want[i].id);
            EXPECT_EQ(got[i].score, want[i].score);
        }
    }
}

TEST(EpochGolden, TombstonesNeverSurfaceAndInsertsAreLive)
{
    baseline::RagCorpusSpec base = tinyCorpus();
    const uint64_t seed = 99;
    MutationConfig mc;
    mc.batches = 2;
    mc.insertsPerBatch = 64;
    mc.deletesPerBatch = 32;
    mc.seed = 17;
    MutationPlan plan(base, 2, mc);
    // The store form reads the base rows from one index and generates
    // only the inserts; it must answer exactly as the generating form.
    const baseline::IndexFlatI16 rows(
        base.dim, baseline::genEmbeddings(base, 0, base.numChunks, seed));

    for (uint64_t e = 1; e <= plan.epochs(); ++e) {
        const baseline::RagCorpusSpec &spec = plan.specAt(e);
        const auto &view = *spec.epochView;
        auto query = baseline::genQuery(base.dim, 31);
        // k = every position: the exact live set must come back.
        auto hits = baseline::searchEpochFlat(
            spec, seed, query.data(), spec.numChunks);
        EXPECT_EQ(baseline::searchEpochFlat(rows, spec, seed, query.data(),
                                            spec.numChunks),
                  hits)
            << "epoch " << e;
        EXPECT_EQ(hits.size(), plan.liveChunksAt(e));
        std::unordered_set<uint64_t> got;
        for (const auto &h : hits) {
            uint64_t g = spec.globalChunk(h.id);
            EXPECT_EQ(view.deleted.count(g), 0u)
                << "tombstoned chunk " << g << " surfaced";
            got.insert(g);
        }
        for (uint64_t g : view.inserted)
            if (!view.deleted.count(g))
                EXPECT_EQ(got.count(g), 1u)
                    << "live insert " << g << " missing";
    }
}

// ---- one server's epoch-tagged incremental re-stage ---------------------

TEST(ServerMutation, DeviceAnswersBitCompareAgainstEachEpoch)
{
    baseline::RagCorpusSpec base = tinyCorpus();
    const uint64_t seed = 4242;
    baseline::IndexFlatI16 golden(base.dim);
    auto emb =
        baseline::genEmbeddings(base, 0, base.numChunks, seed);
    golden.add(emb.data(), base.numChunks);

    MutationConfig mc;
    mc.batches = 2;
    mc.insertsPerBatch = 64;
    mc.deletesPerBatch = 32;
    mc.seed = 23;
    MutationPlan plan(base, 1, mc);

    apu::ApuDevice dev;
    kernels::ServerConfig cfg;
    cfg.topK = 5;
    kernels::DeviceServer server(dev, base, 0, &golden, seed, cfg);

    auto serve_and_check = [&](uint64_t epoch, uint64_t first_id) {
        const baseline::RagCorpusSpec &spec =
            epoch == 0 ? base : plan.specAt(epoch);
        for (int q = 0; q < 3; ++q) {
            auto query =
                baseline::genQuery(base.dim, 800 + 10 * epoch + q);
            ASSERT_TRUE(
                server.enqueueAt(first_id + q, query,
                                 server.busySeconds()).ok());
            auto outs = server.drain();
            ASSERT_EQ(outs.size(), 1u);
            EXPECT_TRUE(outs[0].ok);
            auto want = baseline::searchEpochFlat(
                spec, seed, query.data(), cfg.topK);
            ASSERT_EQ(outs[0].run.hits.size(), want.size());
            for (size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(outs[0].run.hits[i].id, want[i].id)
                    << "epoch " << epoch << " query " << q;
                EXPECT_EQ(outs[0].run.hits[i].score,
                          want[i].score)
                    << "epoch " << epoch << " query " << q;
            }
        }
    };

    serve_and_check(0, 1);
    for (uint64_t e = 1; e <= plan.epochs(); ++e) {
        auto updates = plan.shardUpdates(e);
        ASSERT_EQ(updates.size(), 1u);
        auto served = server.applyMutation(plan.specAt(e), e,
                                           updates[0].deltaBytes);
        EXPECT_TRUE(served.empty());
        EXPECT_EQ(server.corpusEpoch(), e);
        serve_and_check(e, 100 * e);
    }
}

// ---- the full open-loop drive -------------------------------------------

TEST(OpenLoopTest, MutationPlusKillKeepsExactlyOnceAndGoldens)
{
    baseline::RagCorpusSpec base{"load-fleet", 0, 2048, 368};
    const uint64_t seed = 4242;

    MutationConfig mc;
    mc.batches = 2;
    mc.startSeconds = 0.3;
    mc.intervalSeconds = 0.3;
    mc.insertsPerBatch = 64;
    mc.deletesPerBatch = 32;
    mc.seed = 29;
    MutationPlan plan(base, 4, mc);

    fleet::FleetConfig fcfg;
    fcfg.devices = 3;
    fcfg.replicas = 2;
    fcfg.shards = 4;
    fcfg.functional = true;
    fcfg.topK = 5;
    fleet::Router router(base, seed, fcfg);

    TrafficConfig tc;
    tc.ratePerSecond = 24;
    tc.durationSeconds = 1.0;
    tc.seed = 3;
    tc.tenants = {TenantSpec{"alpha", 2.0, 0, 16},
                  TenantSpec{"beta", 1.0, 1, 4}};
    ArrivalTrace trace = genArrivalTrace(tc);
    ASSERT_GT(trace.arrivals.size(), 8u);

    OpenLoopOptions opts;
    opts.plan = &plan;
    opts.killAtSeconds = 0.45;
    opts.killDevice = router.placement()[0][0];
    opts.slo.windowQueries = 8;
    opts.slo.classes = {
        obs::SloClass{sloClassName(0), 0.5, 0.9},
        obs::SloClass{sloClassName(1), 1.0, 0.9}};

    OpenLoopResult res = runOpenLoop(router, trace, base, opts);

    // Open loop: everything offered; nothing here should shed
    // (no quotas, no admission caps in this config).
    EXPECT_EQ(res.offered, trace.arrivals.size());
    EXPECT_EQ(res.admitted, res.offered);
    EXPECT_EQ(res.epochsApplied, 2u);
    EXPECT_EQ(router.corpusEpoch(), 2u);

    // Exactly-once through mutation barriers AND a device kill:
    // one outcome per admitted query, ledger empty.
    EXPECT_EQ(router.ledgerOutstanding(), 0u);
    ASSERT_EQ(res.outcomes.size(), res.admitted);
    std::set<uint64_t> ids;
    for (const auto &o : res.outcomes) {
        EXPECT_TRUE(o.ok) << "query " << o.id;
        ids.insert(o.id);
    }
    EXPECT_EQ(ids.size(), res.outcomes.size());
    EXPECT_EQ(res.delivered, res.outcomes.size());

    // Queries really spanned epochs (the kill device was shard 0's
    // primary, so failovers must have fired too).
    std::set<uint64_t> epochs;
    for (const auto &o : res.outcomes)
        epochs.insert(o.epoch);
    EXPECT_GE(epochs.size(), 2u);
    EXPECT_GT(router.evacuatedQueries() + router.failovers(), 0u);

    // The tentpole claim: every answer bit-compares against its
    // admission epoch's snapshot.
    EXPECT_EQ(countGoldenMismatches(res.outcomes, trace, base,
                                    seed, &plan, fcfg.topK),
              0u);

    // SLO windows tile the epochs: flushAll at each boundary closes
    // one window per class, so both classes report even if silent.
    size_t c0 = 0, c1 = 0;
    for (const auto &w : res.sloWindows)
        (w.cls == sloClassName(0) ? c0 : c1)++;
    EXPECT_GE(c0, 2u);
    EXPECT_GE(c1, 2u);
}
