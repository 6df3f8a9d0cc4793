/**
 * @file
 * The persistent-fault escalation ladder, end to end: the
 * HealthMonitor state machine and its query-counted windows, the
 * exactly-once admission journal, sticky gdl fault latches cleared
 * by core/device resets, the reset + re-stage + replay choreography
 * (including address-layout determinism), the DRAM patrol scrubber's
 * measured cut of latent ECC escalations, admission-control
 * shedding, and serial-vs-threaded bit-identity of a recovering
 * pipeline.
 */

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
#include "kernels/serving.hh"
#include "recovery/health.hh"
#include "recovery/journal.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::kernels;
using namespace cisram::recovery;

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

HealthPolicy
enabledPolicy(unsigned window, unsigned degrade, unsigned quarantine,
              unsigned sheds)
{
    HealthPolicy p;
    p.enabled = true;
    p.windowQueries = window;
    p.degradeThreshold = degrade;
    p.quarantineThreshold = quarantine;
    p.quarantineAdmissions = sheds;
    return p;
}

} // namespace

// ---- HealthMonitor: the state machine ----------------------------------

TEST(HealthLadder, EscalatesThroughDegradedToQuarantined)
{
    HealthMonitor hm(0, enabledPolicy(8, 1, 3, 2));
    EXPECT_EQ(hm.state(), CoreState::Healthy);

    hm.observeFaults(FaultLedgerDelta{1, 0, 0});
    EXPECT_EQ(hm.state(), CoreState::Degraded);
    EXPECT_EQ(hm.windowFaults(), 1u);

    // The ledger kinds all count: a CRC-exhausted transfer plus an
    // ECC double push the window total over the quarantine line.
    hm.observeFaults(FaultLedgerDelta{0, 1, 1});
    EXPECT_EQ(hm.state(), CoreState::Quarantined);

    ASSERT_EQ(hm.transitions().size(), 2u);
    EXPECT_EQ(hm.transitions()[0].from, CoreState::Healthy);
    EXPECT_EQ(hm.transitions()[0].to, CoreState::Degraded);
    EXPECT_EQ(hm.transitions()[1].from, CoreState::Degraded);
    EXPECT_EQ(hm.transitions()[1].to, CoreState::Quarantined);
}

TEST(HealthLadder, CleanWindowHealsDegraded)
{
    HealthMonitor hm(0, enabledPolicy(8, 1, 3, 2));
    hm.observeFaults(FaultLedgerDelta{1, 0, 0});
    ASSERT_EQ(hm.state(), CoreState::Degraded);

    // The window the fault landed in closes dirty: still Degraded.
    hm.observeQueries(8);
    EXPECT_EQ(hm.state(), CoreState::Degraded);

    // The next window closes clean: healed.
    hm.observeQueries(8);
    EXPECT_EQ(hm.state(), CoreState::Healthy);
    ASSERT_EQ(hm.transitions().size(), 2u);
    EXPECT_EQ(hm.transitions()[1].to, CoreState::Healthy);
}

TEST(HealthLadder, WindowsTumbleSoOldFaultsExpire)
{
    // One fault per window with quarantineThreshold 3: the counter
    // must reset at each window boundary, never accumulate across.
    HealthMonitor hm(0, enabledPolicy(4, 2, 3, 2));
    for (int w = 0; w < 5; ++w) {
        hm.observeFaults(FaultLedgerDelta{1, 0, 0});
        hm.observeQueries(4);
        EXPECT_EQ(hm.state(), CoreState::Healthy) << "window " << w;
    }
    EXPECT_TRUE(hm.transitions().empty());
}

TEST(HealthLadder, QuarantineAgesOutAfterConfiguredSheds)
{
    HealthMonitor hm(2, enabledPolicy(8, 1, 2, 3));
    hm.forceQuarantine();
    ASSERT_EQ(hm.state(), CoreState::Quarantined);

    EXPECT_FALSE(hm.observeShed());
    EXPECT_FALSE(hm.observeShed());
    EXPECT_TRUE(hm.observeShed()); // aged out: caller resets now

    hm.beginReset();
    EXPECT_EQ(hm.state(), CoreState::Resetting);
    hm.completeReset();
    EXPECT_EQ(hm.state(), CoreState::Healthy);
    EXPECT_EQ(hm.windowFaults(), 0u);

    ASSERT_EQ(hm.transitions().size(), 3u);
    EXPECT_EQ(hm.transitions()[0].to, CoreState::Quarantined);
    EXPECT_EQ(hm.transitions()[1].to, CoreState::Resetting);
    EXPECT_EQ(hm.transitions()[2].to, CoreState::Healthy);
}

TEST(HealthLadder, DisabledPolicyNeverTransitions)
{
    HealthMonitor hm(0, HealthPolicy{});
    hm.observeFaults(FaultLedgerDelta{100, 100, 100});
    hm.observeQueries(1000);
    hm.forceQuarantine();
    EXPECT_EQ(hm.state(), CoreState::Healthy);
    EXPECT_TRUE(hm.transitions().empty());
}

TEST(HealthLadderDeathTest, MisusePanics)
{
    HealthMonitor hm(0, enabledPolicy(8, 1, 2, 2));
    EXPECT_DEATH(hm.observeShed(),
                 "observeShed on a core that is Healthy");
    EXPECT_DEATH(hm.beginReset(),
                 "beginReset on a core that is Healthy");
    EXPECT_DEATH(hm.completeReset(),
                 "completeReset on a core that is Healthy");
}

// ---- ReplayJournal: exactly-once ---------------------------------------

TEST(Journal, TracksPendingInAdmissionOrder)
{
    ReplayJournal<int> j;
    j.admit(10, 1, 0.5);
    j.admit(11, 2, 0.6);
    j.admit(12, 3, 0.7);
    EXPECT_EQ(j.admitted(), 3u);
    EXPECT_EQ(j.outstanding(), 3u);

    j.complete(11);
    EXPECT_EQ(j.outstanding(), 2u);
    auto pend = j.pending();
    ASSERT_EQ(pend.size(), 2u);
    EXPECT_EQ(pend[0]->id, 10u);
    EXPECT_EQ(pend[1]->id, 12u);
    // Replay must see the original admission clock, not the replay's.
    EXPECT_DOUBLE_EQ(pend[0]->admitSeconds, 0.5);

    j.complete(10);
    j.complete(12);
    EXPECT_EQ(j.outstanding(), 0u);
}

TEST(JournalDeathTest, ExactlyOnceViolationsPanic)
{
    ReplayJournal<int> j;
    j.admit(7, 0, 0.0);
    EXPECT_DEATH(j.admit(7, 0, 0.0), "duplicate admission");
    EXPECT_DEATH(j.complete(99), "completing unknown");
    j.complete(7);
    EXPECT_DEATH(j.complete(7), "double completion");
}

TEST(Journal, ReleasesPayloadsAtCompletionAndHandOff)
{
    // Shared payloads the test watches: once a query completes, in
    // any order, or is handed off, the journal holds no reference.
    ReplayJournal<std::shared_ptr<int>> j;
    std::vector<std::weak_ptr<int>> watch;
    for (int id = 1; id <= 6; ++id) {
        auto p = std::make_shared<int>(id);
        watch.push_back(p);
        j.admit(static_cast<uint64_t>(id), std::move(p), 0.0);
    }
    j.complete(3); // out of order: 3 stays in the window behind 1, 2
    EXPECT_TRUE(watch[2].expired());
    EXPECT_FALSE(watch[0].expired());
    j.complete(1);
    EXPECT_TRUE(watch[0].expired());

    auto handed = j.handOffPending(); // 2, 4, 5, 6
    ASSERT_EQ(handed.size(), 4u);
    EXPECT_FALSE(watch[1].expired());
    handed.clear();
    for (const std::weak_ptr<int> &w : watch)
        EXPECT_TRUE(w.expired());
}

TEST(Journal, OutOfOrderCompletionAcrossATrimmedHead)
{
    ReplayJournal<int> j;
    for (uint64_t id = 1; id <= 5; ++id)
        j.admit(id, static_cast<int>(10 * id), 0.25 * id);
    j.complete(1); // the head moves past 1
    j.complete(3); // 3 waits in the window behind 2
    j.complete(2); // the head catches up past 3

    EXPECT_EQ(j.outstanding(), 2u);
    auto pend = j.pending();
    ASSERT_EQ(pend.size(), 2u);
    EXPECT_EQ(pend[0]->id, 4u);
    EXPECT_EQ(pend[1]->id, 5u);
    EXPECT_EQ(pend[0]->admitSeconds, 1.0);
    EXPECT_EQ(pend[1]->admitSeconds, 1.25);
    EXPECT_EQ(pend[1]->payload, 50);

    auto handed = j.handOffPending();
    ASSERT_EQ(handed.size(), 2u);
    EXPECT_EQ(handed[0].id, 4u);
    EXPECT_EQ(handed[1].id, 5u);
    EXPECT_EQ(handed[0].admitSeconds, 1.0);
    EXPECT_EQ(handed[1].admitSeconds, 1.25);
    EXPECT_EQ(handed[0].payload, 40);
    EXPECT_EQ(j.outstanding(), 0u);
    EXPECT_TRUE(j.pending().empty());
    EXPECT_EQ(j.admitted(), 5u);
}

TEST(JournalDeathTest, IdsStayTakenAfterLeavingTheWindow)
{
    ReplayJournal<int> j;
    j.admit(1, 0, 0.0);
    j.complete(1);
    for (uint64_t id = 2; id <= 10001; ++id) {
        j.admit(id, 0, 0.0);
        j.complete(id);
    }
    EXPECT_DEATH(j.admit(1, 0, 0.0), "duplicate admission");

    j.admit(20000, 0, 0.0);
    (void)j.handOffPending();
    EXPECT_DEATH(j.complete(20000), "double completion");
    EXPECT_DEATH(j.admit(20000, 0, 0.0), "duplicate admission");
}

// ---- gdl: sticky latches and resets ------------------------------------

TEST(GdlRecovery, StickyHangWedgesCoreUntilReset)
{
    PlanGuard plan("task_hang:core=0,nth=1,sticky=1;seed:3");
    apu::ApuDevice dev;
    gdl::GdlContext ctx(dev);
    auto noop = [](apu::ApuCore &) { return 0; };

    // The drawn firing wedges the core...
    Status st = ctx.runTaskTimeoutOn(0, 1e-3, noop);
    EXPECT_EQ(st.code(), StatusCode::DeadlineExceeded);
    EXPECT_TRUE(ctx.coreWedged(0));

    // ...and every later launch hangs without a new draw.
    st = ctx.runTaskTimeoutOn(0, 1e-3, noop);
    EXPECT_EQ(st.code(), StatusCode::DeadlineExceeded);
    EXPECT_NE(st.message().find("wedged core 0"), std::string::npos);
    EXPECT_NE(st.message().find("needs a reset"), std::string::npos);
    EXPECT_EQ(ctx.stats().tasksTimedOut, 2u);

    // Other cores are untouched by this core's wedge.
    EXPECT_FALSE(ctx.coreWedged(1));
    EXPECT_TRUE(ctx.runTaskTimeoutOn(1, 1e-3, noop).ok());

    gdl::ResetOutcome out = ctx.resetCore(0);
    EXPECT_FALSE(ctx.coreWedged(0));
    EXPECT_GT(out.seconds, 0.0);
    EXPECT_EQ(ctx.stats().coreResets, 1u);
    EXPECT_GT(ctx.stats().resetSeconds, 0.0);
    EXPECT_TRUE(ctx.runTaskTimeoutOn(0, 1e-3, noop).ok());
}

TEST(GdlRecovery, StickyPcieCorruptWedgesLinkUntilDeviceReset)
{
    gdl::resetFaultStreams();
    PlanGuard plan("pcie_corrupt:nth=1,sticky=1;seed:3");
    apu::ApuDevice dev;
    gdl::GdlContext ctx(dev);
    gdl::MemHandle h = ctx.memAllocAligned(4096);
    std::vector<uint8_t> buf(4096, 0xa5);

    // The first transfer draws the corrupt, the latch makes every
    // retry corrupt too: the transfer dies after all attempts.
    Status st = ctx.tryMemCpyToDev(h, buf.data(), buf.size());
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("all"), std::string::npos);
    EXPECT_TRUE(ctx.linkWedged());
    EXPECT_EQ(ctx.stats().pcieErrors, 1u);

    // The wedge is link state: a fresh transfer fails too.
    st = ctx.tryMemCpyToDev(h, buf.data(), buf.size());
    EXPECT_FALSE(st.ok());

    gdl::ResetOutcome out = ctx.resetDevice();
    EXPECT_FALSE(ctx.linkWedged());
    EXPECT_GT(out.seconds, 0.0);
    EXPECT_EQ(ctx.stats().deviceResets, 1u);

    // resetDevice released the session footprint; re-allocate and
    // verify the link carries clean transfers again.
    h = ctx.memAllocAligned(4096);
    EXPECT_TRUE(ctx.tryMemCpyToDev(h, buf.data(), buf.size()).ok());
    ctx.memFree(h);
}

TEST(GdlRecovery, ResetReleasesFootprintAndRecyclesAddresses)
{
    apu::ApuDevice dev;
    gdl::GdlContext ctx(dev);
    gdl::MemHandle a = ctx.memAllocAligned(4096);
    gdl::MemHandle b = ctx.memAllocAligned(8192);

    double pcie_before = ctx.stats().pcieSeconds;
    gdl::ResetOutcome out = ctx.resetCore(0, 1ull << 20);
    EXPECT_EQ(out.freedBytes, 4096u + 8192u);
    EXPECT_EQ(out.restagedBytes, 1ull << 20);
    // Reset time = device re-init plus the PCIe re-stage of the
    // lost shard, and the PCIe share lands in the PCIe ledger.
    EXPECT_GT(out.seconds, 0.0);
    EXPECT_GT(ctx.stats().pcieSeconds, pcie_before);
    EXPECT_GE(ctx.stats().bytesToDevice, 1ull << 20);

    // The allocator's free lists hand the same addresses back to a
    // same-order rebuild — the property replay bit-identity rests on.
    gdl::MemHandle a2 = ctx.memAllocAligned(4096);
    gdl::MemHandle b2 = ctx.memAllocAligned(8192);
    EXPECT_EQ(a2.addr, a.addr);
    EXPECT_EQ(b2.addr, b.addr);
    ctx.memFree(a2);
    ctx.memFree(b2);
}

// ---- DRAM: latent singles and the patrol scrubber ----------------------

TEST(DramScrub, WritesClearLatentSinglesAndClearLatentsForgets)
{
    PlanGuard plan("dram_flip:p=0.5;seed:3");
    dram::DramSystem sys(dram::hbm2eConfig());

    sys.streamReadSeconds(0, 64ull << 10);
    EXPECT_GT(sys.latentSingles(), 0u);
    size_t before = sys.latentSingles();

    // A write re-encodes its codewords: the latents under it vanish.
    sys.streamWriteSeconds(0, 64ull << 10);
    EXPECT_EQ(sys.latentSingles(), 0u);
    EXPECT_LT(sys.latentSingles(), before);

    sys.streamReadSeconds(0, 64ull << 10);
    EXPECT_GT(sys.latentSingles(), 0u);
    sys.clearLatents();
    EXPECT_EQ(sys.latentSingles(), 0u);
    // clearLatents models a wholesale rewrite, not scrubbing: the
    // scrub ledger stays untouched.
    EXPECT_EQ(sys.eccStats().scrubCorrected, 0u);
    (void)sys.takeFaultStatus(); // drop any latent escalation
}

TEST(DramScrub, RereadingLatentSinglesEscalatesToDoubles)
{
    PlanGuard plan("dram_flip:p=2e-3;seed:9");
    dram::DramSystem sys(dram::hbm2eConfig());

    // Re-reading the same 1 MB region accumulates latent singles;
    // sooner or later a new flip lands on one — uncorrectable.
    for (int pass = 0; pass < 12; ++pass)
        sys.streamReadSeconds(0, 1ull << 20);

    const auto &ecc = sys.eccStats();
    EXPECT_GT(ecc.singleCorrected, 0u);
    EXPECT_GT(ecc.doubleDetected, 0u);
    Status st = sys.takeFaultStatus();
    ASSERT_FALSE(st.ok());
    EXPECT_NE(st.message().find("latent"), std::string::npos);
}

TEST(DramScrub, PatrolScrubCutsLatentEscalations)
{
    PlanGuard plan("dram_flip:p=2e-3;seed:9");
    dram::DramSystem sys(dram::hbm2eConfig());
    const int kPasses = 12;
    const uint64_t kBytes = 1ull << 20;

    // Phase 1: no scrubbing. Latents age in place and escalate.
    for (int pass = 0; pass < kPasses; ++pass)
        sys.streamReadSeconds(0, kBytes);
    uint64_t doubles_off = sys.eccStats().doubleDetected;
    ASSERT_GT(doubles_off, 0u);
    (void)sys.takeFaultStatus();

    // Phase 2: same workload with an aggressive patrol scrub. Start
    // from clean storage (as a re-stage would) so the phases compare
    // like for like.
    sys.clearLatents();
    dram::ScrubConfig scrub;
    scrub.enabled = true;
    scrub.intervalReadBursts = 1024;
    scrub.burstsPerTick = 4096;
    sys.setScrubConfig(scrub);
    uint64_t reads_before = sys.stats().reads;
    for (int pass = 0; pass < kPasses; ++pass)
        sys.streamReadSeconds(0, kBytes);
    uint64_t doubles_on =
        sys.eccStats().doubleDetected - doubles_off;

    // The scrubber worked, its traffic is charged as real reads,
    // and the escalation rate dropped measurably.
    EXPECT_GT(sys.eccStats().scrubReads, 0u);
    EXPECT_GT(sys.eccStats().scrubCorrected, 0u);
    EXPECT_GT(sys.stats().reads - reads_before,
              sys.eccStats().wordsChecked / 1000); // includes scrub
    EXPECT_LT(doubles_on * 4, doubles_off)
        << "scrub on: " << doubles_on
        << ", scrub off: " << doubles_off;
    (void)sys.takeFaultStatus();
}

TEST(DramScrub, ScrubIsInertWithoutAnArmedDramClause)
{
    dram::ScrubConfig scrub;
    scrub.enabled = true;
    dram::DramSystem sys(dram::hbm2eConfig());
    sys.setScrubConfig(scrub);
    sys.streamReadSeconds(0, 4ull << 20);
    EXPECT_EQ(sys.eccStats().scrubReads, 0u);
    EXPECT_EQ(sys.latentSingles(), 0u);
}

// ---- DeviceServer: admission control -----------------------------------

TEST(ServingAdmission, DepthBoundShedsAtTheDoor)
{
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    ServerConfig cfg;
    cfg.batch = BatchPolicy{8, 100};
    cfg.admission.maxQueueDepth = 2;
    DeviceServer server(dev, spec, 0, nullptr, 1, cfg);

    EXPECT_TRUE(server.enqueueAt(0, genQuery(spec.dim, 10),
                                 server.busySeconds()).ok());
    EXPECT_TRUE(server.enqueueAt(1, genQuery(spec.dim, 11),
                                 server.busySeconds()).ok());
    Status st = server.enqueueAt(2, genQuery(spec.dim, 12),
                                 server.busySeconds());
    EXPECT_EQ(st.code(), StatusCode::ResourceExhausted);
    EXPECT_NE(st.message().find("admission queue full"),
              std::string::npos);

    // The shed query was never admitted: exactly the two admitted
    // queries get outcomes.
    EXPECT_EQ(server.drain().size(), 2u);
    EXPECT_EQ(server.journalOutstanding(), 0u);
}

// ---- DeviceServer: quarantine, shed, reset, replay ---------------------

TEST(ServingRecovery, QuarantineShedsWithResourceExhausted)
{
    PlanGuard plan("task_hang:core=0,p=1,sticky=1;seed:5");
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    ServerConfig cfg;
    cfg.batch = BatchPolicy{1, 0};
    cfg.health = enabledPolicy(16, 1, 2, 3);
    cfg.maxResets = 0; // never reset: quarantine is terminal here
    DeviceServer server(dev, spec, 0, nullptr, 1, cfg);

    auto &shed = metrics::Registry::get().counter(
        "recovery.shed",
        {{"device", "0"},
         {"core", "0"},
         {"reason", "quarantine"},
         {"tenant", "-"},
         {"slo_class", "0"}});
    double shed_before = shed.value();

    // The first batch wedges the core mid-retry and parks.
    EXPECT_TRUE(server.enqueueAt(1, genQuery(spec.dim, 1),
                                 server.busySeconds()).ok());
    EXPECT_TRUE(server.pumpUntil(server.busySeconds()).empty());
    EXPECT_EQ(server.health().state(), CoreState::Quarantined);
    EXPECT_EQ(server.journalOutstanding(), 1u);

    // Quarantined + no reset budget: every admission sheds loudly.
    for (uint64_t q = 2; q <= 4; ++q) {
        Status st =
            server.enqueueAt(q, genQuery(spec.dim, static_cast<int>(q)),
                             server.busySeconds());
        EXPECT_EQ(st.code(), StatusCode::ResourceExhausted)
            << "query " << q;
        EXPECT_NE(st.message().find("quarantined"),
                  std::string::npos);
    }
    EXPECT_EQ(shed.value() - shed_before, 3.0);

    // drain() cannot reset (budget 0): the parked query is forced
    // through the CPU fallback — delivered, never dropped.
    auto outs = server.drain();
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0].id, 1u);
    EXPECT_TRUE(outs[0].ok);
    EXPECT_FALSE(outs[0].fromDevice);
    EXPECT_EQ(server.journalOutstanding(), 0u);
    EXPECT_EQ(server.resets(), 0u);
}

TEST(ServingRecovery, ForceResetReplaysToIdenticalAnswers)
{
    // Functional on a small corpus, so the reset must preserve the
    // answer itself (checked against the exact golden), not only the
    // timing.
    RagCorpusSpec corpus{"unit", 0, 3000, 368};
    const uint64_t seed = 2026;
    apu::ApuDevice dev;
    IndexFlatI16 index(corpus.dim);
    {
        auto emb = genEmbeddings(corpus, 0, corpus.numChunks, seed);
        index.add(emb.data(), corpus.numChunks);
    }
    DeviceServer server(dev, corpus, 0, &index, seed, ServerConfig{});
    auto query = genQuery(corpus.dim, 42);
    auto serve = [&](uint64_t id) {
        EXPECT_TRUE(
            server.enqueueAt(id, query, server.busySeconds()).ok());
        auto outs = server.drain();
        EXPECT_EQ(outs.size(), 1u);
        return outs.empty() ? ServeOutcome{} : outs[0];
    };

    ServeOutcome before = serve(1);
    ASSERT_TRUE(before.ok);
    ASSERT_TRUE(before.fromDevice);
    EXPECT_EQ(before.run.hits, index.search(query.data(), 5));

    gdl::ResetOutcome out = server.forceReset();
    EXPECT_GT(out.seconds, 0.0);
    // The server tears its buffers down through their destructors
    // (in reverse allocation order) before the gdl reset, so the
    // session owns nothing by the time resetCore runs — the freed
    // footprint shows up in the allocator, not in the outcome.
    EXPECT_EQ(out.freedBytes, 0u);
    EXPECT_EQ(out.restagedBytes, server.restageBytes());
    EXPECT_EQ(server.resets(), 1u);
    EXPECT_EQ(server.host().stats().coreResets, 1u);

    // The rebuilt footprint lands on the same addresses, so the
    // same query retrieves bit-identically after the reset.
    ServeOutcome after = serve(2);
    ASSERT_TRUE(after.ok);
    EXPECT_TRUE(after.fromDevice);
    EXPECT_EQ(after.run.hits, before.run.hits);
    EXPECT_EQ(after.retrievalSeconds, before.retrievalSeconds);
}

TEST(ServingRecovery, PersistentHangEscalatesResetsAndReplays)
{
    // A sticky hang wedges core 0 on its second task — the first
    // batch serves clean, the second wedges, quarantines, and parks.
    // drain() must reset the core, re-stage the shard, and replay
    // the journaled batch to the exact answers an un-faulted run
    // produces: all queries answered, zero wrong top-k.
    RagCorpusSpec corpus{"unit", 0, 3000, 368};
    const uint64_t seed = 2026;
    apu::ApuDevice dev;
    IndexFlatI16 index(corpus.dim);
    {
        auto emb = genEmbeddings(corpus, 0, corpus.numChunks, seed);
        index.add(emb.data(), corpus.numChunks);
    }
    auto query = [&](uint64_t q) {
        return genQuery(corpus.dim, 600 + static_cast<int>(q));
    };

    ServerConfig cfg;
    cfg.batch = BatchPolicy{4, 4};
    cfg.health = enabledPolicy(16, 1, 2, 4);

    std::vector<ServeOutcome> faulted;
    unsigned resets = 0;
    uint64_t replayed = 0;
    std::vector<Transition> ladder;
    {
        PlanGuard plan("task_hang:core=0,nth=2,sticky=1;seed:7");
        DeviceServer server(dev, corpus, 0, &index, seed, cfg);
        for (uint64_t q = 0; q < 8; ++q)
            EXPECT_TRUE(server.enqueueAt(q, query(q),
                                         server.busySeconds()).ok());
        faulted = server.drain();
        resets = server.resets();
        replayed = server.replayedQueries();
        ladder = server.health().transitions();
        EXPECT_EQ(server.journalOutstanding(), 0u);
        EXPECT_EQ(server.health().state(), CoreState::Healthy);
        EXPECT_EQ(server.host().stats().coreResets, 1u);
        EXPECT_GT(server.host().stats().resetSeconds, 0.0);
    }

    ASSERT_EQ(faulted.size(), 8u);
    EXPECT_EQ(resets, 1u);
    EXPECT_EQ(replayed, 4u); // the parked second batch

    // The full ladder ran: Healthy -> Degraded -> Quarantined ->
    // Resetting -> Healthy.
    ASSERT_EQ(ladder.size(), 4u);
    EXPECT_EQ(ladder[0].to, CoreState::Degraded);
    EXPECT_EQ(ladder[1].to, CoreState::Quarantined);
    EXPECT_EQ(ladder[2].to, CoreState::Resetting);
    EXPECT_EQ(ladder[3].to, CoreState::Healthy);

    // Reference: the same workload with no fault plan armed.
    std::vector<ServeOutcome> clean;
    {
        DeviceServer server(dev, corpus, 0, &index, seed, cfg);
        for (uint64_t q = 0; q < 8; ++q)
            EXPECT_TRUE(server.enqueueAt(q, query(q),
                                         server.busySeconds()).ok());
        clean = server.drain();
    }
    ASSERT_EQ(clean.size(), 8u);

    // Replayed batches are bit-identical to the un-faulted run: for
    // every query, same device answer, same top-k ids.
    for (size_t i = 0; i < 8; ++i) {
        EXPECT_TRUE(faulted[i].ok) << "query " << faulted[i].id;
        EXPECT_TRUE(faulted[i].fromDevice)
            << "query " << faulted[i].id;
        EXPECT_EQ(faulted[i].id, clean[i].id);
        EXPECT_EQ(faulted[i].run.hits, clean[i].run.hits)
            << "query " << faulted[i].id;
    }
    // ...and those answers are the right ones.
    for (const auto &o : clean)
        EXPECT_EQ(o.run.hits, index.search(query(o.id).data(), 5))
            << "query " << o.id;
}

// ---- Pipeline determinism with recovery in the loop --------------------

namespace {

struct RecoverySnapshot
{
    std::vector<double> served, waits;
    std::vector<unsigned> attempts;
    std::vector<int> fromDevice;
    std::vector<double> busy;
    std::vector<unsigned> resets;
    std::vector<uint64_t> replayed;
};

RecoverySnapshot
runRecoveringPipeline()
{
    constexpr int kQ = 16;
    gdl::resetFaultStreams();
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    for (unsigned c = 0; c < dev.numCores(); ++c)
        dev.core(c).setMode(apu::ExecMode::TimingOnly);

    ServerConfig cfg;
    cfg.batch = BatchPolicy{2, 2};
    cfg.health = enabledPolicy(16, 1, 2, 4);
    std::vector<std::unique_ptr<DeviceServer>> servers;
    for (unsigned c = 0; c < dev.numCores(); ++c)
        servers.push_back(std::make_unique<DeviceServer>(
            dev, spec, c, nullptr, 7, cfg));

    RecoverySnapshot snap;
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
            // Shed admissions would need re-routing; with unbounded
            // admission and a reset budget the enqueue always lands.
            Status st = server.enqueueAt(
                q, genQuery(spec.dim, 70 + static_cast<int>(q)),
                server.busySeconds());
            cisram_assert(st.ok(), st.toString());
            for (const auto &out :
                 server.pumpUntil(server.busySeconds()))
                record(out);
        }
        for (const auto &out : server.drain())
            record(out);
    });
    for (auto &s : servers) {
        snap.busy.push_back(s->busySeconds());
        snap.resets.push_back(s->resets());
        snap.replayed.push_back(s->replayedQueries());
    }
    return snap;
}

} // namespace

TEST(ServingRecovery, BitIdenticalAcrossSimThreadCounts)
{
    // The hard case for the determinism contract: a sticky wedge on
    // core 1 forces a quarantine -> reset -> replay mid-pipeline,
    // with transient PCIe corruption sprinkled everywhere. The whole
    // recovery choreography must land on the same queries at the
    // same simulated times for any CISRAM_SIM_THREADS.
    PlanGuard plan(
        "task_hang:core=1,nth=2,sticky=1;pcie_corrupt:p=0.02;"
        "seed:11");
    RecoverySnapshot serial, threaded;
    {
        ThreadSetting one(1);
        serial = runRecoveringPipeline();
    }
    {
        ThreadSetting four(4);
        threaded = runRecoveringPipeline();
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
    for (size_t c = 0; c < serial.busy.size(); ++c) {
        EXPECT_EQ(serial.busy[c], threaded.busy[c]) << "core=" << c;
        EXPECT_EQ(serial.resets[c], threaded.resets[c])
            << "core=" << c;
        EXPECT_EQ(serial.replayed[c], threaded.replayed[c])
            << "core=" << c;
    }
    // The ladder actually ran: the wedged core reset and replayed.
    unsigned total_resets = 0;
    uint64_t total_replayed = 0;
    for (size_t c = 0; c < serial.resets.size(); ++c) {
        total_resets += serial.resets[c];
        total_replayed += serial.replayed[c];
    }
    EXPECT_GE(total_resets, 1u);
    EXPECT_GE(total_replayed, 1u);
}

// ---- fleet device labels on the recovery series -------------------------

TEST(HealthMonitor, MetricSeriesCarryTheDeviceIndex)
{
    // A fleet collapses without the device label: every device's
    // core 0 would write one shared series. Transition a monitor
    // built with device=3 and assert the fully-labeled series moved
    // while the device=0 twin did not.
    auto &reg = metrics::Registry::get();
    auto &scoped = reg.counter("recovery.transitions",
                               {{"device", "3"},
                                {"core", "1"},
                                {"from", "Healthy"},
                                {"to", "Quarantined"}});
    auto &unscoped = reg.counter("recovery.transitions",
                                 {{"device", "0"},
                                  {"core", "1"},
                                  {"from", "Healthy"},
                                  {"to", "Quarantined"}});
    double scoped_before = scoped.value();
    double unscoped_before = unscoped.value();

    HealthMonitor hm(1, enabledPolicy(8, 1, 2, 3), 3);
    EXPECT_EQ(hm.device(), 3u);
    hm.observeFaults(FaultLedgerDelta{2, 0, 0});
    EXPECT_EQ(hm.state(), CoreState::Quarantined);

    EXPECT_EQ(scoped.value() - scoped_before, 1.0);
    EXPECT_EQ(unscoped.value() - unscoped_before, 0.0);

    EXPECT_EQ(reg.gauge("recovery.core_state",
                        {{"device", "3"}, {"core", "1"}})
                  .value(),
              static_cast<double>(CoreState::Quarantined));
}

TEST(HealthMonitor, DefaultDeviceIndexIsZero)
{
    // Standalone single-device serving (every pre-fleet caller)
    // lands on the device=0 series.
    auto &reg = metrics::Registry::get();
    auto &zero = reg.counter("recovery.transitions",
                             {{"device", "0"},
                              {"core", "7"},
                              {"from", "Healthy"},
                              {"to", "Degraded"}});
    double before = zero.value();
    HealthMonitor hm(7, enabledPolicy(8, 1, 3, 2));
    EXPECT_EQ(hm.device(), 0u);
    hm.observeFaults(FaultLedgerDelta{1, 0, 0});
    EXPECT_EQ(hm.state(), CoreState::Degraded);
    EXPECT_EQ(zero.value() - before, 1.0);
}
