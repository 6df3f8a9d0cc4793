/**
 * @file
 * IVF-lite clustered index + metadata-filtered search tests.
 *
 * The load-bearing invariants:
 *  - nprobe = numLists scans the same chunk set as the exhaustive
 *    path, so all four producers (device exhaustive, device IVF,
 *    flat golden, IVF golden) must bit-compare — filtered or not.
 *  - The metadata predicate behaves identically on-device (admit
 *    plane ANDed into the match mask) and on the CPU goldens,
 *    including the edge cases: empty filter (0 survivors), all-pass
 *    mask (bit-identical to unfiltered), ragged supertile tails.
 *  - Score ties at the k boundary resolve (score desc, id asc)
 *    everywhere: flat scan, filtered scan, IVF probe selection,
 *    per-supertile device extraction, and the fleet k-way merge.
 *  - overlapHidden never exceeds loadEmbedding (or calcDistance),
 *    including IVF's short probe-restricted streams, so
 *    RagStageLatency::total()'s unclamped subtraction is safe.
 *  - Per-query search params route through batching, serving,
 *    journal replay, and fleet scatter without mixing batches.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "baseline/faisslite.hh"
#include "baseline/ivf.hh"
#include "baseline/workloads.hh"
#include "fleet/fleet.hh"
#include "kernels/rag.hh"
#include "kernels/serving.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::kernels;

namespace {

constexpr uint64_t kSeed = 7321;

/** All eight metadata labels admitted — but not the kFilterAll
 *  sentinel, so the filtered machinery engages. */
constexpr uint16_t kAllLabels = 0x00ff;

/**
 * A clustered corpus at the paper's dim, or at a short `dim` for a
 * test whose checks do not depend on it: functional staging and the
 * lane pass cost rows x dim, which sets the sanitizer copies' time.
 */
RagCorpusSpec
clusteredSpec(const char *label, size_t chunks, size_t topics,
              size_t dim = 368)
{
    return RagCorpusSpec{label, 0, chunks, dim, 0, topics};
}

IndexFlatI16
buildFlat(const RagCorpusSpec &spec, uint64_t seed)
{
    return IndexFlatI16(
        spec.dim,
        genEmbeddings(spec, spec.firstChunk, spec.numChunks, seed));
}

void
expectSameHits(const std::vector<Hit> &got,
               const std::vector<Hit> &expect, const char *what)
{
    ASSERT_EQ(got.size(), expect.size()) << what;
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got[i].id, expect[i].id) << what << " rank " << i;
        EXPECT_FLOAT_EQ(got[i].score, expect[i].score)
            << what << " rank " << i;
    }
}

/**
 * One functional device batch; fresh device per call, staging from
 * `flat`, the corpus's rows at `seed`.
 */
std::vector<RagRunResult>
deviceBatch(const RagCorpusSpec &spec, const IndexFlatI16 &flat,
            uint64_t seed, const std::vector<std::vector<int16_t>> &queries,
            size_t k, RagSearchParams search, const IvfClustering *ivf)
{
    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, k, 0, &flat);
    RagBatchOptions opts;
    opts.search = search;
    opts.ivf = ivf;
    return retriever.retrieveBatch(queries, seed, opts);
}

} // namespace

// ---- clustering construction -------------------------------------------

TEST(IvfClusteringTest, DeterministicAndCompletePartition)
{
    auto spec = clusteredSpec("ivf-build", 5000, 6);
    IvfBuildConfig cfg{16, 2048, 4};
    auto a = IvfClustering::build(spec, kSeed, cfg);
    auto b = IvfClustering::build(spec, kSeed, cfg);

    EXPECT_EQ(a.numLists(), 16u);
    EXPECT_EQ(a.numChunks(), spec.numChunks);
    EXPECT_EQ(a.centroids(), b.centroids());
    EXPECT_EQ(a.listOffsets(), b.listOffsets());
    EXPECT_EQ(a.order(), b.order());

    // The inverted lists partition the corpus: order() is a
    // permutation, ascending within each list (the device path's
    // per-supertile tie exactness depends on this).
    EXPECT_EQ(a.listOffsets().front(), 0u);
    EXPECT_EQ(a.listOffsets().back(), spec.numChunks);
    std::vector<bool> seen(spec.numChunks, false);
    for (size_t list = 0; list < a.numLists(); ++list) {
        uint32_t prev = 0;
        for (uint64_t i = a.listOffsets()[list];
             i < a.listOffsets()[list + 1]; ++i) {
            uint32_t id = a.order()[i];
            ASSERT_LT(id, spec.numChunks);
            EXPECT_FALSE(seen[id]) << "chunk " << id << " twice";
            seen[id] = true;
            if (i > a.listOffsets()[list]) {
                EXPECT_LT(prev, id)
                    << "list " << list << " not ascending";
            }
            prev = id;
            EXPECT_EQ(a.listOf(id), list);
        }
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(),
                            [](bool s) { return s; }));
}

TEST(IvfClusteringTest, FlatIndexTrainingMatchesGeneration)
{
    // Training from a materialized corpus reads flat row i as
    // spec-local chunk i: the same sample stride, init and tie rules,
    // so every output agrees bit for bit with training that generates
    // the rows.
    struct Case
    {
        const char *what;
        RagCorpusSpec spec;
        IvfBuildConfig cfg;
        bool emptyList; ///< some list must end up empty
    };
    RagCorpusSpec shard = clusteredSpec("ivf-shard", 1500, 6);
    shard.firstChunk = 3217;
    const Case cases[] = {
        {"whole corpus, stride 2", clusteredSpec("ivf-whole", 2500, 16),
         {8, 1024, 4}, false},
        {"shard, stride 3", shard, {4, 500, 3}, false},
        {"K > topics", clusteredSpec("ivf-empty", 600, 2), {16, 600, 4},
         true},
        {"K = 1", clusteredSpec("ivf-one", 700, 4), {1, 256, 2}, false},
    };
    for (const Case &c : cases) {
        IndexFlatI16 flat = buildFlat(c.spec, kSeed);
        auto gen = IvfClustering::build(c.spec, kSeed, c.cfg);
        auto read = IvfClustering::build(flat, c.cfg);
        EXPECT_EQ(read.centroids(), gen.centroids()) << c.what;
        EXPECT_EQ(read.listOffsets(), gen.listOffsets()) << c.what;
        EXPECT_EQ(read.order(), gen.order()) << c.what;
        ASSERT_EQ(read.numChunks(), c.spec.numChunks) << c.what;
        for (uint32_t id = 0; id < c.spec.numChunks; ++id)
            ASSERT_EQ(read.listOf(id), gen.listOf(id)) << c.what << " " << id;
        bool empty = false;
        for (size_t list = 0; list < gen.numLists(); ++list)
            empty = empty || gen.listSize(list) == 0;
        EXPECT_EQ(empty, c.emptyList) << c.what;
    }
}

TEST(IvfClusteringTest, SelectProbesTieOrderAndClamp)
{
    auto spec = clusteredSpec("ivf-probes", 3000, 5);
    IvfBuildConfig cfg{8, 1024, 3};
    auto cl = IvfClustering::build(spec, kSeed, cfg);

    // A zero query ties every centroid at dot 0: probe order must
    // fall back to ascending list id (score desc, id asc).
    std::vector<int16_t> zero(spec.dim, 0);
    auto probes = cl.selectProbes(zero.data(), 3);
    ASSERT_EQ(probes.size(), 3u);
    for (uint32_t p = 0; p < 3; ++p)
        EXPECT_EQ(probes[p], p);

    // nprobe clamps to numLists; 0 selects nothing (the caller's
    // "exhaustive, don't probe" convention).
    EXPECT_EQ(cl.selectProbes(zero.data(), 99).size(),
              cl.numLists());
    EXPECT_TRUE(cl.selectProbes(zero.data(), 0).empty());

    // A real query's probes are distinct, valid, and score-ordered.
    auto q = genQueryForTopic(spec, 2, 11, kSeed);
    auto sel = cl.selectProbes(q.data(), cl.numLists());
    ASSERT_EQ(sel.size(), cl.numLists());
    for (size_t i = 1; i < sel.size(); ++i) {
        int64_t prev = cl.centroidDot(q.data(), sel[i - 1]);
        int64_t cur = cl.centroidDot(q.data(), sel[i]);
        EXPECT_TRUE(prev > cur || (prev == cur &&
                                   sel[i - 1] < sel[i]))
            << "probe order violated at " << i;
    }
}

// ---- CPU golden: nprobe = K identity, filter semantics -----------------

TEST(IvfGoldenTest, NprobeEqualsListsMatchesExhaustive)
{
    auto spec = clusteredSpec("ivf-identity", 4000, 6);
    auto flat = buildFlat(spec, kSeed);
    auto cl = IvfClustering::build(flat, IvfBuildConfig{16, 2048, 4});
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    for (int qi = 0; qi < 4; ++qi) {
        auto q = genQueryForTopic(spec, static_cast<size_t>(qi),
                                  200 + qi, kSeed);
        auto exhaustive = flat.search(q.data(), 10);
        auto probed = ivf.search(q.data(), 10, cl.numLists());
        expectSameHits(probed, exhaustive, "unfiltered identity");

        uint16_t mask = 0x0035; // labels {0, 2, 4, 5}
        auto fex = searchFilteredFlat(flat, spec, kSeed, q.data(),
                                      10, mask);
        auto fprobed =
            ivf.search(q.data(), 10, cl.numLists(), mask);
        expectSameHits(fprobed, fex, "filtered identity");
    }
}

TEST(IvfGoldenTest, FilterMaskEdgeCases)
{
    auto spec = clusteredSpec("ivf-mask", 3000, 4);
    auto flat = buildFlat(spec, kSeed);

    auto q = genQueryForTopic(spec, 1, 77, kSeed);

    // Empty filter: zero survivors, loudly empty — not k garbage.
    EXPECT_TRUE(searchFilteredFlat(flat, spec, kSeed, q.data(), 10,
                                   0x0000)
                    .empty());

    // All-pass mask: bit-identical to the unfiltered scan.
    auto unfiltered = flat.search(q.data(), 10);
    auto allpass = searchFilteredFlat(flat, spec, kSeed, q.data(),
                                      10, kAllLabels);
    expectSameHits(allpass, unfiltered, "all-pass == unfiltered");

    // Single-label filter: every survivor carries that label, and
    // the result equals a brute-force filtered rescore.
    for (uint16_t label = 0; label < kNumChunkLabels; ++label) {
        uint16_t mask = static_cast<uint16_t>(1u << label);
        auto hits = searchFilteredFlat(flat, spec, kSeed, q.data(),
                                       10, mask);
        for (const Hit &h : hits)
            EXPECT_EQ(chunkLabel(h.id, kSeed), label);
        std::vector<Hit> brute;
        for (size_t id = 0; id < spec.numChunks; ++id)
            if (chunkLabel(id, kSeed) == label)
                hitHeapPush(brute, 10,
                            Hit{static_cast<float>(
                                    flat.dot(q.data(), id)),
                                id});
        hitFinalize(brute);
        expectSameHits(hits, brute, "single-label");
    }
}

// ---- device path: 4-way bit-compare ------------------------------------

TEST(IvfDeviceTest, NprobeKFourWayBitCompare)
{
    auto spec = clusteredSpec("ivf-4way", 5000, 6);
    auto flat = buildFlat(spec, kSeed);
    auto cl = IvfClustering::build(flat, IvfBuildConfig{4, 2048, 4});
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    std::vector<std::vector<int16_t>> queries;
    for (int qi = 0; qi < 3; ++qi)
        queries.push_back(genQueryForTopic(
            spec, static_cast<size_t>(qi), 300 + qi, kSeed));

    for (uint16_t mask : {kFilterAll, uint16_t(0x0029)}) {
        RagSearchParams exhaustive{0, mask};
        RagSearchParams probeAll{cl.numLists(), mask};
        auto devEx = deviceBatch(spec, flat, kSeed, queries, 5,
                                 exhaustive, nullptr);
        auto devIvf =
            deviceBatch(spec, flat, kSeed, queries, 5, probeAll, &cl);
        ASSERT_EQ(devEx.size(), queries.size());
        ASSERT_EQ(devIvf.size(), queries.size());

        for (size_t qi = 0; qi < queries.size(); ++qi) {
            std::vector<Hit> golden =
                mask == kFilterAll
                    ? flat.search(queries[qi].data(), 5)
                    : searchFilteredFlat(flat, spec, kSeed,
                                         queries[qi].data(), 5,
                                         mask);
            auto goldenIvf = ivf.search(queries[qi].data(), 5,
                                        cl.numLists(), mask);
            expectSameHits(devEx[qi].hits, golden,
                           "device exhaustive vs flat golden");
            expectSameHits(devIvf[qi].hits, golden,
                           "device nprobe=K vs flat golden");
            expectSameHits(goldenIvf, golden,
                           "IVF golden vs flat golden");
        }
    }
}

TEST(IvfDeviceTest, ProbeRestrictedMatchesGoldenIvf)
{
    // At nprobe < K the answer is probe-restricted (recall < 1 is
    // possible); the device must still bit-compare with the CPU
    // IVF golden — same probes, same filter, same ties.
    auto spec = clusteredSpec("ivf-probe2", 5000, 6);
    auto flat = buildFlat(spec, kSeed);
    auto cl = IvfClustering::build(flat, IvfBuildConfig{6, 2048, 4});
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    std::vector<std::vector<int16_t>> queries;
    for (int qi = 0; qi < 3; ++qi)
        queries.push_back(genQueryForTopic(
            spec, static_cast<size_t>(qi + 2), 400 + qi, kSeed));

    for (uint16_t mask : {kFilterAll, uint16_t(0x0013)}) {
        RagSearchParams p{2, mask};
        auto dev = deviceBatch(spec, flat, kSeed, queries, 5, p, &cl);
        for (size_t qi = 0; qi < queries.size(); ++qi) {
            auto golden =
                ivf.search(queries[qi].data(), 5, 2, mask);
            expectSameHits(dev[qi].hits, golden,
                           "device nprobe=2 vs IVF golden");
        }
    }
}

TEST(IvfDeviceTest, EmptyFilterYieldsNoSurvivorsOnDevice)
{
    auto spec = clusteredSpec("ivf-empty", 3000, 4);
    auto flat = buildFlat(spec, kSeed);
    auto cl = IvfClustering::build(flat, IvfBuildConfig{4, 1024, 3});
    std::vector<std::vector<int16_t>> queries{
        genQueryForTopic(spec, 0, 500, kSeed)};

    auto devEx = deviceBatch(spec, flat, kSeed, queries, 5,
                             RagSearchParams{0, 0x0000}, nullptr);
    EXPECT_TRUE(devEx[0].hits.empty());
    EXPECT_EQ(devEx[0].topkIdsCount, 0u);

    auto devIvf = deviceBatch(spec, flat, kSeed, queries, 5,
                              RagSearchParams{cl.numLists(), 0x0000},
                              &cl);
    EXPECT_TRUE(devIvf[0].hits.empty());
    EXPECT_EQ(devIvf[0].topkIdsCount, 0u);
}

TEST(IvfDeviceTest, AllPassMaskBitIdenticalToUnfiltered)
{
    auto spec = clusteredSpec("ivf-allpass", 3000, 4);
    auto flat = buildFlat(spec, kSeed);
    std::vector<std::vector<int16_t>> queries{
        genQueryForTopic(spec, 1, 600, kSeed),
        genQueryForTopic(spec, 3, 601, kSeed)};

    auto plain = deviceBatch(spec, flat, kSeed, queries, 5,
                             RagSearchParams{}, nullptr);
    auto allpass = deviceBatch(spec, flat, kSeed, queries, 5,
                               RagSearchParams{0, kAllLabels}, nullptr);
    for (size_t qi = 0; qi < queries.size(); ++qi)
        expectSameHits(allpass[qi].hits, plain[qi].hits,
                       "all-pass == unfiltered (device)");
}

TEST(IvfDeviceTest, FilteredRaggedSupertileBoundaries)
{
    // Corpus sizes straddling the 32768-lane supertile boundary:
    // the ragged tail's padding lanes must never surface (their
    // biased-zero dots would outrank real negative scores), and
    // the filter must stay exact across the word/bank edge. Neither
    // depends on the dim, so the corpora use a short one. A row
    // depends only on its chunk id, the seed and the topics, so the
    // smaller corpora are prefixes of the largest one's rows.
    constexpr size_t kDim = 40;
    const auto largest =
        buildFlat(clusteredSpec("ivf-ragged", 32769, 5, kDim), kSeed);
    for (size_t chunks :
         {size_t(32767), size_t(32768), size_t(32769)}) {
        auto spec = clusteredSpec("ivf-ragged", chunks, 5, kDim);
        const IndexFlatI16 flat(
            spec.dim, std::vector<int16_t>(largest.raw().begin(),
                                           largest.raw().begin() +
                                               chunks * spec.dim));
        std::vector<std::vector<int16_t>> queries{
            genQueryForTopic(spec, 0, 700, kSeed)};
        uint16_t mask = 0x0021; // labels {0, 5}

        auto dev = deviceBatch(spec, flat, kSeed, queries, 5,
                               RagSearchParams{0, mask}, nullptr);
        auto golden = searchFilteredFlat(flat, spec, kSeed,
                                         queries[0].data(), 5,
                                         mask);
        expectSameHits(dev[0].hits, golden,
                       ("ragged filtered @" +
                        std::to_string(chunks))
                           .c_str());
    }
}

// ---- score ties at the k boundary --------------------------------------

TEST(IvfTieTest, AllEqualScoresPinLowestIdsEverywhere)
{
    // A zero query ties every chunk at dot 0, at any dim. The k
    // boundary then cuts through one giant tie group, and every
    // producer must resolve it the same way: ids ascending.
    auto spec = clusteredSpec("ivf-ties", 40000, 4, 40);
    auto flat = buildFlat(spec, kSeed);
    auto cl = IvfClustering::build(flat, IvfBuildConfig{4, 2048, 3});
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    std::vector<int16_t> zero(spec.dim, 0);
    const size_t k = 7;
    auto expectLowest = [&](const std::vector<Hit> &hits,
                            const char *what) {
        ASSERT_EQ(hits.size(), k) << what;
        for (size_t i = 0; i < k; ++i) {
            EXPECT_EQ(hits[i].id, i) << what << " rank " << i;
            EXPECT_FLOAT_EQ(hits[i].score, 0.0f) << what;
        }
    };

    expectLowest(flat.search(zero.data(), k), "flat golden");
    expectLowest(searchFilteredFlat(flat, spec, kSeed, zero.data(),
                                    k, kAllLabels),
                 "filtered flat golden");
    expectLowest(ivf.search(zero.data(), k, cl.numLists()),
                 "IVF golden nprobe=K");

    // Device: the corpus spans two supertiles, so the boundary tie
    // crosses the per-VR extraction + CP merge path.
    std::vector<std::vector<int16_t>> queries{zero};
    auto devEx = deviceBatch(spec, flat, kSeed, queries, k,
                             RagSearchParams{}, nullptr);
    expectLowest(devEx[0].hits, "device exhaustive");
    auto devIvf = deviceBatch(spec, flat, kSeed, queries, k,
                              RagSearchParams{cl.numLists(), kFilterAll},
                              &cl);
    expectLowest(devIvf[0].hits, "device IVF nprobe=K");
}

TEST(IvfTieTest, FleetMergePinsLowestIdsOnAllEqualScores)
{
    fleet::FleetConfig cfg;
    cfg.devices = 2;
    cfg.replicas = 1;
    cfg.shards = 4;
    cfg.functional = true;
    cfg.topK = 7;
    auto spec = clusteredSpec("ivf-fleet-ties", 2048, 4);
    fleet::Router router(spec, kSeed, cfg);

    std::vector<int16_t> zero(spec.dim, 0);
    ASSERT_TRUE(router.admit(1, zero).ok());
    auto outs = router.drain();
    ASSERT_EQ(outs.size(), 1u);
    ASSERT_EQ(outs[0].hits.size(), 7u);
    for (size_t i = 0; i < 7; ++i) {
        EXPECT_EQ(outs[0].hits[i].id, i) << "fleet rank " << i;
        EXPECT_FLOAT_EQ(outs[0].hits[i].score, 0.0f);
    }
}

// ---- overlap accounting -------------------------------------------------

TEST(IvfOverlapTest, HiddenNeverExceedsEitherOverlappedStage)
{
    auto spec = clusteredSpec("ivf-overlap", 40000, 8);
    auto cl = IvfClustering::build(spec, kSeed,
                                   IvfBuildConfig{16, 2048, 3});
    auto query = genQueryForTopic(spec, 3, 800, kSeed);

    auto timedRun = [&](RagSearchParams search,
                        const IvfClustering *ivf) {
        apu::ApuDevice dev;
        dev.core(0).setMode(apu::ExecMode::TimingOnly);
        dram::DramSystem hbm(dram::hbm2eConfig());
        RagRetriever retriever(dev, hbm, spec, 5);
        std::vector<std::vector<int16_t>> queries{query};
        RagBatchOptions opts;
        opts.overlapStream = true;
        opts.search = search;
        opts.ivf = ivf;
        return retriever.retrieveBatch(queries, kSeed, opts)[0];
    };

    // Exhaustive, multi-supertile: hidden is bounded by both the
    // stream and the compute it overlaps, so total() stays > 0.
    auto ex = timedRun(RagSearchParams{}, nullptr);
    EXPECT_LE(ex.stages.overlapHidden, ex.stages.loadEmbedding);
    EXPECT_LE(ex.stages.overlapHidden, ex.stages.calcDistance);
    EXPECT_GT(ex.stages.total(), 0.0);

    // IVF's short probe-restricted streams: every probed list is a
    // single ragged supertile here. The bound must hold — and with
    // one supertile in flight nothing can overlap at all.
    for (size_t nprobe : {size_t(1), size_t(3), cl.numLists()}) {
        auto r =
            timedRun(RagSearchParams{nprobe, kFilterAll}, &cl);
        EXPECT_LE(r.stages.overlapHidden, r.stages.loadEmbedding)
            << "nprobe=" << nprobe;
        EXPECT_LE(r.stages.overlapHidden, r.stages.calcDistance)
            << "nprobe=" << nprobe;
        EXPECT_GT(r.stages.total(), 0.0) << "nprobe=" << nprobe;
    }
    auto probe1 = cl.selectProbes(query.data(), 1);
    ASSERT_EQ(probe1.size(), 1u);
    if (cl.listSize(probe1[0]) <= 32768) {
        // The single probed list fits one ragged supertile: nothing
        // can pipeline, so the hidden portion is exactly zero (the
        // n = 1 case of the overlapHiddenSeconds bound).
        auto one = timedRun(RagSearchParams{1, kFilterAll}, &cl);
        EXPECT_EQ(one.stages.overlapHidden, 0.0)
            << "single supertile cannot overlap";
    }

    // A probe-restricted pass streams strictly less than the
    // exhaustive one (the whole point of the coarse quantizer).
    auto two = timedRun(RagSearchParams{2, kFilterAll}, &cl);
    EXPECT_LT(two.dramBytes, ex.dramBytes);
}

// ---- batching + serving -------------------------------------------------

TEST(IvfServingTest, BatchFormerSplitsOnSearchParams)
{
    BatchFormer former(BatchPolicy{8, 16});
    RagSearchParams a{0, kFilterAll};
    RagSearchParams b{2, 0x0003};
    auto pq = [&](uint64_t id, RagSearchParams p) {
        return PendingQuery{id, std::vector<int16_t>(4, 0), 0.0,
                            p};
    };
    former.admit(pq(1, a));
    former.admit(pq(2, a));
    former.admit(pq(3, b));
    former.admit(pq(4, a));
    former.admit(pq(5, a));

    // FIFO prefixes split exactly at the param boundary; order is
    // never rearranged to pack fuller batches.
    auto b1 = former.takeBatch();
    ASSERT_EQ(b1.size(), 2u);
    EXPECT_EQ(b1[0].id, 1u);
    EXPECT_EQ(b1[1].id, 2u);
    EXPECT_TRUE(b1[0].search == a);

    auto b2 = former.takeBatch();
    ASSERT_EQ(b2.size(), 1u);
    EXPECT_EQ(b2[0].id, 3u);
    EXPECT_TRUE(b2[0].search == b);

    auto b3 = former.takeBatch();
    ASSERT_EQ(b3.size(), 2u);
    EXPECT_EQ(b3[0].id, 4u);
    EXPECT_EQ(b3[1].id, 5u);
    EXPECT_TRUE(former.empty());
}

TEST(IvfServingTest, ServerHonoursPerQueryParamsEndToEnd)
{
    auto spec = clusteredSpec("ivf-serving", 3000, 5);
    auto flat = buildFlat(spec, kSeed);

    const auto cl = IvfClustering::build(flat, {4, 1024, 3});

    apu::ApuDevice dev;
    ServerConfig cfg;
    cfg.topK = 5;
    cfg.ivf.enabled = true;
    cfg.batch.maxBatch = 4;
    cfg.batch.maxLingerAdmissions = 64; // hold until drain
    DeviceServer server(dev, spec, 0, &flat, kSeed, cfg, &cl);
    ASSERT_EQ(server.clustering(), &cl);
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    struct Want
    {
        uint64_t id;
        RagSearchParams p;
    };
    std::vector<Want> wants{
        {1, RagSearchParams{0, kFilterAll}},
        {2, RagSearchParams{0, kFilterAll}},
        {3, RagSearchParams{2, 0x0015}},
        {4, RagSearchParams{cl.numLists(), kFilterAll}},
        {5, RagSearchParams{0, 0x0000}}, // empty filter
    };
    std::vector<std::vector<int16_t>> qs;
    for (const Want &w : wants) {
        qs.push_back(genQueryForTopic(
            spec, static_cast<size_t>(w.id % 5), 900 + w.id,
            kSeed));
        ASSERT_TRUE(
            server.enqueueAt(w.id, qs.back(), server.busySeconds(), w.p).ok());
    }

    auto outs = server.drain();
    ASSERT_EQ(outs.size(), wants.size());
    // Param boundaries forced at least three batches.
    EXPECT_GE(server.former().batchesFormed(), 3u);

    std::sort(outs.begin(), outs.end(),
              [](const ServeOutcome &x, const ServeOutcome &y) {
                  return x.id < y.id;
              });
    for (size_t i = 0; i < wants.size(); ++i) {
        const Want &w = wants[i];
        ASSERT_EQ(outs[i].id, w.id);
        ASSERT_TRUE(outs[i].ok);
        std::vector<Hit> expect;
        if (w.p.nprobe > 0)
            expect = ivf.search(qs[i].data(), cfg.topK,
                                w.p.nprobe, w.p.filterMask);
        else if (w.p.filterMask != kFilterAll)
            expect = searchFilteredFlat(flat, spec, kSeed,
                                        qs[i].data(), cfg.topK,
                                        w.p.filterMask);
        else
            expect = flat.search(qs[i].data(), cfg.topK);
        expectSameHits(outs[i].run.hits, expect, "serving e2e");
    }
    // The empty-filter query must come back loudly empty — no
    // stale ids read out of the device buffer (the server asserts
    // its read-back equals run.hits' ids).
    EXPECT_TRUE(outs.back().run.hits.empty());
}

TEST(IvfServingTest, NprobeWithoutClusteringDies)
{
    auto spec = clusteredSpec("ivf-noivf", 512, 3);
    apu::ApuDevice dev;
    DeviceServer server(dev, spec, 0, nullptr, kSeed, {});
    EXPECT_DEATH((void)server.enqueueAt(
                     1, std::vector<int16_t>(spec.dim, 0), 0.0,
                     RagSearchParams{2, kFilterAll}),
                 "IVF");
}

TEST(IvfServingTest, IvfWithoutClusteringDiesAtConstruction)
{
    // The server never trains: IVF serving without a clustering is a
    // configuration error at construction, not at the first probe.
    auto spec = clusteredSpec("ivf-nocl", 512, 3);
    apu::ApuDevice dev;
    ServerConfig cfg;
    cfg.ivf.enabled = true;
    EXPECT_DEATH(DeviceServer(dev, spec, 0, nullptr, kSeed, cfg),
                 "ServerConfig::ivf.enabled is set, but the server was "
                 "given no clustering");
}

TEST(IvfServingTest, ClusteringWithoutIvfDiesAtConstruction)
{
    auto spec = clusteredSpec("ivf-offcl", 512, 3);
    const auto cl = IvfClustering::build(spec, kSeed, {4, 512, 2});
    apu::ApuDevice dev;
    EXPECT_DEATH(DeviceServer(dev, spec, 0, nullptr, kSeed, {}, &cl),
                 "given a clustering, but ServerConfig::ivf.enabled is "
                 "off");
}

TEST(IvfServingTest, ParamsSurviveJournalReplayAcrossReset)
{
    auto spec = clusteredSpec("ivf-replay", 2000, 4);
    auto flat = buildFlat(spec, kSeed);
    const auto cl = IvfClustering::build(flat, {4, 1024, 3});

    apu::ApuDevice dev;
    ServerConfig cfg;
    cfg.topK = 5;
    cfg.ivf.enabled = true;
    cfg.health.enabled = true;
    DeviceServer server(dev, spec, 0, &flat, kSeed, cfg, &cl);
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    RagSearchParams p{2, 0x0009};
    auto q = genQueryForTopic(spec, 1, 1000, kSeed);
    ASSERT_TRUE(server.enqueueAt(7, q, server.busySeconds(), p).ok());

    // Force the reset choreography: the journaled query replays
    // with its original params through the rebuilt retriever.
    server.forceReset();
    EXPECT_EQ(server.replayedQueries(), 1u);
    auto outs = server.drain();
    ASSERT_EQ(outs.size(), 1u);
    EXPECT_EQ(outs[0].id, 7u);
    ASSERT_TRUE(outs[0].ok);
    auto expect = ivf.search(q.data(), cfg.topK, p.nprobe,
                             p.filterMask);
    expectSameHits(outs[0].run.hits, expect, "replayed params");
}

// ---- fleet --------------------------------------------------------------

TEST(IvfFleetTest, PerShardNprobeAllMergesToGlobalFilteredAnswer)
{
    auto spec = clusteredSpec("ivf-fleet", 2048, 4);
    auto global = buildFlat(spec, kSeed);

    fleet::FleetConfig cfg;
    cfg.devices = 2;
    cfg.replicas = 2;
    cfg.shards = 4;
    cfg.functional = true;
    cfg.topK = 5;
    cfg.server.ivf.enabled = true;
    cfg.server.ivf.build = IvfBuildConfig{4, 512, 3};
    fleet::Router router(spec, kSeed, cfg);

    // nprobe >= every shard's list count degenerates to exhaustive
    // per shard, so the merged answer must equal the global
    // filtered scan bit-for-bit.
    RagSearchParams p{64, 0x0027};
    std::vector<std::vector<int16_t>> qs;
    for (uint64_t id = 1; id <= 6; ++id) {
        qs.push_back(genQueryForTopic(
            spec, static_cast<size_t>(id % 4), 1100 + id, kSeed));
        ASSERT_TRUE(router.admit(id, qs.back(), 0.0, p).ok());
    }

    auto outs = router.drain();
    ASSERT_EQ(outs.size(), 6u);
    EXPECT_EQ(router.ledgerOutstanding(), 0u);
    std::sort(outs.begin(), outs.end(),
              [](const fleet::FleetOutcome &a,
                 const fleet::FleetOutcome &b) {
                  return a.id < b.id;
              });
    for (size_t i = 0; i < outs.size(); ++i) {
        ASSERT_TRUE(outs[i].ok) << "query " << outs[i].id;
        auto expect = searchFilteredFlat(global, spec, kSeed,
                                         qs[i].data(), cfg.topK,
                                         p.filterMask);
        expectSameHits(outs[i].hits, expect, "fleet filtered");
    }
}

TEST(IvfFleetTest, EvacuationPreservesSearchParams)
{
    auto spec = clusteredSpec("ivf-evac", 2048, 4);
    auto global = buildFlat(spec, kSeed);

    fleet::FleetConfig cfg;
    cfg.devices = 2;
    cfg.replicas = 2;
    cfg.shards = 4;
    cfg.functional = true;
    cfg.topK = 5;
    cfg.server.ivf.enabled = true;
    cfg.server.ivf.build = IvfBuildConfig{4, 512, 3};
    cfg.server.batch.maxLingerAdmissions = 64; // keep in-flight
    fleet::Router router(spec, kSeed, cfg);

    RagSearchParams p{64, 0x001a};
    std::vector<std::vector<int16_t>> qs;
    for (uint64_t id = 1; id <= 4; ++id) {
        qs.push_back(genQueryForTopic(
            spec, static_cast<size_t>(id % 4), 1200 + id, kSeed));
        ASSERT_TRUE(router.admit(id, qs.back(), 0.0, p).ok());
    }

    // Kill a device with the queries still queued: its sub-queries
    // evacuate and replay on replicas carrying the same params.
    router.killDevice(0);
    EXPECT_GT(router.evacuatedQueries(), 0u);

    auto outs = router.drain();
    ASSERT_EQ(outs.size(), 4u);
    std::sort(outs.begin(), outs.end(),
              [](const fleet::FleetOutcome &a,
                 const fleet::FleetOutcome &b) {
                  return a.id < b.id;
              });
    for (size_t i = 0; i < outs.size(); ++i) {
        ASSERT_TRUE(outs[i].ok) << "query " << outs[i].id;
        auto expect = searchFilteredFlat(global, spec, kSeed,
                                         qs[i].data(), cfg.topK,
                                         p.filterMask);
        expectSameHits(outs[i].hits, expect, "post-evacuation");
    }
}

TEST(IvfFleetTest, ReplicasShareTheShardClustering)
{
    // Each shard's clustering is trained once, by the router, and
    // handed to every replica: it equals training over the shard's
    // own rows, and a replica's reset keeps it.
    auto spec = clusteredSpec("ivf-shared", 2048, 4);
    for (bool functional : {true, false}) {
        fleet::FleetConfig cfg;
        cfg.devices = 2;
        cfg.replicas = 2;
        cfg.shards = 4;
        cfg.functional = functional;
        cfg.server.ivf.enabled = true;
        cfg.server.ivf.build = IvfBuildConfig{4, 256, 3};
        fleet::Router router(spec, kSeed, cfg);
        const char *what = functional ? "functional" : "timing-only";
        for (unsigned s = 0; s < router.shards(); ++s) {
            const auto &prio = router.placement()[s];
            ASSERT_EQ(prio.size(), 2u);
            const IvfClustering *cl =
                router.server(prio[0], s)->clustering();
            ASSERT_NE(cl, nullptr);
            EXPECT_EQ(router.server(prio[1], s)->clustering(), cl)
                << what << " shard " << s;

            fleet::ShardRange range =
                fleet::shardChunkRange(spec.numChunks, router.shards(), s);
            RagCorpusSpec shard = spec;
            shard.numChunks = range.numChunks;
            shard.firstChunk = range.firstChunk;
            auto want = IvfClustering::build(shard, kSeed,
                                             cfg.server.ivf.build);
            EXPECT_EQ(cl->centroids(), want.centroids()) << what << s;
            EXPECT_EQ(cl->listOffsets(), want.listOffsets()) << what << s;
            EXPECT_EQ(cl->order(), want.order()) << what << s;

            router.server(prio[1], s)->forceReset();
            EXPECT_EQ(router.server(prio[1], s)->clustering(), cl)
                << what << " shard " << s << " after a reset";
        }
    }
}

TEST(IvfFleetTest, FunctionalRouterGeneratesEachRowOnce)
{
    // serve_functional's fleet shape, at a short dim: each shard's
    // rows are generated once, into its golden; its clustering trains
    // from them, and every replica's retriever stages its exhaustive
    // run and each list from them after checking at most one row.
    auto spec = clusteredSpec("ivf-rows", 4096, 8, 40);
    fleet::FleetConfig cfg;
    cfg.devices = 4;
    cfg.replicas = 2;
    cfg.shards = 8;
    cfg.coresPerDevice = 1;
    cfg.functional = true;
    cfg.topK = 5;
    cfg.server.ivf.enabled = true;
    cfg.server.ivf.build = IvfBuildConfig{4, 512, 3};
    uint64_t before = rowsGenerated();
    fleet::Router router(spec, kSeed, cfg);
    EXPECT_EQ(rowsGenerated() - before, spec.numChunks);

    // An exhaustive and an nprobe = K query on every replica.
    uint64_t servers = 0, id = 0;
    for (unsigned d = 0; d < router.devices(); ++d)
        for (unsigned s = 0; s < router.shards(); ++s) {
            DeviceServer *srv = router.server(d, s);
            if (!srv)
                continue;
            ++servers;
            auto q = genQueryForTopic(spec, s, 1300 + s, kSeed);
            for (RagSearchParams p :
                 {RagSearchParams{}, RagSearchParams{64, 0x005a}})
                ASSERT_TRUE(
                    srv->enqueueAt(++id, q, srv->busySeconds(), p).ok());
            auto outs = srv->drain();
            ASSERT_EQ(outs.size(), 2u);
            for (const ServeOutcome &o : outs)
                EXPECT_TRUE(o.ok && o.fromDevice) << "query " << o.id;
        }
    EXPECT_EQ(servers, 16u);
    EXPECT_LE(rowsGenerated() - before, spec.numChunks + servers);
}
