/**
 * @file
 * RAG retrieval kernel tests: every variant returns the exact
 * FAISS-lite top-k on small corpora; paper-scale timing reproduces
 * the Table 8 stage structure and the optimization speedups.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <optional>

#include "baseline/faisslite.hh"
#include "baseline/ivf.hh"
#include "baseline/workloads.hh"
#include "kernels/rag.hh"
#include "kernels/rag_model.hh"
#include "common/gsifloat.hh"
#include "common/json.hh"
#include "common/metrics.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::kernels;

namespace {

constexpr RagVariant allVariants[] = {
    RagVariant::NoOpt, RagVariant::Opt1, RagVariant::Opt2,
    RagVariant::Opt3, RagVariant::AllOpts,
};

std::vector<Hit>
referenceTopK(const RagCorpusSpec &spec, uint64_t seed,
              const std::vector<int16_t> &query, size_t k)
{
    IndexFlatI16 idx(spec.dim,
                     genEmbeddings(spec, 0, spec.numChunks, seed));
    return idx.search(query.data(), k);
}

} // namespace

// ---- exact simulated-number pins -----------------------------------
//
// Every cycle charge is an integer, so each simulated number a
// retrieval entry point reports is exact: the six Table 8 stage
// fields and the core's cycle and uop totals must reproduce these
// values bit for bit (== on doubles) through any restructuring of
// the kernels. Functional pins also fix the returned hits through a
// digest of their ids and scores.

namespace {

/** Stage fields, then CycleStats cycles and uops. */
using SimPin = std::array<double, 8>;

constexpr uint64_t kPinSeed = 4099;

SimPin
simPin(const RagRunResult &r, apu::ApuDevice &dev)
{
    const RagStageLatency &s = r.stages;
    const apu::CycleStats &st = dev.core(0).stats();
    return {s.loadEmbedding, s.loadQuery, s.calcDistance,
            s.topkAggregation, s.returnTopk, s.overlapHidden,
            st.cycles(), st.uops()};
}

/** FNV-1a over every result's (id, score) hits, in rank order. */
uint64_t
hitDigest(const std::vector<RagRunResult> &results)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mixIn = [&](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    for (const RagRunResult &r : results) {
        mixIn(r.hits.size());
        for (const Hit &hit : r.hits) {
            uint32_t bits;
            std::memcpy(&bits, &hit.score, sizeof(bits));
            mixIn(hit.id);
            mixIn(bits);
        }
    }
    return h;
}

void
expectPin(const SimPin &got, const SimPin &want,
          const std::string &what)
{
    static const char *const names[] = {
        "loadEmbedding", "loadQuery",     "calcDistance",
        "topkAggregation", "returnTopk", "overlapHidden",
        "cycles",        "uops"};
    for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], want[i]) << what << " " << names[i];
}

/** A fresh device, HBM model and top-5 retriever on core 0. */
struct PinRig
{
    PinRig(const RagCorpusSpec &spec, bool functional)
        : hbm(dram::hbm2eConfig()), r(dev, hbm, spec, 5)
    {
        if (!functional)
            dev.core(0).setMode(apu::ExecMode::TimingOnly);
    }

    apu::ApuDevice dev;
    dram::DramSystem hbm;
    RagRetriever r;
};

/** Batch call; every per-query result carries the same stages. */
SimPin
batchPin(PinRig &rig, const std::vector<std::vector<int16_t>> &qs,
         const RagBatchOptions &opts, uint64_t *digest = nullptr)
{
    auto res = rig.r.retrieveBatch(qs, kPinSeed, opts);
    EXPECT_EQ(res.size(), qs.size());
    for (const RagRunResult &x : res) {
        EXPECT_EQ(x.stages.total(), res[0].stages.total());
        EXPECT_EQ(x.dramBytes, res[0].dramBytes);
    }
    if (digest)
        *digest = hitDigest(res);
    return simPin(res[0], rig.dev);
}

std::vector<std::vector<int16_t>>
pinQueries(const RagCorpusSpec &spec, size_t n)
{
    std::vector<std::vector<int16_t>> qs;
    for (size_t q = 0; q < n; ++q)
        qs.push_back(spec.topics
                         ? genQueryForTopic(spec, q % spec.topics,
                                            900 + q, kPinSeed)
                         : genQuery(spec.dim, 900 + q));
    return qs;
}

/**
 * retrieve() on a functional 40 000-chunk corpus (two supertiles, a
 * ragged 7232-chunk tail), by RagVariant. Op latencies are
 * data-independent, so any corpus and query of this shape must
 * reproduce them.
 */
const SimPin &
raggedMappingPin(RagVariant v)
{
    static const SimPin pins[] = {
        {0x1.bfbb138efb2d3p-14, 0x1.cac195f32d1ap-19,
         0x1.07d308253d7c4p-7, 0x1.75cbdf111d08dp-17,
         0x1.d5c31593e5fb8p-17, 0x0p+0,
         0x1.ed2778p+21, 0x1.9f5p+13}, // NoOpt
        {0x1.41e6d259a6b79p-14, 0x1.b43526527a206p-19,
         0x1.ee586b599ddebp-10, 0x1.73c879abe87bbp-17,
         0x1.d5c31593e5fb8p-17, 0x0p+0,
         0x1.d34fcp+19, 0x1.84cp+11}, // Opt1
        {0x1.bfbb138efb2d3p-14, 0x1.cac195f32d1ap-19,
         0x1.f933ddfdf7922p-8, 0x1.75cbdf111d08dp-17,
         0x1.d5c31593e5fb8p-17, 0x0p+0,
         0x1.d83fe8p+21, 0x1.9f5p+13}, // Opt2
        {0x1.bfbb138efb2d3p-14, 0x1.cac195f32d1ap-19,
         0x1.07d308253d7c4p-7, 0x1.75cbdf111d08dp-17,
         0x1.d5c31593e5fb8p-17, 0x0p+0,
         0x1.ed2778p+21, 0x1.9f5p+13}, // Opt3
        {0x1.41e6d259a6b79p-14, 0x1.68914a25fa20ep-14,
         0x1.69fd6c1e58a81p-10, 0x1.73c879abe87bbp-17,
         0x1.d5c31593e5fb8p-17, 0x0p+0,
         0x1.6c3d8p+19, 0x1.84cp+11}, // AllOpts
    };
    return pins[static_cast<size_t>(v)];
}

/** Two supertiles plus a ragged 7232-chunk tail. */
RagCorpusSpec
raggedSpec(size_t topics = 0)
{
    return RagCorpusSpec{"ragged", 0, 40000, 368, 0, topics};
}

} // namespace

class RagFunctional : public ::testing::TestWithParam<RagVariant>
{
};

TEST_P(RagFunctional, TopKMatchesFaissLite)
{
    RagCorpusSpec spec{"small", 0, 2000, 368};
    auto query = genQuery(spec.dim, 31);
    auto expect = referenceTopK(spec, 17, query, 5);

    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto got = retriever.retrieve(query, GetParam(), 17);

    ASSERT_EQ(got.hits.size(), expect.size())
        << ragVariantName(GetParam());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got.hits[i].id, expect[i].id) << i;
        EXPECT_FLOAT_EQ(got.hits[i].score, expect[i].score) << i;
    }
}

TEST_P(RagFunctional, MultiTileCorpus)
{
    // Spans two score VRs / super-tiles (> 32768 chunks).
    RagCorpusSpec spec{"two-tiles", 0, 40000, 368};
    auto query = genQuery(spec.dim, 32);
    auto expect = referenceTopK(spec, 18, query, 5);
    std::string what = ragVariantName(GetParam());

    PinRig rig(spec, true);
    auto got = rig.r.retrieve(query, GetParam(), 18);

    ASSERT_EQ(got.hits.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got.hits[i].id, expect[i].id) << what << " " << i;
        EXPECT_FLOAT_EQ(got.hits[i].score, expect[i].score) << i;
    }
    expectPin(simPin(got, rig.dev), raggedMappingPin(GetParam()), what);

    // TimingOnly evaluates no lanes but must charge the same.
    PinRig timing(spec, false);
    expectPin(simPin(timing.r.retrieve(query, GetParam(), 18), timing.dev),
              raggedMappingPin(GetParam()), what + " TimingOnly");
}

INSTANTIATE_TEST_SUITE_P(
    Variants, RagFunctional, ::testing::ValuesIn(allVariants),
    [](const ::testing::TestParamInfo<RagVariant> &info) {
        std::string name = ragVariantName(info.param);
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(RagBatch, EachQueryExactAgainstSingleRetrieval)
{
    RagCorpusSpec spec{"batch", 0, 5000, 368};
    std::vector<std::vector<int16_t>> queries;
    for (size_t q = 0; q < 4; ++q)
        queries.push_back(genQuery(spec.dim, 100 + q));

    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto batch = retriever.retrieveBatch(queries, 55);
    ASSERT_EQ(batch.size(), queries.size());

    for (size_t q = 0; q < queries.size(); ++q) {
        auto expect = referenceTopK(spec, 55, queries[q], 5);
        ASSERT_EQ(batch[q].hits.size(), expect.size()) << q;
        for (size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(batch[q].hits[i].id, expect[i].id)
                << q << "/" << i;
            EXPECT_FLOAT_EQ(batch[q].hits[i].score,
                            expect[i].score);
        }
    }
}

TEST(RagBatch, AmortizesPerQueryLatency)
{
    const auto &spec = ragCorpora()[0];
    auto run_batch = [&](size_t n) {
        apu::ApuDevice dev;
        dev.core(0).setMode(apu::ExecMode::TimingOnly);
        dram::DramSystem hbm(dram::hbm2eConfig());
        RagRetriever retriever(dev, hbm, spec, 5);
        std::vector<std::vector<int16_t>> queries(
            n, genQuery(spec.dim, 1));
        return retriever.retrieveBatch(queries, 1)[0]
            .stages.total();
    };
    double b1 = run_batch(1);
    double b8 = run_batch(8);
    EXPECT_LT(b8, b1 * 0.6); // at least 1.6x amortization
    EXPECT_GT(b8, b1 / 8.0); // but not a free lunch
}

TEST(RagBatch, RejectsOversizedBatch)
{
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    std::vector<std::vector<int16_t>> queries(
        9, genQuery(spec.dim, 1));
    EXPECT_DEATH((void)retriever.retrieveBatch(queries, 1),
                 "batch size");
}

TEST(RagBatch, RejectsNprobeWithoutClustering)
{
    // Probing needs a clustering; without one the batch dies naming
    // both fields instead of silently scanning exhaustively.
    const auto &spec = ragCorpora()[0];
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    RagBatchOptions opts;
    opts.search.nprobe = 2;
    EXPECT_DEATH((void)retriever.retrieveBatch(
                     {genQuery(spec.dim, 1)}, 1, opts),
                 "RagBatchOptions::search.nprobe = 2 probes inverted "
                 "lists, but RagBatchOptions::ivf holds no clustering");
}

namespace {

RagRunResult
timedRetrieve(const RagCorpusSpec &spec, RagVariant v)
{
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto query = genQuery(spec.dim, 1);
    return retriever.retrieve(query, v, 1);
}

} // namespace

TEST(RagTiming, Table8ShapeAt200GB)
{
    const auto &spec = ragCorpora()[2]; // 200 GB
    auto noopt = timedRetrieve(spec, RagVariant::NoOpt);
    auto all = timedRetrieve(spec, RagVariant::AllOpts);

    // Paper Table 8 at 200 GB (ms): load 8.2 -> 6.1, distance
    // 527.9 -> 74.6, topk ~1.3, return ~15 us, total 539.2 -> 84.2.
    EXPECT_NEAR(noopt.stages.loadEmbedding * 1e3, 8.2, 2.5);
    EXPECT_NEAR(all.stages.loadEmbedding * 1e3, 6.1, 2.0);
    EXPECT_GT(noopt.stages.loadEmbedding,
              all.stages.loadEmbedding);

    EXPECT_NEAR(noopt.stages.calcDistance * 1e3, 527.9, 250.0);
    EXPECT_NEAR(all.stages.calcDistance * 1e3, 74.6, 40.0);

    EXPECT_NEAR(noopt.stages.topkAggregation * 1e3, 1.3, 4.0);
    EXPECT_NEAR(all.stages.returnTopk * 1e6, 15.0, 10.0);

    // Total speedup: paper 539.2 / 84.2 = 6.4x; require 4-12x.
    double speedup = noopt.stages.total() / all.stages.total();
    EXPECT_GT(speedup, 4.0);
    EXPECT_LT(speedup, 12.0);
}

TEST(RagTiming, ScalesAcrossCorpora)
{
    // Paper: all-opts retrieval 3.9 / 20.6 / 84.2 ms.
    const double paper_ms[] = {3.9, 20.6, 84.2};
    size_t i = 0;
    double prev = 0.0;
    for (const auto &spec : ragCorpora()) {
        auto r = timedRetrieve(spec, RagVariant::AllOpts);
        double ms = r.stages.total() * 1e3;
        EXPECT_GT(ms, prev);
        EXPECT_NEAR(ms, paper_ms[i], paper_ms[i] * 0.6)
            << spec.label;
        prev = ms;
        ++i;
    }
}

TEST(RagTiming, Opt1DeliversMostOfTheGain)
{
    // Section 5.3.4: opt1 cuts 539.2 -> 86.1 ms; opt2/opt3 are
    // modest standalone but compound with opt1.
    const auto &spec = ragCorpora()[2];
    double noopt = timedRetrieve(spec, RagVariant::NoOpt)
                       .stages.total();
    double o1 = timedRetrieve(spec, RagVariant::Opt1)
                    .stages.total();
    double o2 = timedRetrieve(spec, RagVariant::Opt2)
                    .stages.total();
    double o3 = timedRetrieve(spec, RagVariant::Opt3)
                    .stages.total();
    double all = timedRetrieve(spec, RagVariant::AllOpts)
                     .stages.total();

    EXPECT_GT(noopt / o1, 4.0);           // opt1: large gain
    EXPECT_LT(noopt / o2, 1.5);           // opt2 alone: modest
    EXPECT_LT(noopt / o3, 1.1);           // opt3 alone: ~nothing
    EXPECT_LT(all, o1);                   // all opts best
    EXPECT_GT(noopt / all, 5.0);
}

TEST(RagTiming, QueryLoadSlowerWithBroadcastLayout)
{
    // Table 8: load query grows from ~10 us (no-opt) to ~62 us
    // (all-opts) because the query is staged into L3.
    const auto &spec = ragCorpora()[0];
    auto noopt = timedRetrieve(spec, RagVariant::NoOpt);
    auto all = timedRetrieve(spec, RagVariant::AllOpts);
    EXPECT_LT(noopt.stages.loadQuery * 1e6, 30.0);
    EXPECT_GT(all.stages.loadQuery * 1e6, 40.0);
    EXPECT_LT(all.stages.loadQuery * 1e6, 150.0);
}

TEST(RagTiming, ActivityForEnergyModel)
{
    const auto &spec = ragCorpora()[2];
    auto r = timedRetrieve(spec, RagVariant::AllOpts);
    EXPECT_NEAR(r.dramBytes, 2.4e9, 0.1e9);
    EXPECT_GT(r.cacheBytes, r.dramBytes);
    EXPECT_GT(r.computeSeconds, 0.0);
    EXPECT_LE(r.computeSeconds, r.stages.total());
}

TEST(RagModel, FrameworkTracksSimulatorOnDeviceStages)
{
    apu::ApuDevice cal;
    model::SubgroupReductionModel sg;
    sg.calibrate(cal.core(0));
    model::LatencyEstimator est;
    est.setSgModel(sg);

    for (const auto &spec : ragCorpora()) {
        for (auto v : {RagVariant::NoOpt, RagVariant::Opt1,
                       RagVariant::AllOpts}) {
            auto r = timedRetrieve(spec, v);
            // On-device stages only: everything but the HBM stream.
            double meas =
                (r.stages.total() - r.stages.loadEmbedding) *
                500.0e6;
            double pred = predictRagCycles(est, spec, v);
            EXPECT_NEAR(pred, meas, meas * 0.10)
                << spec.label << " " << ragVariantName(v);
        }
    }
}

namespace {

/** Host emulation of the gf16 accumulation the kernel performs. */
std::vector<Hit>
gf16ReferenceTopK(const RagCorpusSpec &spec, uint64_t seed,
                  const std::vector<int16_t> &query, size_t k)
{
    std::vector<Hit> all;
    for (size_t c = 0; c < spec.numChunks; ++c) {
        GsiFloat16 acc = GsiFloat16::fromFloat(0.0f);
        for (size_t d = 0; d < spec.dim; ++d) {
            GsiFloat16 e = GsiFloat16::fromFloat(
                static_cast<float>(embeddingValue(c, d, seed)));
            GsiFloat16 q = GsiFloat16::fromFloat(
                static_cast<float>(query[d]));
            acc = acc + e * q;
        }
        all.push_back({acc.toFloat(), c});
    }
    std::sort(all.begin(), all.end(), [](const Hit &a, const Hit &b) {
        if (a.score != b.score)
            return a.score > b.score;
        return a.id < b.id;
    });
    all.resize(std::min(k, all.size()));
    return all;
}

} // namespace

TEST(RagGf16, TopKMatchesGf16Emulation)
{
    RagCorpusSpec spec{"gf16", 0, 3000, 368};
    auto query = genQuery(spec.dim, 61);
    auto expect = gf16ReferenceTopK(spec, 62, query, 5);

    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto got = retriever.retrieveGf16(query, 62);

    ASSERT_EQ(got.hits.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(got.hits[i].id, expect[i].id) << i;
        EXPECT_FLOAT_EQ(got.hits[i].score, expect[i].score) << i;
    }
}

TEST(RagGf16, RaggedSupertileKeepsNegativeScoreHits)
{
    // Eight rows in a 32 768-lane supertile: the padding lanes hold
    // gf16 +0.0, whose order key outranks every negative score, so
    // they must be masked before extraction or they use up winners.
    RagCorpusSpec spec{"gf16tiny", 0, 8, 368};
    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    for (uint64_t qseed = 61; qseed <= 68; ++qseed) {
        auto query = genQuery(spec.dim, qseed);
        auto expect = gf16ReferenceTopK(spec, 62, query, 5);
        auto got = retriever.retrieveGf16(query, 62);
        ASSERT_EQ(got.hits.size(), expect.size()) << "query " << qseed;
        for (size_t i = 0; i < expect.size(); ++i) {
            EXPECT_EQ(got.hits[i].id, expect[i].id)
                << "query " << qseed << " hit " << i;
            EXPECT_FLOAT_EQ(got.hits[i].score, expect[i].score)
                << "query " << qseed << " hit " << i;
        }
    }
}

TEST(RagGf16, CloseToExactIntegerRanking)
{
    // gf16's 9-bit mantissa rounds large dot products; the top hit
    // should still be the exact top hit on realistic data.
    RagCorpusSpec spec{"gf16b", 0, 3000, 368};
    auto query = genQuery(spec.dim, 63);
    auto exact = referenceTopK(spec, 64, query, 5);

    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, 5);
    auto got = retriever.retrieveGf16(query, 64);

    ASSERT_FALSE(got.hits.empty());
    EXPECT_EQ(got.hits[0].id, exact[0].id);
    // Rounded score within gf16 tolerance of the exact dot.
    EXPECT_NEAR(got.hits[0].score, exact[0].score,
                std::fabs(exact[0].score) * 0.02 + 8.0);
}

TEST(RagGf16, FasterDistanceThanInt16)
{
    // mul_gf16 (77) + add_gf16 vs mul_s16 (201) + add_s16: the
    // native float path wins on compute (Table 5).
    const auto &spec = ragCorpora()[2];
    apu::ApuDevice d1, d2;
    d1.core(0).setMode(apu::ExecMode::TimingOnly);
    d2.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem h1(dram::hbm2eConfig()), h2(dram::hbm2eConfig());
    RagRetriever r1(d1, h1, spec, 5), r2(d2, h2, spec, 5);
    auto q = genQuery(spec.dim, 1);
    double int_dist =
        r1.retrieve(q, RagVariant::AllOpts, 1).stages.calcDistance;
    double gf_dist = r2.retrieveGf16(q, 1).stages.calcDistance;
    EXPECT_LT(gf_dist, int_dist);
    EXPECT_GT(gf_dist, int_dist * 0.5);
}

TEST(RagPins, RetrieveTimingOnlyEveryMappingAndCorpus)
{
    struct Row
    {
        size_t corpus;
        RagVariant v;
        SimPin want;
    };
    const Row rows[] = {
        {0, RagVariant::NoOpt,
         {0x1.c7fdcd43a37c1p-12, 0x1.cac195f32d1ap-19,
          0x1.0cc6867b7382ap-5, 0x1.d33ed6d5644b1p-16,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.f552f8p+23, 0x1.a50ep+15}},
        {0, RagVariant::Opt1,
         {0x1.47be6b889d813p-12, 0x1.b43526527a206p-19,
          0x1.34f681d1fcb78p-8, 0x1.d0ba9816e29aap-16,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.227cd8p+21, 0x1.e5cp+12}},
        {0, RagVariant::Opt2,
         {0x1.c7fdcd43a37c1p-12, 0x1.cac195f32d1ap-19,
          0x1.015769af824a6p-5, 0x1.d33ed6d5644b1p-16,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.e006ccp+23, 0x1.a50ep+15}},
        {0, RagVariant::Opt3,
         {0x1.c7fdcd43a37c1p-12, 0x1.cac195f32d1ap-19,
          0x1.0cc6867b7382ap-5, 0x1.d33ed6d5644b1p-16,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.f552f8p+23, 0x1.a50ep+15}},
        {0, RagVariant::AllOpts,
         {0x1.47be6b889d813p-12, 0x1.68914a25fa20ep-14,
          0x1.c47b4499e2eaap-9, 0x1.d0ba9816e29aap-16,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.b4fd9p+20, 0x1.e5cp+12}},
        {1, RagVariant::NoOpt,
         {0x1.1e64b48d3ae67p-9, 0x1.cac195f32d1ap-19,
          0x1.519ce188d7bbbp-3, 0x1.240746455eaeep-13,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.3ab9aa8p+26, 0x1.086b4p+18}},
        {1, RagVariant::Opt1,
         {0x1.9bb0c38b04ab4p-10, 0x1.b43526527a206p-19,
          0x1.8233a16d22983p-6, 0x1.22749f0e4da0ap-13,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.6a0e0ep+23, 0x1.2f88p+15}},
        {1, RagVariant::Opt2,
         {0x1.1e64b48d3ae67p-9, 0x1.cac195f32d1ap-19,
          0x1.43402d5b71af9p-3, 0x1.240746455eaeep-13,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.2d5978p+26, 0x1.086b4p+18}},
        {1, RagVariant::Opt3,
         {0x1.1e64b48d3ae67p-9, 0x1.cac195f32d1ap-19,
          0x1.519ce188d7bbbp-3, 0x1.240746455eaeep-13,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.3ab9aa8p+26, 0x1.086b4p+18}},
        {1, RagVariant::AllOpts,
         {0x1.9bb0c38b04ab4p-10, 0x1.68914a25fa20ep-14,
          0x1.1acc8a06d4858p-6, 0x1.22749f0e4da0ap-13,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.0b040ap+23, 0x1.2f88p+15}},
        {2, RagVariant::NoOpt,
         {0x1.207dd2f1a9fbep-7, 0x1.cac195f32d1ap-19,
          0x1.54160b964765ep-1, 0x1.26f2de0380e9p-11,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.3d01a5cp+28, 0x1.0a5bfp+20}},
        {2, RagVariant::Opt1,
         {0x1.9eb4df3b645ap-8, 0x1.b43526527a206p-19,
          0x1.861036144a4b1p-4, 0x1.255c3001a571ap-11,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.6d799d8p+25, 0x1.328ep+17}},
        {2, RagVariant::Opt2,
         {0x1.207dd2f1a9fbep-7, 0x1.cac195f32d1ap-19,
          0x1.459e67f95255bp-1, 0x1.26f2de0380e9p-11,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.2f885d6p+28, 0x1.0a5bfp+20}},
        {2, RagVariant::Opt3,
         {0x1.207dd2f1a9fbep-7, 0x1.cac195f32d1ap-19,
          0x1.54160b964765ep-1, 0x1.26f2de0380e9p-11,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.3d01a5cp+28, 0x1.0a5bfp+20}},
        {2, RagVariant::AllOpts,
         {0x1.9eb4df3b645ap-8, 0x1.68914a25fa20ep-14,
          0x1.1da068af85adfp-4, 0x1.255c3001a571ap-11,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.0c86bc8p+25, 0x1.328ep+17}},
    };
    for (const Row &row : rows) {
        const RagCorpusSpec &spec = ragCorpora()[row.corpus];
        PinRig rig(spec, false);
        auto r = rig.r.retrieve(genQuery(spec.dim, 1), row.v, 1);
        std::string what = spec.label;
        what += " ";
        what += ragVariantName(row.v);
        expectPin(simPin(r, rig.dev), row.want, what);
    }
}

TEST(RagPins, Gf16TimingOnly200GB)
{
    const RagCorpusSpec &spec = ragCorpora()[2];
    PinRig rig(spec, false);
    auto r = rig.r.retrieveGf16(genQuery(spec.dim, 1), 1);
    expectPin(simPin(r, rig.dev),
              {0x1.9eb4df3b645ap-8, 0x1.5aefa0f3664fdp-14,
               0x1.0b6815be0259ap-4, 0x1.255c3001a571ap-11,
               0x1.d5c31593e5fb8p-17, 0x0p+0,
               0x1.f71725p+24, 0x1.3358p+17},
              "gf16 200GB");
}

TEST(RagPins, BatchTimingOnly200GB)
{
    struct Row
    {
        size_t batch;
        bool overlap;
        uint16_t filter;
        SimPin want;
    };
    const Row rows[] = {
        {1, false, kFilterAll,
         {0x1.9eb4df3b645ap-8, 0x1.5aefa0f3664fdp-14,
          0x1.1e32c57186219p-4, 0x1.286e6f5a92031p-11,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.0d1198p+25, 0x1.32f28p+17}},
        {1, false, 0x5a,
         {0x1.9fd55d0e5604p-8, 0x1.5aefa0f3664fdp-14,
          0x1.1e32c57186219p-4, 0x1.286e6f5a92031p-11,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.0d1198p+25, 0x1.32f28p+17}},
        {1, true, kFilterAll,
         {0x1.9eb4df3b645ap-8, 0x1.5aefa0f3664fdp-14,
          0x1.1e32c57186219p-4, 0x1.286e6f5a92031p-11,
          0x1.d5c31593e5fb8p-17, 0x1.9169c5322cc2p-8,
          0x1.0d1198p+25, 0x1.32f28p+17}},
        {1, true, 0x5a,
         {0x1.9fd55d0e5604p-8, 0x1.5aefa0f3664fdp-14,
          0x1.1e32c57186219p-4, 0x1.286e6f5a92031p-11,
          0x1.d5c31593e5fb8p-17, 0x1.928767cb4496p-8,
          0x1.0d1198p+25, 0x1.32f28p+17}},
        {8, false, kFilterAll,
         {0x1.9eb4df3b645ap-11, 0x1.6312b0171ab5p-17,
          0x1.87723d67c818fp-6, 0x1.286e6f5a92031p-11,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.7590abp+26, 0x1.e681cp+19}},
        {8, false, 0x5a,
         {0x1.9fd55d0e5604p-11, 0x1.6312b0171ab5p-17,
          0x1.87723d67c818fp-6, 0x1.286e6f5a92031p-11,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.7590abp+26, 0x1.e681cp+19}},
        {8, true, kFilterAll,
         {0x1.9eb4df3b645ap-11, 0x1.6312b0171ab5p-17,
          0x1.87723d67c818fp-6, 0x1.286e6f5a92031p-11,
          0x1.d5c31593e5fb8p-17, 0x1.9169c5322cc2p-11,
          0x1.7590abp+26, 0x1.e681cp+19}},
        {8, true, 0x5a,
         {0x1.9fd55d0e5604p-11, 0x1.6312b0171ab5p-17,
          0x1.87723d67c818fp-6, 0x1.286e6f5a92031p-11,
          0x1.d5c31593e5fb8p-17, 0x1.928767cb4494p-11,
          0x1.7590abp+26, 0x1.e681cp+19}},
    };
    const RagCorpusSpec &spec = ragCorpora()[2];
    for (const Row &row : rows) {
        PinRig rig(spec, false);
        RagBatchOptions o;
        o.overlapStream = row.overlap;
        o.search.filterMask = row.filter;
        std::string what = "b";
        what += std::to_string(row.batch);
        what += row.overlap ? " overlap" : "";
        what += row.filter != kFilterAll ? " filtered" : "";
        expectPin(batchPin(rig, pinQueries(spec, row.batch), o),
                  row.want, what);
    }
}

TEST(RagPins, IvfTimingOnlyListsSpanSupertiles)
{
    // Four lists over 200 K clustered chunks: every list holds more
    // than 32 K chunks, so each probed list streams as a run of
    // several supertiles with a ragged tail.
    RagCorpusSpec spec{"ivf-200k", 0, 200000, 368, 0, 16};
    auto cl = IvfClustering::build(spec, kPinSeed, {4, 16384, 4});
    for (size_t list = 0; list < cl.numLists(); ++list)
        ASSERT_GT(cl.listSize(list), 32768u) << list;
    struct Row
    {
        size_t batch;
        size_t nprobe;
        bool overlap;
        uint16_t filter;
        SimPin want;
    };
    const Row rows[] = {
        {1, 1, false, kFilterAll,
         {0x1.2e31aab1022a1p-14, 0x1.5aefa0f3664fdp-14,
          0x1.1008ae1bd4136p-9, 0x1.a42b2934bdde1p-17,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.0aafap+20, 0x1.1fdp+12}},
        {8, 1, true, kFilterAll,
         {0x1.9225d04984027p-15, 0x1.6312b0171ab5p-17,
          0x1.47dba9e7f900cp-10, 0x1.fc37263a84e9cp-17,
          0x1.d5c31593e5fb8p-17, 0x1.585da654643cp-15,
          0x1.3b0a74p+22, 0x1.1c7ep+15}},
        {8, 2, true, 0x5a,
         {0x1.933d901dd332ep-15, 0x1.6312b0171ab5p-17,
          0x1.a1c86b82f4ab6p-10, 0x1.cbdd0db7a39adp-16,
          0x1.d5c31593e5fb8p-17, 0x1.595650d838d8p-15,
          0x1.91c8b4p+22, 0x1.b1dep+15}},
        {4, 4, false, kFilterAll,
         {0x1.9225d04984027p-14, 0x1.5e30da34e1ab8p-16,
          0x1.8b4d3b1c35c0bp-9, 0x1.cb607fe150814p-15,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.7b185cp+22, 0x1.8f46p+15}},
    };
    for (const Row &row : rows) {
        PinRig rig(spec, false);
        RagBatchOptions o;
        o.overlapStream = row.overlap;
        o.search = {row.nprobe, row.filter};
        o.ivf = &cl;
        std::string what = "b";
        what += std::to_string(row.batch);
        what += " nprobe ";
        what += std::to_string(row.nprobe);
        expectPin(batchPin(rig, pinQueries(spec, row.batch), o),
                  row.want, what);
    }
}

TEST(RagPins, FunctionalRaggedGf16)
{
    // The five retrieve() mappings are pinned by
    // RagFunctional.MultiTileCorpus on the same shape. Every
    // functional pin row here also runs on a TimingOnly rig, which
    // evaluates no lanes but must charge the same (the ragged last
    // supertile's mask included).
    const RagCorpusSpec spec = raggedSpec();
    const SimPin want = {0x1.41e6d259a6b79p-14, 0x1.5aefa0f3664fdp-14,
                         0x1.5342f319bd965p-10, 0x1.73c879abe87bbp-17,
                         0x1.d5c31593e5fb8p-17, 0x0p+0,
                         0x1.56478p+19, 0x1.85cp+11};
    auto q = genQuery(spec.dim, 77);
    PinRig rig(spec, true), timing(spec, false);
    auto r = rig.r.retrieveGf16(q, kPinSeed);
    EXPECT_EQ(hitDigest({r}), 0x4100756d82669a13ull);
    expectPin(simPin(r, rig.dev), want, "gf16");
    expectPin(simPin(timing.r.retrieveGf16(q, kPinSeed), timing.dev),
              want, "gf16 TimingOnly");
}

TEST(RagPins, FunctionalRaggedBatch)
{
    const RagCorpusSpec spec = raggedSpec();
    struct Row
    {
        size_t batch;
        bool overlap;
        uint16_t filter;
        uint64_t digest;
        SimPin want;
    };
    const Row rows[] = {
        {1, false, kFilterAll, 0x342e20f4d43ea1d4ull,
         {0x1.41e6d259a6b79p-14, 0x1.5aefa0f3664fdp-14,
          0x1.6ab6e946e72b6p-10, 0x1.77ace85e81485p-17,
          0x1.d5c31593e5fb8p-17, 0x0p+0,
          0x1.6c266p+19, 0x1.852p+11}},
        {8, true, kFilterAll, 0xb6e4d912cc8c88b7ull,
         {0x1.41e6d259a6b79p-17, 0x1.6312b0171ab5p-17,
          0x1.f0181a41e46acp-12, 0x1.77ace85e81485p-17,
          0x1.d5c31593e5fb8p-17, 0x1.2a9d6835fa14p-18,
          0x1.f0f69p+20, 0x1.344cp+14}},
        {3, true, 0x5a, 0xa23c19f2e53b1c88ull,
         {0x1.ae5f749c939a4p-16, 0x1.d1d60fdb591b7p-16,
          0x1.69b59da89455cp-11, 0x1.77ace85e81485p-17,
          0x1.d5c31593e5fb8p-17, 0x1.8f52e717ad6abp-17,
          0x1.100bep+20, 0x1.eb5p+12}},
    };
    for (const Row &row : rows) {
        PinRig rig(spec, true);
        RagBatchOptions o;
        o.overlapStream = row.overlap;
        o.search.filterMask = row.filter;
        uint64_t digest = 0;
        std::string what = "b";
        what += std::to_string(row.batch);
        what += row.filter != kFilterAll ? " filtered" : "";
        expectPin(batchPin(rig, pinQueries(spec, row.batch), o,
                           &digest),
                  row.want, what);
        EXPECT_EQ(digest, row.digest) << what;
        PinRig timing(spec, false);
        expectPin(batchPin(timing, pinQueries(spec, row.batch), o),
                  row.want, what + " TimingOnly");
    }
}

TEST(RagPins, FunctionalRaggedEpochOverlay)
{
    // Epoch 1 over the ragged corpus: inserts append fresh global
    // ids past the base corpus, deletes tombstone base and inserted
    // chunks on both sides of the supertile boundary.
    CorpusEpochView view;
    view.epoch = 1;
    view.baseChunks = 40000;
    for (uint64_t i = 0; i < 300; ++i)
        view.inserted.push_back(1000000 + 3 * i);
    view.deleted = {5, 32767, 32768, 39999, 1000000 + 3 * 7};
    RagCorpusSpec spec = raggedSpec();
    spec.numChunks = view.baseChunks + view.inserted.size();
    spec.epochView = &view;

    const SimPin want = {0x1.b19816d81ae28p-16, 0x1.d1d60fdb591b7p-16,
                         0x1.69b59da89455cp-11, 0x1.77ace85e81485p-17,
                         0x1.d5c31593e5fb8p-17, 0x1.928b895334bp-17,
                         0x1.100bep+20, 0x1.eb5p+12};
    PinRig rig(spec, true), timing(spec, false);
    RagBatchOptions o;
    o.overlapStream = true;
    uint64_t digest = 0;
    expectPin(batchPin(rig, pinQueries(spec, 3), o, &digest), want,
              "epoch overlay");
    EXPECT_EQ(digest, 0x192149aaf02f4449ull);
    expectPin(batchPin(timing, pinQueries(spec, 3), o), want,
              "epoch overlay TimingOnly");
}

TEST(RagPins, FunctionalRaggedIvf)
{
    const RagCorpusSpec spec = raggedSpec(4);
    auto cl = IvfClustering::build(spec, kPinSeed, {4, 8192, 4});
    struct Row
    {
        size_t batch;
        size_t nprobe;
        uint16_t filter;
        uint64_t digest;
        SimPin want;
    };
    const Row rows[] = {
        {2, 1, kFilterAll, 0x68b12cb968771199ull,
         {0x1.415b3c38e87cp-16, 0x1.5bbfef43c526cp-15,
          0x1.2683de8292fe1p-10, 0x1.c9f36d644b47fp-18,
          0x1.d5c31593e5fb8p-17, 0x1.12c867f18f38p-17,
          0x1.217e5p+20, 0x1.66p+12}},
        {3, 1, 0x5a, 0x3405db737df8d28aull,
         {0x1.433cbfb14c11ep-16, 0x1.d1d60fdb591b7p-16,
          0x1.0fc8304121999p-10, 0x1.c7b6c3d766395p-18,
          0x1.d5c31593e5fb8p-17, 0x1.8068d5fa617abp-17,
          0x1.8d75p+20, 0x1.06b8p+13}},
        {4, 4, kFilterAll, 0x4b576bd00c2e1fb8ull,
         {0x1.41ef695f9acafp-16, 0x1.5e30da34e1ab8p-16,
          0x1.8b4d7b88e2674p-10, 0x1.c128dd4c7f682p-16,
          0x1.d5c31593e5fb8p-17, 0x1.b45449c80ee8p-17,
          0x1.7f345p+21, 0x1.8ec8p+14}},
    };
    for (const Row &row : rows) {
        PinRig rig(spec, true);
        RagBatchOptions o;
        o.overlapStream = true;
        o.search = {row.nprobe, row.filter};
        o.ivf = &cl;
        uint64_t digest = 0;
        std::string what = "b";
        what += std::to_string(row.batch);
        what += " nprobe ";
        what += std::to_string(row.nprobe);
        expectPin(batchPin(rig, pinQueries(spec, row.batch), o,
                           &digest),
                  row.want, what);
        EXPECT_EQ(digest, row.digest) << what;
        PinRig timing(spec, false);
        expectPin(batchPin(timing, pinQueries(spec, row.batch), o),
                  row.want, what + " TimingOnly");
    }
}

TEST(RagModes, OpIssueCountsMatchAcrossModes)
{
    // sim.op.issues counts simulated issues: a charge under a repeat
    // scope of n counts n. So a Functional run, which charges some
    // loops iteration by iteration, and a TimingOnly run, which
    // charges every shape-invariant loop once under a repeat, count
    // the same retrievals alike, op by op.
    const RagCorpusSpec spec = raggedSpec(4);
    auto cl = IvfClustering::build(spec, kPinSeed, {4, 8192, 4});
    const auto q = genQuery(spec.dim, 1);
    std::map<std::string, double> issues[2];
    for (bool functional : {true, false}) {
        PinRig rig(spec, functional);
        auto shard = metrics::Registry::makeShard();
        metrics::ShardScope scope(shard.get());
        bool was = metrics::enabled();
        metrics::setEnabled(true);
        for (RagVariant v : allVariants)
            rig.r.retrieve(q, v, kPinSeed);
        rig.r.retrieveGf16(q, kPinSeed);
        rig.r.retrieveBatch(pinQueries(spec, 1), kPinSeed);
        rig.r.retrieveBatch(pinQueries(spec, 8), kPinSeed);
        RagBatchOptions o;
        o.search = {1, kFilterAll};
        o.ivf = &cl;
        rig.r.retrieveBatch(pinQueries(spec, 3), kPinSeed, o);
        metrics::setEnabled(was);
        const std::string prefix = "sim.op.issues{";
        json::Value snap = shard->toJson();
        for (const auto &[key, value] :
             snap.asObject().find("counters")->asObject())
            if (key.compare(0, prefix.size(), prefix) == 0)
                issues[functional ? 0 : 1][key] = value.asNumber();
    }
    EXPECT_GE(issues[0].size(), 10u);
    for (const auto &[key, n] : issues[0])
        EXPECT_EQ(n, issues[1][key]) << key;
    EXPECT_EQ(issues[0].size(), issues[1].size());
}

TEST(RagBatch, ResidentRunsAreCompactAndStagedOnce)
{
    // One query at nprobe = K probes all four ~10 K-chunk lists: the
    // first call stages the centroid run and the four list runs in
    // exactly rows x dim u16 each (a full-width supertile is
    // (dim + 1) x 32 K lanes) and keeps them; each run's admit plane,
    // one u16 per row, is freed after its scan. A second call stages
    // nothing, and the destructor frees every run.
    const RagCorpusSpec spec = raggedSpec(4);
    auto cl = IvfClustering::build(spec, kPinSeed, {4, 8192, 4});
    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    apu::DramAllocator &mem = dev.allocator();
    size_t baseline = mem.liveCount();
    {
        RagRetriever r(dev, hbm, spec, 5);
        RagBatchOptions o;
        o.search = {4, kFilterAll};
        o.ivf = &cl;
        auto qs = pinQueries(spec, 1);
        size_t live = mem.liveCount();
        uint64_t used = mem.used();
        (void)r.retrieveBatch(qs, kPinSeed, o);
        uint64_t runs = 1 + cl.numLists();
        uint64_t rows = cl.numLists() + spec.numChunks;
        EXPECT_LE(mem.used() - used,
                  rows * spec.dim * 2 + rows * 2 + 2 * runs * 512);
        EXPECT_EQ(mem.liveCount(), live + runs);

        live = mem.liveCount();
        used = mem.used();
        (void)r.retrieveBatch(qs, kPinSeed, o);
        EXPECT_EQ(mem.liveCount(), live);
        EXPECT_EQ(mem.used(), used);
    }
    EXPECT_EQ(mem.liveCount(), baseline);
}

TEST(RagBatch, WarmRetrieverAnswersExactlyLikeAFreshOne)
{
    // Every entry point, twice and interleaved, on one retriever that
    // keeps its staged runs: each call must match the same call on a
    // fresh retriever in its hits, every stage latency and every
    // CycleStats number. One ragged supertile, four topics, and a
    // short dim (padded to 64 by the spatial mapping) to keep the
    // sanitizer copy quick.
    const RagCorpusSpec spec{"warm", 0, 6000, 40, 0, 4};
    // The second clustering is built in the first one's storage, so
    // the retriever must notice new content at the same address.
    std::optional<IvfClustering> cl;
    cl.emplace(IvfClustering::build(spec, kPinSeed, {4, 2048, 4}));
    const auto first_lists = cl->listOffsets();
    auto query = genQueryForTopic(spec, 1, 950, kPinSeed);

    using Results = std::vector<RagRunResult>;
    using Call = std::function<Results(RagRetriever &, uint64_t seed)>;
    auto batch = [&](size_t b, RagSearchParams search) -> Call {
        return [&spec, &cl, b, search](RagRetriever &r, uint64_t seed) {
            RagBatchOptions o;
            o.overlapStream = true;
            o.search = search;
            o.ivf = search.nprobe ? &*cl : nullptr;
            return r.retrieveBatch(pinQueries(spec, b), seed, o);
        };
    };
    auto single = [&](RagVariant v) -> Call {
        return [&query, v](RagRetriever &r, uint64_t seed) {
            return Results{r.retrieve(query, v, seed)};
        };
    };
    const std::vector<std::pair<std::string, Call>> calls = {
        {"exhaustive", batch(3, {})},
        {"nprobe 1", batch(2, {1, kFilterAll})},
        {"temporal", single(RagVariant::AllOpts)},
        // Leaves vrQ a uniform broadcast for the calls that follow.
        {"opt1", single(RagVariant::Opt1)},
        {"nprobe K", batch(4, {4, kFilterAll})},
        {"spatial", single(RagVariant::NoOpt)},
        {"filtered", batch(3, {0, 0x5a})},
        {"gf16",
         [&query](RagRetriever &r, uint64_t seed) {
             return Results{r.retrieveGf16(query, seed)};
         }},
    };

    /** One call on a fresh retriever, with its core's CycleStats. */
    struct Fresh
    {
        Results res;
        std::vector<SimPin> pins;
        std::map<std::string, double> breakdown;
    };
    auto fresh = [&](const Call &call, uint64_t seed) {
        PinRig rig(spec, true);
        Fresh f{call(rig.r, seed), {}, {}};
        for (const RagRunResult &r : f.res)
            f.pins.push_back(simPin(r, rig.dev));
        f.breakdown = rig.dev.core(0).stats().breakdown();
        return f;
    };
    PinRig warm(spec, true);
    auto expectWarm = [&](const std::string &what, const Call &call,
                          uint64_t seed, const Fresh &want) {
        Results got = call(warm.r, seed);
        EXPECT_EQ(got.size(), want.res.size()) << what;
        for (size_t q = 0; q < std::min(got.size(), want.res.size());
             ++q) {
            EXPECT_EQ(got[q].hits, want.res[q].hits) << what << " " << q;
            expectPin(simPin(got[q], warm.dev), want.pins[q], what);
        }
        EXPECT_EQ(warm.dev.core(0).stats().breakdown(), want.breakdown)
            << what;
    };

    std::vector<Fresh> want;
    for (const auto &c : calls)
        want.push_back(fresh(c.second, kPinSeed));
    for (int pass = 0; pass < 2; ++pass)
        for (size_t i = 0; i < calls.size(); ++i)
            expectWarm(calls[i].first + " pass " + std::to_string(pass),
                       calls[i].second, kPinSeed, want[i]);

    // Another clustering of the same corpus restages the IVF runs.
    cl.emplace(IvfClustering::build(spec, kPinSeed, {3, 2048, 4}));
    ASSERT_NE(cl->listOffsets(), first_lists);
    for (size_t i : {1, 3})
        expectWarm(calls[i].first + " second clustering",
                   calls[i].second, kPinSeed,
                   fresh(calls[i].second, kPinSeed));

    // Another seed restages every layout: the exhaustive run, the IVF
    // runs, the spatial tiles and the gf16 planes. Its answers
    // differ, so a stale layout could not match.
    uint64_t seed2 = kPinSeed + 1;
    for (size_t i : {0, 3, 4, 6}) {
        const auto &[name, call] = calls[i];
        Fresh f = fresh(call, seed2);
        EXPECT_NE(f.res[0].hits, want[i].res[0].hits) << name;
        expectWarm(name + " second seed", call, seed2, f);
    }
}

namespace {

/** Flat index of `spec`'s base rows at `seed`. */
IndexFlatI16
baseRows(const RagCorpusSpec &spec, uint64_t seed)
{
    size_t n = spec.epochView ? spec.epochView->baseChunks : spec.numChunks;
    return IndexFlatI16(spec.dim,
                        genEmbeddings(spec, spec.firstChunk, n, seed));
}

} // namespace

TEST(RagBatch, StagingFromRowsMatchesGeneration)
{
    // A retriever that copies its base rows from RagBatchOptions::rows
    // stages the same runs as one that generates them: hits, every
    // stage latency and every CycleStats number agree. The shard
    // starts past chunk 0, so row i of the rows is global chunk
    // firstChunk + i; a short dim keeps the sanitizer copy quick.
    RagCorpusSpec spec{"rows", 0, 6000, 40, 2500, 4};
    const IndexFlatI16 rows = baseRows(spec, kPinSeed);
    const auto cl = IvfClustering::build(rows, {4, 2048, 4});

    // Epoch 1 of the same shard: inserts past the base, tombstones on
    // base and inserted chunks.
    CorpusEpochView view;
    view.epoch = 1;
    view.baseChunks = spec.numChunks;
    for (uint64_t i = 0; i < 150; ++i)
        view.inserted.push_back(900000 + 5 * i);
    view.deleted = {2500, 2501, 4000, 8499, 900000 + 5 * 3};
    RagCorpusSpec epoch = spec;
    epoch.numChunks = view.baseChunks + view.inserted.size();
    epoch.epochView = &view;

    struct Case
    {
        const char *what;
        const RagCorpusSpec *spec;
        size_t batch;
        RagSearchParams search;
    };
    const Case cases[] = {
        {"exhaustive", &spec, 3, {}},
        {"filtered", &spec, 2, {0, 0x5a}},
        {"nprobe 1", &spec, 4, {1, kFilterAll}},
        {"nprobe K", &spec, 2, {cl.numLists(), 0x33}},
        {"epoch overlay", &epoch, 3, {}},
    };
    for (const Case &c : cases) {
        auto call = [&](const IndexFlatI16 *from) {
            auto rig = std::make_unique<PinRig>(*c.spec, true);
            RagBatchOptions o;
            o.overlapStream = true;
            o.search = c.search;
            o.ivf = c.search.nprobe ? &cl : nullptr;
            o.rows = from;
            auto qs = pinQueries(*c.spec, c.batch);
            // Twice: the second call runs on the resident runs.
            auto res = rig->r.retrieveBatch(qs, kPinSeed, o);
            auto again = rig->r.retrieveBatch(qs, kPinSeed, o);
            res.insert(res.end(), again.begin(), again.end());
            return std::make_pair(std::move(res), std::move(rig));
        };
        auto [copied, copiedRig] = call(&rows);
        auto [generated, generatedRig] = call(nullptr);
        ASSERT_EQ(copied.size(), generated.size()) << c.what;
        for (size_t q = 0; q < copied.size(); ++q) {
            EXPECT_EQ(copied[q].hits, generated[q].hits) << c.what << " " << q;
            expectPin(simPin(copied[q], copiedRig->dev),
                      simPin(generated[q], generatedRig->dev), c.what);
        }
        EXPECT_FALSE(copied[0].hits.empty()) << c.what;
        EXPECT_EQ(copiedRig->dev.core(0).stats().breakdown(),
                  generatedRig->dev.core(0).stats().breakdown())
            << c.what;
    }
}

TEST(RagBatch, RowsOfAnotherSeedShardOrSizeDie)
{
    // Rows that are not the corpus's own die at the first staging
    // instead of answering from another corpus.
    RagCorpusSpec spec{"rows", 0, 3000, 40, 1200, 4};
    RagCorpusSpec other = spec;
    other.firstChunk = 4200;
    RagCorpusSpec shorter = spec;
    shorter.numChunks = 2999;
    const IndexFlatI16 seed2 = baseRows(spec, kPinSeed + 1);
    const IndexFlatI16 shard2 = baseRows(other, kPinSeed);
    const IndexFlatI16 size2 = baseRows(shorter, kPinSeed);
    auto stage = [&](const IndexFlatI16 &rows) {
        PinRig rig(spec, true);
        RagBatchOptions o;
        o.rows = &rows;
        (void)rig.r.retrieveBatch(pinQueries(spec, 1), kPinSeed, o);
    };
    EXPECT_DEATH(stage(seed2), "rows of another seed or shard");
    EXPECT_DEATH(stage(shard2), "rows of another seed or shard");
    EXPECT_DEATH(stage(size2), "RagBatchOptions::rows holds 2999 rows");
}
