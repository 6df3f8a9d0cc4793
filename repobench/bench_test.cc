/**
 * @file
 * The benchmark's own tests, at tiny sizes: it prints every metric
 * BENCHMARK.json names with its unit, its simulated-clock metrics
 * repeat exactly at a seed and follow the seed, and its verifiers
 * report a corrupted answer or a double delivery.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

#include "baseline/faisslite.hh"
#include "baseline/workloads.hh"
#include "bench.hh"
#include "common/json.hh"
#include "fleet/fleet.hh"
#include "load/mutation.hh"
#include "verify.hh"

using namespace cisram;
using namespace repobench;

namespace {

json::Value
spec()
{
    std::ifstream in(REPOBENCH_SPEC);
    std::stringstream ss;
    ss << in.rdbuf();
    return json::parseOrDie(ss.str());
}

/** name -> unit of one BENCHMARK.json metric list. */
std::map<std::string, std::string>
units(const char *list)
{
    std::map<std::string, std::string> m;
    json::Value doc = spec();
    for (const json::Value &v : doc.asObject().find(list)->asArray())
        m[v.asObject().find("name")->asString()] =
            v.asObject().find("unit")->asString();
    return m;
}

Report
tinyRun(const std::string &workload, uint64_t seed, bool trace)
{
    Options opt;
    opt.workload = workload;
    opt.seed = seed;
    opt.seconds = 1e-9; // one session
    opt.trace = trace;
    opt.tiny = true;
    return runWorkload(opt);
}

void
expectMetrics(const Report &rep,
              const std::map<std::string, std::string> &want,
              const std::string &what)
{
    for (const std::string &e : rep.errors)
        ADD_FAILURE() << what << ": " << e;
    std::map<std::string, std::string> got;
    for (const Metric &m : rep.metrics)
        got[m.name] = m.unit;
    EXPECT_EQ(got, want) << what;
}

} // namespace

TEST(RepoBench, WorkloadsMatchBenchmarkJson)
{
    std::vector<std::string> names;
    json::Value doc = spec();
    for (const json::Value &v : doc.asObject().find("workloads")->asArray())
        names.push_back(v.asObject().find("name")->asString());
    EXPECT_EQ(names, workloadNames());
}

TEST(RepoBench, EveryWorkloadPrintsEveryMetricWithItsUnit)
{
    auto e2e = units("end_to_end");
    auto layers = units("per_layer");
    for (const std::string &w : workloadNames()) {
        expectMetrics(tinyRun(w, 1, false), e2e, w + " timed");
        expectMetrics(tinyRun(w, 1, true), layers, w + " traced");
    }
}

TEST(RepoBench, SimulatedMetricsRepeatAtASeedAndFollowTheSeed)
{
    for (const char *w : {"serve_saturation", "mutate_failover"}) {
        auto sim = [&](uint64_t seed) {
            std::map<std::string, double> m;
            for (const Metric &x : tinyRun(w, seed, false).metrics)
                if (x.clock == "sim")
                    m[x.name] = x.value;
            return m;
        };
        auto a = sim(1);
        EXPECT_EQ(a, sim(1)) << w;
        EXPECT_NE(a.at("sim_p50_ms"), sim(2).at("sim_p50_ms")) << w;
    }
}

TEST(RepoBench, VerifierReportsOneCorruptedHit)
{
    baseline::RagCorpusSpec corpus{"verify", 0, 512, 368};
    EpochGolden golden(corpus, kCorpusSeed);
    std::vector<Checked> answers;
    for (uint64_t i = 1; i <= 4; ++i) {
        auto q = baseline::genQuery(corpus.dim, i);
        auto hits = golden.search(q.data(), kTopK);
        answers.push_back({i, hits, hits});
    }
    EXPECT_TRUE(mismatches(answers).empty());

    std::vector<Checked> bad_id = answers;
    bad_id[2].got[4].id += 1;
    EXPECT_EQ(mismatches(bad_id), std::vector<uint64_t>{3});

    std::vector<Checked> bad_score = answers;
    bad_score[0].got[0].score += 1;
    EXPECT_EQ(mismatches(bad_score), std::vector<uint64_t>{1});
}

TEST(RepoBench, EpochGoldenEqualsSearchEpochFlat)
{
    baseline::RagCorpusSpec base{"epochs", 0, 768, 368};
    load::MutationConfig mc;
    mc.batches = 3;
    mc.insertsPerBatch = 40;
    mc.deletesPerBatch = 60;
    mc.seed = 9;
    load::MutationPlan plan(base, 4, mc);
    for (uint64_t e = 0; e <= plan.epochs(); ++e) {
        const baseline::RagCorpusSpec &s = plan.specAt(e);
        EpochGolden golden(s, kCorpusSeed);
        for (uint64_t i = 0; i < 6; ++i) {
            auto q = baseline::genQuery(s.dim, 100 + i);
            uint16_t filter = i % 2 ? 0x00a5 : baseline::kFilterAll;
            auto want = baseline::searchEpochFlat(s, kCorpusSeed,
                                                  q.data(), kTopK,
                                                  filter);
            for (baseline::Hit &h : want)
                h.id = s.globalChunk(h.id);
            EXPECT_EQ(golden.search(q.data(), kTopK, filter), want)
                << "epoch " << e << " query " << i;
        }
    }
}

TEST(RepoBench, ExactlyOnceCheckReportsADoubleDelivery)
{
    baseline::RagCorpusSpec corpus = baseline::ragCorpora()[0];
    fleet::FleetConfig cfg;
    cfg.devices = 2;
    cfg.shards = 2;
    fleet::Router router(corpus, kCorpusSeed, cfg);
    for (uint64_t id = 1; id <= 3; ++id)
        ASSERT_TRUE(
            router.admit(id, baseline::genQuery(corpus.dim, id)).ok());
    auto outs = router.drain();
    ASSERT_EQ(outs.size(), 3u);
    EXPECT_EQ(exactlyOnceViolation({1, 2, 3}, {}, 3, outs, router), "");

    auto twice = outs;
    twice.push_back(outs[1]);
    EXPECT_NE(exactlyOnceViolation({1, 2, 3}, {}, 3, twice, router), "");
    outs.pop_back();
    EXPECT_NE(exactlyOnceViolation({1, 2, 3}, {}, 3, outs, router), "");
}
