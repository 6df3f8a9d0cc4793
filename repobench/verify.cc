#include "verify.hh"

#include <algorithm>
#include <unordered_set>

namespace repobench {

using namespace cisram;
using baseline::Hit;

baseline::RagCorpusSpec
shardSpec(const baseline::RagCorpusSpec &corpus, unsigned shards,
          unsigned s)
{
    fleet::ShardRange r =
        fleet::shardChunkRange(corpus.numChunks, shards, s);
    baseline::RagCorpusSpec spec = corpus;
    spec.numChunks = r.numChunks;
    spec.firstChunk = r.firstChunk;
    spec.corpusBytes = corpus.corpusBytes *
        static_cast<double>(r.numChunks) /
        static_cast<double>(corpus.numChunks);
    return spec;
}

EpochGolden::EpochGolden(const baseline::RagCorpusSpec &spec,
                         uint64_t corpus_seed)
    : rows_(spec.dim)
{
    std::vector<int16_t> all(spec.numChunks * spec.dim);
    global_.resize(spec.numChunks);
    labels_.resize(spec.numChunks);
    live_.resize(spec.numChunks);
    for (size_t local = 0; local < spec.numChunks; ++local) {
        uint64_t g = spec.globalChunk(local);
        global_[local] = g;
        labels_[local] = baseline::chunkLabel(g, corpus_seed);
        live_[local] = spec.chunkLive(local);
        baseline::genEmbeddingRow(spec, g, corpus_seed,
                                  all.data() + local * spec.dim);
    }
    rows_.add(all.data(), spec.numChunks);
}

std::vector<Hit>
EpochGolden::search(const int16_t *query, size_t k,
                    uint16_t filter) const
{
    std::vector<Hit> heap;
    heap.reserve(k + 1);
    for (size_t local = 0; local < global_.size(); ++local) {
        if (!live_[local] ||
            (filter != baseline::kFilterAll &&
             !baseline::passesFilter(filter, labels_[local])))
            continue;
        // Local order agrees with global order, so ranking by global
        // id applies the same tie rule searchEpochFlat applies.
        baseline::hitHeapPush(
            heap, k,
            {static_cast<float>(rows_.dot(query, local)),
             static_cast<size_t>(global_[local])});
    }
    baseline::hitFinalize(heap);
    return heap;
}

FleetIvfGolden::FleetIvfGolden(const baseline::RagCorpusSpec &corpus,
                               uint64_t corpus_seed,
                               fleet::Router &router)
{
    for (unsigned s = 0; s < router.shards(); ++s) {
        unsigned d = router.placement()[s][0];
        kernels::DeviceServer *srv = router.server(d, s);
        const baseline::IvfClustering *cl =
            srv ? srv->clustering() : nullptr;
        cisram_assert(cl, "repobench: shard ", s,
                      " serves without a clustering");
        auto sh = std::make_unique<Shard>();
        sh->spec = shardSpec(corpus, router.shards(), s);
        sh->flat =
            std::make_unique<baseline::IndexFlatI16>(corpus.dim);
        std::vector<int16_t> emb = baseline::genEmbeddings(
            sh->spec, sh->spec.firstChunk, sh->spec.numChunks,
            corpus_seed);
        sh->flat->add(emb.data(), sh->spec.numChunks);
        sh->ivf = std::make_unique<baseline::IndexIvfI16>(
            *sh->flat, *cl, sh->spec, corpus_seed);
        shards_.push_back(std::move(sh));
    }
}

std::vector<Hit>
FleetIvfGolden::search(const int16_t *query, size_t k, size_t nprobe,
                       uint16_t filter) const
{
    std::vector<Hit> all;
    for (const auto &sh : shards_)
        for (Hit h : sh->ivf->search(query, k, nprobe, filter)) {
            h.id += sh->spec.firstChunk;
            all.push_back(h);
        }
    std::sort(all.begin(), all.end(), [](const Hit &a, const Hit &b) {
        return a.score != b.score ? a.score > b.score : a.id < b.id;
    });
    if (all.size() > k)
        all.resize(k);
    return all;
}

double
recallOf(const std::vector<Hit> &got, const std::vector<Hit> &truth)
{
    if (truth.empty())
        return 1.0;
    size_t inter = 0;
    for (const Hit &t : truth)
        inter += std::any_of(got.begin(), got.end(),
                             [&](const Hit &h) { return h.id == t.id; });
    return static_cast<double>(inter) /
        static_cast<double>(truth.size());
}

std::vector<uint64_t>
mismatches(const std::vector<Checked> &answers)
{
    std::vector<uint64_t> bad;
    for (const Checked &c : answers)
        if (c.got != c.want)
            bad.push_back(c.id);
    return bad;
}

std::string
exactlyOnceViolation(const std::vector<uint64_t> &admitted,
                     const std::vector<uint64_t> &shed,
                     uint64_t offered,
                     const std::vector<fleet::FleetOutcome> &outs,
                     const fleet::Router &router)
{
    if (admitted.size() + shed.size() != offered)
        return "admitted + shed != offered";
    std::unordered_set<uint64_t> want(admitted.begin(), admitted.end());
    if (want.size() != admitted.size())
        return "an id was admitted twice";
    std::unordered_set<uint64_t> seen;
    for (const fleet::FleetOutcome &o : outs) {
        if (!want.count(o.id))
            return "outcome for query " + std::to_string(o.id) +
                " that was never admitted";
        if (!seen.insert(o.id).second)
            return "query " + std::to_string(o.id) +
                " delivered twice";
    }
    if (seen.size() != want.size())
        return std::to_string(want.size() - seen.size()) +
            " admitted queries never delivered";
    if (router.ledgerOutstanding() != 0)
        return "router ledger still holds queries";
    return "";
}

} // namespace repobench
