#include "baseline/faisslite.hh"

#include <algorithm>
#include <cstring>
#include <thread>
#include <utility>

#include "common/logging.hh"

namespace cisram::baseline {

/** Heap ordering: keep the k *best*; worst-of-the-best at the top. */
bool
hitWorseThan(const Hit &a, const Hit &b)
{
    if (a.score != b.score)
        return a.score < b.score;
    return a.id > b.id; // larger id is worse on ties
}

/** Push into a bounded max-k heap. */
void
hitHeapPush(std::vector<Hit> &heap, size_t k, Hit h)
{
    auto cmp = [](const Hit &a, const Hit &b) {
        return !hitWorseThan(a, b); // min-heap on "goodness"
    };
    if (heap.size() < k) {
        heap.push_back(h);
        std::push_heap(heap.begin(), heap.end(), cmp);
    } else if (hitWorseThan(heap.front(), h)) {
        std::pop_heap(heap.begin(), heap.end(), cmp);
        heap.back() = h;
        std::push_heap(heap.begin(), heap.end(), cmp);
    }
}

/** Sort hits best-first with deterministic tie-breaking. */
void
hitFinalize(std::vector<Hit> &hits)
{
    std::sort(hits.begin(), hits.end(), [](const Hit &a, const Hit &b) {
        return hitWorseThan(b, a);
    });
}

/** Merge per-thread heaps into one top-k list. */
std::vector<Hit>
mergeHitHeaps(std::vector<std::vector<Hit>> &parts, size_t k)
{
    std::vector<Hit> all;
    for (auto &p : parts)
        all.insert(all.end(), p.begin(), p.end());
    hitFinalize(all);
    if (all.size() > k)
        all.resize(k);
    return all;
}

void
IndexFlat::add(const float *vecs, size_t n)
{
    data.insert(data.end(), vecs, vecs + n * dim_);
    count += n;
}

float
IndexFlat::score(const float *query, size_t id) const
{
    cisram_assert(id < count, "vector id OOB");
    const float *v = data.data() + id * dim_;
    if (metric_ == Metric::InnerProduct) {
        float s = 0.0f;
        for (size_t d = 0; d < dim_; ++d)
            s += query[d] * v[d];
        return s;
    }
    float s = 0.0f;
    for (size_t d = 0; d < dim_; ++d) {
        float diff = query[d] - v[d];
        s += diff * diff;
    }
    return -s; // higher is better, uniformly
}

void
IndexFlat::scanRange(const float *query, size_t k, size_t lo,
                     size_t hi, std::vector<Hit> &heap) const
{
    for (size_t id = lo; id < hi; ++id)
        hitHeapPush(heap, k, {score(query, id), id});
}

std::vector<Hit>
IndexFlat::search(const float *query, size_t k,
                  unsigned threads) const
{
    k = std::min(k, count);
    if (k == 0)
        return {};
    if (threads <= 1) {
        std::vector<Hit> heap;
        heap.reserve(k + 1);
        scanRange(query, k, 0, count, heap);
        hitFinalize(heap);
        return heap;
    }
    unsigned nt = std::min<unsigned>(
        threads, static_cast<unsigned>(std::max<size_t>(1, count)));
    std::vector<std::vector<Hit>> parts(nt);
    std::vector<std::thread> workers;
    size_t stride = (count + nt - 1) / nt;
    for (unsigned t = 0; t < nt; ++t) {
        size_t lo = t * stride;
        size_t hi = std::min(count, lo + stride);
        workers.emplace_back([&, t, lo, hi] {
            parts[t].reserve(k + 1);
            scanRange(query, k, lo, hi, parts[t]);
        });
    }
    for (auto &w : workers)
        w.join();
    return mergeHitHeaps(parts, k);
}

IndexFlatI16::IndexFlatI16(size_t dim, std::vector<int16_t> rows)
    : dim_(dim), data(std::move(rows))
{
    cisram_assert(dim_ > 0 && data.size() % dim_ == 0, "IndexFlatI16: ",
                  data.size(), " values are not whole ", dim_,
                  "-wide rows");
    count = data.size() / dim_;
}

void
IndexFlatI16::add(const int16_t *vecs, size_t n)
{
    data.insert(data.end(), vecs, vecs + n * dim_);
    count += n;
}

int64_t
IndexFlatI16::dot(const int16_t *query, size_t id) const
{
    cisram_assert(id < count, "vector id OOB");
    const int16_t *v = data.data() + id * dim_;
    int64_t s = 0;
    for (size_t d = 0; d < dim_; ++d)
        s += static_cast<int32_t>(query[d]) * v[d];
    return s;
}

std::vector<Hit>
IndexFlatI16::search(const int16_t *query, size_t k,
                     unsigned threads) const
{
    k = std::min(k, count);
    if (k == 0)
        return {};
    auto scan = [&](size_t lo, size_t hi, std::vector<Hit> &heap) {
        for (size_t id = lo; id < hi; ++id) {
            hitHeapPush(heap, k,
                     {static_cast<float>(dot(query, id)), id});
        }
    };
    if (threads <= 1) {
        std::vector<Hit> heap;
        heap.reserve(k + 1);
        scan(0, count, heap);
        hitFinalize(heap);
        return heap;
    }
    unsigned nt = std::min<unsigned>(
        threads, static_cast<unsigned>(std::max<size_t>(1, count)));
    std::vector<std::vector<Hit>> parts(nt);
    std::vector<std::thread> workers;
    size_t stride = (count + nt - 1) / nt;
    for (unsigned t = 0; t < nt; ++t) {
        size_t lo = t * stride;
        size_t hi = std::min(count, lo + stride);
        workers.emplace_back(
            [&, t, lo, hi] { scan(lo, hi, parts[t]); });
    }
    for (auto &w : workers)
        w.join();
    return mergeHitHeaps(parts, k);
}

namespace {

/**
 * searchEpochFlat's scan: base rows read from `base` when given,
 * every other row generated.
 */
std::vector<Hit>
scanEpoch(const IndexFlatI16 *base, const RagCorpusSpec &spec,
          uint64_t corpus_seed, const int16_t *query, size_t k,
          uint16_t filter_mask)
{
    if (spec.epochView) {
        cisram_assert(spec.numChunks ==
                          spec.epochView->baseChunks +
                              spec.epochView->inserted.size(),
                      "epoch view / spec chunk count mismatch");
    }
    size_t stored = base ? base->size() : 0;
    std::vector<Hit> heap;
    heap.reserve(k + 1);
    std::vector<int16_t> scratch(spec.dim);
    for (size_t local = 0; local < spec.numChunks; ++local) {
        if (!spec.chunkLive(local))
            continue;
        uint64_t chunk = spec.globalChunk(local);
        if (filter_mask != kFilterAll &&
            !passesFilter(filter_mask, chunkLabel(chunk, corpus_seed)))
            continue;
        const int16_t *row = scratch.data();
        if (local < stored)
            row = base->raw().data() + local * spec.dim;
        else
            genEmbeddingRow(spec, chunk, corpus_seed, scratch.data());
        int64_t s = 0;
        for (size_t d = 0; d < spec.dim; ++d)
            s += static_cast<int32_t>(query[d]) * row[d];
        hitHeapPush(heap, k, {static_cast<float>(s), local});
    }
    hitFinalize(heap);
    return heap;
}

} // namespace

std::vector<Hit>
searchEpochFlat(const RagCorpusSpec &spec, uint64_t corpus_seed,
                const int16_t *query, size_t k, uint16_t filter_mask)
{
    return scanEpoch(nullptr, spec, corpus_seed, query, k, filter_mask);
}

std::vector<Hit>
searchEpochFlat(const IndexFlatI16 &base, const RagCorpusSpec &spec,
                uint64_t corpus_seed, const int16_t *query, size_t k,
                uint16_t filter_mask)
{
    cisram_assert(base.size() == spec.baseChunks() &&
                      base.dim() == spec.dim,
                  "searchEpochFlat: ", base.size(), " base rows x ",
                  base.dim(), " dims for a corpus of ", spec.baseChunks(),
                  " x ", spec.dim);
    return scanEpoch(&base, spec, corpus_seed, query, k, filter_mask);
}

} // namespace cisram::baseline
