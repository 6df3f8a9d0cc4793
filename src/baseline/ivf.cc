#include "baseline/ivf.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace cisram::baseline {

namespace {

/** int32-exact dot of two int16 rows. */
int64_t
rowDot(const int16_t *a, const int16_t *b, size_t dim)
{
    int64_t s = 0;
    for (size_t d = 0; d < dim; ++d)
        s += static_cast<int32_t>(a[d]) * b[d];
    return s;
}

/** argmax_j dot(row, centroid_j); ties to the lowest j. */
size_t
bestList(const int16_t *row, const std::vector<int16_t> &centroids,
         size_t k, size_t dim)
{
    size_t best = 0;
    int64_t bestScore = rowDot(row, centroids.data(), dim);
    for (size_t j = 1; j < k; ++j) {
        int64_t s = rowDot(row, centroids.data() + j * dim, dim);
        if (s > bestScore) { // strict: ties keep the lower id
            bestScore = s;
            best = j;
        }
    }
    return best;
}

} // namespace

IvfClustering
IvfClustering::build(const RagCorpusSpec &spec, uint64_t seed,
                     const IvfBuildConfig &cfg)
{
    return train(spec.numChunks, spec.dim,
                 [&spec, seed](size_t i, int16_t *scratch) {
                     genEmbeddingRow(spec, spec.firstChunk + i, seed,
                                     scratch);
                     return static_cast<const int16_t *>(scratch);
                 },
                 cfg);
}

IvfClustering
IvfClustering::build(const IndexFlatI16 &flat, const IvfBuildConfig &cfg)
{
    const int16_t *rows = flat.raw().data();
    size_t dim = flat.dim();
    return train(flat.size(), dim,
                 [rows, dim](size_t i, int16_t *) { return rows + i * dim; },
                 cfg);
}

IvfClustering
IvfClustering::train(size_t chunks, size_t dim, const RowSource &row,
                     const IvfBuildConfig &cfg)
{
    cisram_assert(chunks > 0, "empty corpus");
    size_t k = std::max<size_t>(1, std::min(cfg.numLists, chunks));

    // Fixed-stride training sample: deterministic and spread across
    // the whole id range (topics are hash-assigned, so a stride is as
    // unbiased as a shuffle without needing RNG state).
    size_t sampleCount = std::max(k, std::min(cfg.trainSample, chunks));
    sampleCount = std::min(sampleCount, chunks);
    size_t stride = chunks / sampleCount;
    std::vector<int16_t> sample(sampleCount * dim);
    for (size_t i = 0; i < sampleCount; ++i) {
        int16_t *dst = sample.data() + i * dim;
        const int16_t *src = row(i * stride, dst);
        if (src != dst)
            std::copy_n(src, dim, dst);
    }

    // Init: evenly strided sample rows as the first centroids.
    IvfClustering cl;
    cl.dim_ = dim;
    cl.centroids_.resize(k * dim);
    for (size_t j = 0; j < k; ++j) {
        const int16_t *first =
            sample.data() + (j * sampleCount / k) * dim;
        std::copy(first, first + dim, cl.centroids_.begin() + j * dim);
    }

    // Lloyd: max-IP assignment (the Phoenix kmeansApu idiom — the
    // device scores candidates by inner product, so training with the
    // same affinity keeps probe selection aligned with what the
    // distance kernel will actually compute), rounded-mean update.
    std::vector<int64_t> sums(k * dim);
    std::vector<size_t> counts(k);
    for (size_t it = 0; it < cfg.iterations; ++it) {
        std::fill(sums.begin(), sums.end(), 0);
        std::fill(counts.begin(), counts.end(), 0);
        for (size_t i = 0; i < sampleCount; ++i) {
            const int16_t *r = sample.data() + i * dim;
            size_t j = bestList(r, cl.centroids_, k, dim);
            ++counts[j];
            for (size_t d = 0; d < dim; ++d)
                sums[j * dim + d] += r[d];
        }
        for (size_t j = 0; j < k; ++j) {
            if (counts[j] == 0)
                continue; // empty list keeps its old centroid
            for (size_t d = 0; d < dim; ++d)
                cl.centroids_[j * dim + d] =
                    static_cast<int16_t>(std::llround(
                        static_cast<double>(sums[j * dim + d]) /
                        static_cast<double>(counts[j])));
        }
    }

    // Final assignment of every chunk, then list arrays. Scanning
    // chunks in ascending id order makes ids ascend within each
    // list — the device path's per-supertile top-k extraction is
    // only tie-exact under that ordering.
    cl.assign_.resize(chunks);
    std::vector<uint64_t> listCounts(k, 0);
    std::vector<int16_t> scratch(dim);
    for (size_t c = 0; c < chunks; ++c) {
        uint32_t j = static_cast<uint32_t>(
            bestList(row(c, scratch.data()), cl.centroids_, k, dim));
        cl.assign_[c] = j;
        ++listCounts[j];
    }
    cl.offsets_.assign(k + 1, 0);
    for (size_t j = 0; j < k; ++j)
        cl.offsets_[j + 1] = cl.offsets_[j] + listCounts[j];
    cl.order_.resize(chunks);
    std::vector<uint64_t> cursor(cl.offsets_.begin(),
                                 cl.offsets_.end() - 1);
    for (size_t c = 0; c < chunks; ++c)
        cl.order_[cursor[cl.assign_[c]]++] = static_cast<uint32_t>(c);
    return cl;
}

int64_t
IvfClustering::centroidDot(const int16_t *query, size_t list) const
{
    cisram_assert(list < numLists(), "list id OOB");
    return rowDot(query, centroids_.data() + list * dim_, dim_);
}

std::vector<uint32_t>
IvfClustering::selectProbes(const int16_t *query,
                            size_t nprobe) const
{
    size_t k = numLists();
    nprobe = std::min(nprobe, k);
    if (nprobe == 0)
        return {};
    // Hit's tie rule (score desc, id asc) is exactly the probe
    // ordering contract; centroid dots fit a float exactly
    // (|dot| <= 368 * 7 * 7 < 2^24).
    std::vector<Hit> scored;
    scored.reserve(k);
    for (size_t j = 0; j < k; ++j)
        scored.push_back(
            {static_cast<float>(centroidDot(query, j)), j});
    hitFinalize(scored);
    std::vector<uint32_t> probes(nprobe);
    for (size_t j = 0; j < nprobe; ++j)
        probes[j] = static_cast<uint32_t>(scored[j].id);
    return probes;
}

std::vector<Hit>
searchFilteredFlat(const IndexFlatI16 &flat,
                   const RagCorpusSpec &spec, uint64_t seed,
                   const int16_t *query, size_t k,
                   uint16_t filter_mask)
{
    std::vector<Hit> heap;
    heap.reserve(k + 1);
    for (size_t id = 0; id < flat.size(); ++id) {
        if (filter_mask != kFilterAll &&
            !passesFilter(filter_mask,
                          chunkLabel(spec.firstChunk + id, seed)))
            continue;
        hitHeapPush(heap, k,
                    {static_cast<float>(flat.dot(query, id)), id});
    }
    hitFinalize(heap);
    return heap;
}

std::vector<Hit>
IndexIvfI16::search(const int16_t *query, size_t k, size_t nprobe,
                    uint16_t filter_mask) const
{
    if (nprobe == 0) // exhaustive mode: no coarse quantization
        return searchFilteredFlat(flat_, spec_, seed_, query, k,
                                  filter_mask);
    cisram_assert(flat_.size() == clustering_.numChunks(),
                  "clustering / index size mismatch");
    auto probes = clustering_.selectProbes(query, nprobe);
    std::vector<Hit> heap;
    heap.reserve(k + 1);
    const auto &offsets = clustering_.listOffsets();
    const auto &order = clustering_.order();
    for (uint32_t list : probes) {
        for (uint64_t p = offsets[list]; p < offsets[list + 1]; ++p) {
            size_t id = order[p];
            if (filter_mask != kFilterAll &&
                !passesFilter(filter_mask,
                              chunkLabel(spec_.firstChunk + id,
                                         seed_)))
                continue;
            hitHeapPush(
                heap, k,
                {static_cast<float>(flat_.dot(query, id)), id});
        }
    }
    hitFinalize(heap);
    return heap;
}

} // namespace cisram::baseline
