/**
 * @file
 * FAISS-lite: exact nearest-neighbour search on the CPU.
 *
 * The paper's CPU baseline runs FAISS IndexFlat exact inner-product
 * search with AVX512 and OpenMP (Section 5.3.2). This module
 * reimplements that functionality: a flat index over dense vectors
 * with exact top-k inner-product (and L2) search, single-threaded or
 * partitioned across std::thread workers with per-thread heaps and a
 * final merge. It serves as the golden reference for the APU
 * retrieval kernels and as the functional CPU baseline.
 */

#ifndef CISRAM_BASELINE_FAISSLITE_HH
#define CISRAM_BASELINE_FAISSLITE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "baseline/workloads.hh"

namespace cisram::baseline {

/** One search hit. */
struct Hit
{
    float score;
    size_t id;

    bool
    operator==(const Hit &o) const
    {
        return score == o.score && id == o.id;
    }
};

/** Similarity metric. */
enum class Metric { InnerProduct, L2 };

/**
 * The one tie rule every answer producer must share: higher score is
 * better; on equal scores the *smaller* id wins. Exposed (rather than
 * file-local) so the IVF index, the fleet k-way merge, and tests all
 * compare against the same boundary behaviour — a divergent tie rule
 * only becomes observable once probing changes which ties reach the
 * k boundary, which is exactly when bit-compare gates must not lie.
 */
bool hitWorseThan(const Hit &a, const Hit &b);

/** Push into a bounded best-k heap ordered by hitWorseThan. */
void hitHeapPush(std::vector<Hit> &heap, size_t k, Hit h);

/** Sort hits best-first (score desc, id asc on ties). */
void hitFinalize(std::vector<Hit> &hits);

/** Merge several bounded heaps into one top-k list. */
std::vector<Hit> mergeHitHeaps(std::vector<std::vector<Hit>> &parts,
                               size_t k);

/**
 * Flat (brute-force, exact) index over dense float vectors.
 *
 * Deterministic tie-breaking: equal scores order by ascending id.
 */
class IndexFlat
{
  public:
    IndexFlat(size_t dim, Metric metric = Metric::InnerProduct)
        : dim_(dim), metric_(metric)
    {}

    size_t dim() const { return dim_; }
    size_t size() const { return count; }
    Metric metric() const { return metric_; }

    /** Append `n` vectors (row-major, n x dim). */
    void add(const float *vecs, size_t n);

    /** Exact top-k for one query; k is clamped to size(). */
    std::vector<Hit> search(const float *query, size_t k,
                            unsigned threads = 1) const;

    /** Raw score of one stored vector against a query. */
    float score(const float *query, size_t id) const;

  private:
    /** Scan ids [lo, hi) into a caller-provided heap vector. */
    void scanRange(const float *query, size_t k, size_t lo, size_t hi,
                   std::vector<Hit> &heap) const;

    size_t dim_;
    Metric metric_;
    size_t count = 0;
    std::vector<float> data;
};

/**
 * Flat index over int16 embeddings (the APU's native format),
 * scoring in int32 and reporting float scores. Used to cross-check
 * the APU retrieval kernel bit-for-bit.
 */
class IndexFlatI16
{
  public:
    explicit IndexFlatI16(size_t dim) : dim_(dim) {}

    /**
     * An index over `rows` (whole dim-wide rows, row-major), taken
     * by move: rows generated straight into their index are written
     * once and never copied.
     */
    IndexFlatI16(size_t dim, std::vector<int16_t> rows);

    size_t dim() const { return dim_; }
    size_t size() const { return count; }

    void add(const int16_t *vecs, size_t n);

    /** Exact top-k by int32 inner product; ties by ascending id. */
    std::vector<Hit> search(const int16_t *query, size_t k,
                            unsigned threads = 1) const;

    /** int32 inner product of a stored vector against a query. */
    int64_t dot(const int16_t *query, size_t id) const;

    const std::vector<int16_t> &raw() const { return data; }

  private:
    size_t dim_;
    size_t count = 0;
    std::vector<int16_t> data;
};

/**
 * Exact top-k over a (possibly epoch-overlaid) hash-generated corpus
 * slice, generating each row on the fly instead of materializing
 * the index. This is the golden twin of the device's epoch-aware
 * retrieval: tombstoned chunks are skipped, inserted chunks scanned
 * at their overlay positions, and ids returned spec-LOCAL (matching
 * searchFilteredFlat; local == global when firstChunk is 0 and no
 * view is armed). Scores are int32 inner products reported as float,
 * tie rule hitWorseThan — so hits bit-compare against the APU path.
 */
std::vector<Hit> searchEpochFlat(const RagCorpusSpec &spec,
                                 uint64_t corpus_seed,
                                 const int16_t *query, size_t k,
                                 uint16_t filter_mask = kFilterAll);

/**
 * The same scan with the base rows read from `base` (row i is local
 * position i: the spec's base rows at `corpus_seed`, such as a
 * shard's golden); only an epoch's inserts are generated. Equal to
 * the generating form on the same rows.
 */
std::vector<Hit> searchEpochFlat(const IndexFlatI16 &base,
                                 const RagCorpusSpec &spec,
                                 uint64_t corpus_seed,
                                 const int16_t *query, size_t k,
                                 uint16_t filter_mask = kFilterAll);

} // namespace cisram::baseline

#endif // CISRAM_BASELINE_FAISSLITE_HH
