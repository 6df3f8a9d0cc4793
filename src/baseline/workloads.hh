/**
 * @file
 * RAG workload generation (paper Section 5.3.1).
 *
 * The paper retrieves over 10 / 50 / 200 GB corpora chunked into
 * 16,384-token segments: 163 K / 819 K / 3.3 M chunks with 120 MB /
 * 600 MB / 2.4 GB of embeddings, i.e. 368-dimensional 16-bit
 * embeddings. Since ENNS latency depends only on embedding geometry,
 * we generate deterministic synthetic embeddings; values are
 * quantized to [-7, 7] (4-bit-scale quantization) so that a
 * 368-element inner product fits in the APU's native int16.
 *
 * Generation is stateless (hash of chunk, dim, seed), so any subset
 * of a paper-scale corpus can be materialized without storing it.
 */

#ifndef CISRAM_BASELINE_WORKLOADS_HH
#define CISRAM_BASELINE_WORKLOADS_HH

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

namespace cisram::baseline {

/**
 * One immutable snapshot of a live (mutating) corpus.
 *
 * The corpus is append-only at the id level: the base corpus owns
 * global ids [0, baseChunks) and every insert mints a fresh global id
 * above everything allocated before it (ids are never reused), so an
 * embedding row keyed by global id means the same vector in every
 * epoch that can see it. Deletes are tombstones — the chunk keeps its
 * staged position and is masked out of the admit plane at query time,
 * never compacted. That keeps local positions stable across an epoch
 * bump, which is what makes journal replay after a mid-mutation reset
 * bit-identical: a replayed query re-executes against exactly the
 * epoch view it admitted under.
 *
 * A spec's local positions map to global ids as
 *   local <  baseChunks : firstChunk + local
 *   local >= baseChunks : inserted[local - baseChunks]
 * with `inserted` sorted ascending, so local order agrees with global
 * order and the shared tie rule (score desc, id asc) ranks identically
 * in either id space.
 */
struct CorpusEpochView
{
    uint64_t epoch = 0;       ///< 0 is the unmutated base corpus
    uint64_t baseChunks = 0;  ///< chunks staged before any mutation
    std::vector<uint64_t> inserted;        ///< ascending global ids
    std::unordered_set<uint64_t> deleted;  ///< tombstoned global ids
};

/** One evaluated corpus configuration. */
struct RagCorpusSpec
{
    const char *label;    ///< "10GB" etc.
    double corpusBytes;   ///< raw text corpus size
    size_t numChunks;     ///< 16,384-token segments
    size_t dim;           ///< embedding dimensionality

    /**
     * Global index of this spec's first chunk. 0 for a whole corpus;
     * a fleet shard covering chunks [F, F+numChunks) of a larger
     * corpus sets F so generation stays keyed by *global* chunk
     * identity — the shard's embeddings are bit-identical to the
     * same slice of the unsharded corpus, which is what makes a
     * scatter-gather top-k merge reproduce the single-device answer
     * exactly. Retrieval hit ids remain spec-local; the router adds
     * firstChunk back when merging.
     */
    size_t firstChunk = 0;

    /**
     * Topic count for the clustered corpus model. 0 (default) keeps
     * the original i.i.d. hash embeddings — correct for latency
     * characterization, but structureless, so no coarse quantizer
     * can beat a random partition on it. With T > 0 each chunk
     * belongs to a hash-assigned topic and its embedding is that
     * topic's center plus per-element noise (still in [-7, 7], so
     * dot products keep the int16 budget). Queries drawn near a
     * topic center then have their true neighbours concentrated in
     * one cluster, which is what gives an IVF index a real
     * recall-vs-scan trade-off to measure.
     */
    size_t topics = 0;

    /**
     * Epoch overlay for a live corpus (null = static corpus, the
     * common case). When set, numChunks must equal
     * epochView->baseChunks + epochView->inserted.size() for this
     * spec's slice, and retrieval masks tombstoned chunks via the
     * admit plane. Non-owning: whoever arms the view (the mutation
     * plan / router) keeps it alive for the spec's lifetime.
     */
    const CorpusEpochView *epochView = nullptr;

    /** Local positions before any epoch's inserts: the base rows. */
    size_t
    baseChunks() const
    {
        return epochView ? epochView->baseChunks : numChunks;
    }

    /** Global chunk id of local position `local` under the view. */
    uint64_t
    globalChunk(uint64_t local) const
    {
        if (!epochView || local < epochView->baseChunks)
            return firstChunk + local;
        return epochView->inserted[local - epochView->baseChunks];
    }

    /** False iff the chunk at `local` is tombstoned in this epoch. */
    bool
    chunkLive(uint64_t local) const
    {
        if (!epochView || epochView->deleted.empty())
            return true;
        return !epochView->deleted.count(globalChunk(local));
    }

    double
    embeddingBytes() const
    {
        return static_cast<double>(numChunks) * dim * 2.0;
    }
};

/** The paper's three corpus sizes. */
const std::vector<RagCorpusSpec> &ragCorpora();

/** Deterministic embedding element in [-7, 7]. */
int16_t embeddingValue(uint64_t chunk, uint64_t d, uint64_t seed);

/** Topic of `chunk` under the clustered model (spec.topics > 0). */
size_t chunkTopic(uint64_t chunk, uint64_t seed, size_t topics);

/**
 * Deterministic embedding element honoring the spec's corpus model:
 * the plain hash for topics == 0, topic center + noise otherwise.
 * `chunk` is a *global* chunk id (spec.firstChunk already applied).
 */
int16_t embeddingValueFor(const RagCorpusSpec &spec, uint64_t chunk,
                          uint64_t d, uint64_t seed);

/**
 * Metadata labels for filtered search: every chunk carries one
 * deterministic label in [0, kNumChunkLabels). A filter is a 16-bit
 * mask of admitted labels; kFilterAll (all bits set) means
 * unfiltered. Labels are keyed by global chunk id, so a shard sees
 * the same labels as the unsharded corpus.
 */
constexpr size_t kNumChunkLabels = 8;
constexpr uint16_t kFilterAll = 0xffff;

uint16_t chunkLabel(uint64_t chunk, uint64_t seed);

inline bool
passesFilter(uint16_t filter_mask, uint16_t label)
{
    return (filter_mask >> label) & 1u;
}

/**
 * Materialize one chunk's embedding row into `out` (dim elements).
 * `chunk` is global. Equivalent to dim calls of embeddingValueFor but
 * hoists the per-chunk topic lookup, which matters when an index
 * build or ground-truth scan walks millions of chunks. Each call
 * counts one row in rowsGenerated().
 */
void genEmbeddingRow(const RagCorpusSpec &spec, uint64_t chunk,
                     uint64_t seed, int16_t *out);

/**
 * Rows genEmbeddingRow has generated in this process, across all
 * threads: a deterministic count of generation work, so a test can
 * pin how often a corpus's rows are generated.
 */
uint64_t rowsGenerated();

/** Materialize embeddings for chunks [first, first+count). */
std::vector<int16_t> genEmbeddings(const RagCorpusSpec &spec,
                                   uint64_t first, uint64_t count,
                                   uint64_t seed);

/** Deterministic query vector in [-7, 7]. */
std::vector<int16_t> genQuery(size_t dim, uint64_t seed);

/**
 * Query drawn near `topic`'s center (clustered corpus model):
 * center plus small per-element jitter keyed by `seed`. Its exact
 * nearest neighbours concentrate in that topic's chunks.
 */
std::vector<int16_t> genQueryForTopic(const RagCorpusSpec &spec,
                                      size_t topic, uint64_t seed,
                                      uint64_t corpus_seed);

} // namespace cisram::baseline

#endif // CISRAM_BASELINE_WORKLOADS_HH
