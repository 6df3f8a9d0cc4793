/**
 * @file
 * Exact nearest-neighbour RAG retrieval on the simulated APU
 * (paper Section 5.3): the end-to-end workload behind Fig. 14,
 * Table 8, and Fig. 15.
 *
 * Corpus embeddings (368-dim int16) reside in the device's off-chip
 * memory, modeled as simulated HBM2e (src/dramsim) per the paper's
 * methodology: the embedding-load stage is timed by the HBM
 * simulator, everything else by the APU cycle model.
 *
 * Variants:
 *  - NoOpt: spatial mapping. Chunks are padded to 512 elements for
 *    subgroup alignment (this padding is why the unoptimized
 *    embedding load streams more bytes: 8.2 ms vs 6.1 ms at 200 GB
 *    in the paper), dot products reduce with add_subgrp_s16, and
 *    the scattered per-chunk scores leave the VR by PIO.
 *  - Opt1: communication-aware reduction mapping. Embeddings are
 *    stored dimension-major; each VR lane accumulates one chunk's
 *    dot product temporally, one element-wise MAC per dimension,
 *    with the query scalar broadcast by subgroup copy.
 *  - Opt2 (on either base): coalesced DMA descriptor chains for the
 *    streamed planes/tiles.
 *  - Opt3: broadcast-friendly query layout: the CP broadcasts query
 *    scalars as immediates instead of subgroup copies. The spatial
 *    mapping copies whole query groups, so on its own Opt3 runs
 *    NoOpt's mapping and charges exactly what NoOpt does.
 *  - AllOpts: Opt1 + Opt2 + Opt3.
 *
 * Top-k uses the associative global-max search per score VR; the CP
 * merges per-VR candidates.
 */

#ifndef CISRAM_KERNELS_RAG_HH
#define CISRAM_KERNELS_RAG_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "apusim/apu.hh"
#include "baseline/faisslite.hh"
#include "baseline/ivf.hh"
#include "baseline/workloads.hh"
#include "dramsim/dram_sim.hh"

namespace cisram::kernels {

enum class RagVariant { NoOpt, Opt1, Opt2, Opt3, AllOpts };

const char *ragVariantName(RagVariant v);

/**
 * Per-query index parameters, routed with the query through
 * admission, batching, sharding, and replay. Queries only share a
 * device batch when their params are identical (the batch former
 * enforces this), so one RagSearchParams describes a whole batch.
 */
struct RagSearchParams
{
    /**
     * Inverted lists to probe. 0 = exhaustive scan (no coarse
     * quantization). Values >= the clustering's list count probe
     * every list, which scans the same chunk set as the exhaustive
     * path and must bit-compare with it (the nprobe=K identity
     * invariant; gated by tests).
     */
    size_t nprobe = 0;

    /**
     * Metadata predicate: bitmask of admitted chunk labels
     * (baseline::chunkLabel); kFilterAll = unfiltered. On-device the
     * predicate plane is ANDed into the match mask — one masked
     * select per score VR, nearly free next to the dim-long MAC
     * loop. The CPU golden applies the identical predicate.
     */
    uint16_t filterMask = baseline::kFilterAll;

    bool
    operator==(const RagSearchParams &o) const
    {
        return nprobe == o.nprobe && filterMask == o.filterMask;
    }

    bool
    operator!=(const RagSearchParams &o) const
    {
        return !(*this == o);
    }
};

/** Options for retrieveBatch. */
struct RagBatchOptions
{
    /**
     * Double-buffer the per-supertile HBM embedding stream behind
     * distance compute on the other DMA engine: while the VXU scores
     * supertile st, the stream for supertile st+1 lands in the spare
     * L4 buffer. Costed as max(stream, compute) per steady-state
     * supertile plus one pipeSyncL4L1 per supertile, instead of
     * stream + compute (see DESIGN.md "Overlapped corpus
     * streaming"). Functional results are unaffected — only the
     * timing ledger changes.
     */
    bool overlapStream = false;

    /** Index parameters shared by every query in the batch. */
    RagSearchParams search;

    /**
     * Coarse quantizer backing search.nprobe > 0, which requires
     * one. Host-built once per corpus
     * (baseline::IvfClustering::build); in functional mode its
     * centroid table and each probed list stay staged in L4 until a
     * batch brings a clustering of other content.
     */
    const baseline::IvfClustering *ivf = nullptr;
};

/** Table 8 stage latencies, in seconds. */
struct RagStageLatency
{
    double loadEmbedding = 0; ///< simulated HBM stream
    double loadQuery = 0;
    double calcDistance = 0;
    double topkAggregation = 0;
    double returnTopk = 0;

    /**
     * Seconds of the embedding stream hidden behind distance compute
     * when the overlapped streaming mode is on (0 otherwise). Stage
     * latencies above keep their full per-stage attribution so Table
     * 8 breakdowns stay comparable across modes; total() subtracts
     * the hidden portion to yield the critical-path latency
     * max(stream, compute) + pipeline syncs instead of their sum.
     */
    double overlapHidden = 0;

    double
    total() const
    {
        return loadEmbedding + loadQuery + calcDistance +
            topkAggregation + returnTopk - overlapHidden;
    }
};

struct RagRunResult
{
    RagStageLatency stages;

    /** Functional mode: the exact top-k hits (score = int dot). */
    std::vector<baseline::Hit> hits;

    /**
     * Device address of the staged top-k result ids (u32 each, in
     * rank order) for the return-topk stage. Host code reads the
     * ids back from *this* buffer over PCIe — not from the query
     * buffer. topkIdsCount is 0 in TimingOnly mode (no functional
     * results exist to stage).
     */
    uint64_t topkIdsAddr = 0;
    size_t topkIdsCount = 0;

    // Activity for the energy model (Fig. 15).
    double computeSeconds = 0; ///< VXU-active time
    double dramBytes = 0;      ///< off-chip bytes streamed
    double cacheBytes = 0;     ///< bytes through L2/L1

    /**
     * OK unless the embedding stream hit an uncorrectable DRAM ECC
     * error (injected dram_flip2 fault), in which case the scores
     * derived from it cannot be trusted and the serving loop should
     * retry or fall back. Single-bit flips are corrected inline by
     * SECDED and never surface here.
     */
    Status status = Status::okStatus();
};

/**
 * One core's retrieval over one corpus shard at one corpus seed. In
 * functional mode the corpus stays staged in L4, as the embeddings
 * stay in device memory: each layout (the exhaustive run, the
 * spatial tiles, the gf16 planes, the IVF centroids and lists) is
 * staged on first use by copying from one row store, and freed by
 * the destructor. The timing model never charges staging; TimingOnly
 * stages nothing and reads no rows.
 */
class RagRetriever
{
  public:
    /**
     * @param hbm The off-chip memory model used for embedding
     *        streaming (typically hbm2eConfig()).
     * @param core_idx The device core this retriever executes on.
     *        A serving loop sharded with runOnAllCores constructs
     *        one retriever per core; retrievers on distinct cores
     *        may run concurrently (each needs its own DramSystem —
     *        the HBM model is stateful).
     * @param rows The corpus's base rows (row i is local position i;
     *        an epoch overlay's inserts are not in it), non-owning,
     *        such as a shard's golden; it must outlive the retriever.
     *        The first functional call checks its size, dim and first
     *        row against the generator at that call's seed, so rows
     *        of another seed or shard die rather than answer. Null:
     *        the first functional call generates the base rows once
     *        into a store the retriever owns. Either way every layout
     *        copies its base rows from the store and generates only
     *        an epoch's inserts.
     */
    RagRetriever(apu::ApuDevice &dev, dram::DramSystem &hbm,
                 baseline::RagCorpusSpec corpus, size_t top_k = 5,
                 unsigned core_idx = 0,
                 const baseline::IndexFlatI16 *rows = nullptr);

    ~RagRetriever();

    RagRetriever(const RagRetriever &) = delete;
    RagRetriever &operator=(const RagRetriever &) = delete;

    /**
     * Serve one query.
     *
     * Functional mode (the retriever's core in Functional mode): the
     * corpus must be small enough to materialize; its layouts stage
     * once from the row store and real hits are returned. The first
     * functional call fixes the retriever's `corpus_seed`, and a
     * functional call at another seed dies.
     * TimingOnly mode: stages are timed at any corpus scale.
     */
    RagRunResult retrieve(const std::vector<int16_t> &query,
                          RagVariant variant, uint64_t corpus_seed);

    /**
     * Batched retrieval (throughput extension): serve up to eight
     * queries in one pass over the corpus, amortizing the embedding
     * stream and the per-plane ingest across the batch. Uses the
     * fully optimized (AllOpts) mapping; one accumulator VR per
     * query. With opts.search.nprobe > 0, a coarse pass over
     * opts.ivf's centroids picks each query's lists and only the
     * probed lists stream.
     *
     * @return Per-query results; each carries the whole batch's
     *         stage latencies divided evenly (throughput view).
     */
    std::vector<RagRunResult>
    retrieveBatch(const std::vector<std::vector<int16_t>> &queries,
                  uint64_t corpus_seed, RagBatchOptions opts = {});

    /**
     * GSI-float-scored retrieval (extension): embeddings and query
     * are converted to the device's native gf16 (1s/6e/9m) format
     * and distances accumulate with mul_gf16/add_gf16, whose 77-
     * cycle latency undercuts mul_s16's 201 (Table 5). Scores rank
     * through the order-preserving bias transform; hits report the
     * gf16 dot products. Uses the AllOpts mapping.
     */
    RagRunResult retrieveGf16(const std::vector<int16_t> &query,
                              uint64_t corpus_seed);

    const baseline::RagCorpusSpec &corpus() const { return corpus_; }

  private:
    struct Resident;
    /**
     * The resident set. The first call fixes the seed and checks the
     * given store or generates one; a call at another seed dies.
     */
    Resident &resident(uint64_t corpus_seed);

    RagRunResult retrieveSpatial(const std::vector<int16_t> &query,
                                 bool coalesce, uint64_t corpus_seed);
    RagRunResult retrieveTemporal(const std::vector<int16_t> &query,
                                  bool coalesce, bool bf_query,
                                  uint64_t corpus_seed);

    /**
     * Shared tail of every retrieval: charge the return, split
     * `pass`'s ledger evenly over the lanes (one per candidates
     * entry), and merge and stage each lane's hits.
     */
    std::vector<RagRunResult>
    finishPass(RagRunResult pass, double calc_cycles,
               double topk_cycles, size_t overlap_supertiles,
               std::vector<std::vector<baseline::Hit>> candidates);

    apu::ApuDevice &dev;
    dram::DramSystem &hbm;
    baseline::RagCorpusSpec corpus_;
    size_t topK;
    unsigned coreIdx_;
    uint64_t idsAddr_; ///< 8 batch slots of topK u32 ids each
    const baseline::IndexFlatI16 *rows_; ///< the given store, or null
    std::unique_ptr<Resident> resident_; ///< null until staged
};

} // namespace cisram::kernels

#endif // CISRAM_KERNELS_RAG_HH
