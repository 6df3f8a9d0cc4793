#include "kernels/rag.hh"

#include <algorithm>
#include <functional>
#include <numeric>
#include <optional>
#include <tuple>

#include "common/bitutils.hh"
#include "common/gsifloat.hh"
#include "common/logging.hh"
#include "gvml/gvml.hh"
#include "kernels/kernel_ctx.hh"

namespace cisram::kernels {

using apu::ApuCore;
using apu::ApuDevice;
using baseline::genEmbeddingRow;
using baseline::Hit;
using baseline::IndexFlatI16;
using baseline::RagCorpusSpec;
using gvml::Gvml;
using gvml::Vmr;
using gvml::Vr;

const char *
ragVariantName(RagVariant v)
{
    switch (v) {
      case RagVariant::NoOpt:
        return "no-opt";
      case RagVariant::Opt1:
        return "opt1";
      case RagVariant::Opt2:
        return "opt2";
      case RagVariant::Opt3:
        return "opt3";
      case RagVariant::AllOpts:
        return "all-opts";
    }
    return "?";
}

namespace {

constexpr Vr vrEmb{0}, vrQ{1}, vrT{2}, vrAcc{3}, vrBias{4},
    vrQfull{5}, vrAdmit{6};
constexpr Vmr vmStage{0}, vmAdmit{1};

/** Fixed CP/host cost of returning the top-k over the RSP FIFO. */
constexpr double returnTopkCycles = 7000.0;

/** CP merge cost per score-VR candidate set. */
constexpr double mergeCyclesPerVr = 100.0;

/**
 * On-chip ingest handshake for one streamed 64 KiB tile: DMA chain
 * setup plus the L2 -> L1 wide move. The stream itself runs at the
 * simulated HBM rate (timed separately); coalesced descriptor
 * chains (opt2) amortize the chain setup over two tiles.
 */
double
ingestCycles(const apu::TimingParams &t, bool coalesce)
{
    double init = static_cast<double>(t.move.dmaL4L2Init);
    if (coalesce)
        init /= 2.0;
    return init + t.control.dmaDescriptor + t.move.dmaL2L1;
}

/** Stage timing helper: capture cycle deltas. */
struct StageTimer
{
    explicit StageTimer(ApuCore &core) : core(core) {}

    double
    lap()
    {
        double now = core.stats().cycles();
        double delta = now - last;
        last = now;
        return delta;
    }

    ApuCore &core;
    double last = 0.0;
};

/** Merge per-VR candidates into the global top-k. */
std::vector<Hit>
mergeHits(std::vector<Hit> all, size_t k)
{
    baseline::hitFinalize(all);
    all.resize(std::min(k, all.size()));
    return all;
}

/** Biased-u16 score back to a signed dot product. */
float
unbias(uint16_t biased)
{
    return static_cast<float>(
        static_cast<int16_t>(biased ^ 0x8000));
}

/**
 * Extract the top-k of the score VR (biased u16) with the
 * associative max search, clearing each winner. Returns candidates
 * with VR-local indices; charges accrue to the caller's ledger, and
 * the caller charges the CP merge of the candidate sets.
 */
std::vector<Hit>
extractTopK(Gvml &g, ApuCore &core, Vr score, size_t k,
            size_t valid_elems)
{
    std::vector<Hit> out;
    timedLoop(core, k, [&](size_t) {
        auto mx = g.maxIndexU16(score);
        core.rspSet(score.idx, core.functional() ? mx.index : 0, 0);
        if (core.functional() && mx.index < valid_elems &&
            mx.value != 0) {
            out.push_back({unbias(mx.value), mx.index});
        }
    });
    return out;
}

/**
 * Seconds of the embedding stream hidden by double-buffered
 * streaming (RagBatchOptions::overlapStream) over an n-supertile
 * pass. With per-supertile stream time ps = stream/n and compute
 * pc = calc/n, the overlapped schedule costs
 *   stream/n + (n-1)*max(ps, pc) + calc/n + n*sync
 * so the hidden portion is
 *   hidden = stream + calc - overlapped
 *          = (n-1)*min(ps, pc) - n*sync       (clamped at 0).
 * Bound — why RagStageLatency::total()'s unclamped subtraction is
 * safe at any n: (n-1)*min(ps, pc) <= (n-1)*ps < n*ps = stream, and
 * symmetrically < calc; subtracting the sync term only shrinks it.
 * In particular a single ragged supertile (n = 1, the common case
 * for IVF's short probe-restricted streams) hides exactly 0.
 */
double
overlapHiddenSeconds(ApuDevice &dev, const apu::TimingParams &t,
                     double stream_s, double calc_s,
                     size_t supertiles)
{
    if (supertiles == 0)
        return 0.0;
    double n = static_cast<double>(supertiles);
    double per_stream = stream_s / n;
    double per_calc = calc_s / n;
    double sync =
        dev.cyclesToSeconds(
            static_cast<double>(t.move.pipeSyncL4L1)) *
        n;
    double overlapped = per_stream +
        (n - 1.0) * std::max(per_stream, per_calc) + per_calc +
        sync;
    double hidden = std::max(0.0, stream_s + calc_s - overlapped);
    cisram_assert(hidden <= stream_s && hidden <= calc_s,
                  "overlap hides more than a stage it overlaps");
    return hidden;
}

/** One L4 allocation, freed with the object. */
struct L4Block
{
    L4Block(ApuDevice &dev, uint64_t bytes)
        : dev(dev),
          addr(dev.allocator().alloc(std::max<uint64_t>(1, bytes), 512))
    {}
    ~L4Block() { dev.allocator().free(addr); }
    L4Block(const L4Block &) = delete;
    L4Block &operator=(const L4Block &) = delete;
    ApuDevice &dev;
    const uint64_t addr;
};

/**
 * Dimension-major supertile planes of `rows` rows, staged compactly
 * in L4 for the object's lifetime: the functional model of the
 * corpus stream (the HBM stream itself is timed separately).
 * Supertile st holds its `valid` rows as dim planes of exactly
 * `valid` lanes, plane d holding element d of each row. Ingest
 * writes those rows as the slot's stored head, with a zero tail for
 * the lanes past the last row; the admit plane masks them, as their
 * biased-zero dots would outrank real negative scores.
 */
class StagedPlanes
{
  public:
    /** Writes row i's dim elements to out. */
    using RowFn = std::function<void(size_t i, int16_t *out)>;

    /** @param gf16 Stage each element as its gf16 bit pattern. */
    StagedPlanes(ApuDevice &dev, size_t rows, size_t dim,
                 const RowFn &row, bool gf16 = false)
        : l_(dev.spec().vrLength), rows_(rows), dim_(dim),
          mem_(dev, rows * dim * 2)
    {
        // Rows come a block at a time and transpose into plane
        // segments, so the host holds one block of rows, not a
        // supertile.
        constexpr size_t kBlockRows = 512;
        std::vector<int16_t> block(kBlockRows * dim);
        std::vector<uint16_t> seg(kBlockRows);
        for (size_t st = 0; st * l_ < rows; ++st) {
            size_t valid = lanes(st);
            for (size_t j0 = 0; j0 < valid; j0 += kBlockRows) {
                size_t n = std::min(kBlockRows, valid - j0);
                for (size_t j = 0; j < n; ++j)
                    row(st * l_ + j0 + j, block.data() + j * dim);
                for (size_t d = 0; d < dim; ++d) {
                    const int16_t *col = block.data() + d;
                    if (gf16) {
                        for (size_t j = 0; j < n; ++j)
                            seg[j] = GsiFloat16::fromFloat(
                                         static_cast<float>(col[j * dim]))
                                         .bits();
                    } else {
                        for (size_t j = 0; j < n; ++j)
                            seg[j] = static_cast<uint16_t>(col[j * dim]);
                    }
                    dev.l4().write(plane(st, d) + j0 * 2, seg.data(),
                                   n * 2);
                }
            }
        }
    }

    /** Functional ingest of plane d of supertile st into L1 slot vm:
     * the supertile's rows as the slot's head, then a zero tail. */
    void
    ingest(ApuCore &core, Vmr vm, size_t st, size_t d) const
    {
        apu::LaneVector &slot = core.l1().lanes(vm.idx);
        size_t valid = lanes(st);
        mem_.dev.l4().read(plane(st, d), slot.head(), valid * 2);
        slot.setExtent(valid, 0);
    }

    /** Rows in supertile st. */
    size_t lanes(size_t st) const { return std::min(l_, rows_ - st * l_); }

    /** Plane d of supertile st; every earlier supertile is full. */
    uint64_t
    plane(size_t st, size_t d) const
    {
        return mem_.addr + (st * l_ * dim_ + d * lanes(st)) * 2;
    }

  private:
    size_t l_;
    size_t rows_;
    size_t dim_;
    L4Block mem_;
};

/** The planes in `slot`, staged from `row` on first use. */
const StagedPlanes &
stageOnce(std::unique_ptr<StagedPlanes> &slot, ApuDevice &dev,
          size_t rows, size_t dim, const StagedPlanes::RowFn &row,
          bool gf16 = false)
{
    if (!slot)
        slot = std::make_unique<StagedPlanes>(dev, rows, dim, row, gf16);
    return *slot;
}

} // namespace

/**
 * The functional state of the retriever's one corpus seed: the row
 * store, and each layout staged from it on first use and freed with
 * the set (a retriever stages a run once, not once per call).
 */
struct RagRetriever::Resident
{
    /**
     * Generates the base rows into `owned`, or dies unless `given`
     * holds them: its size, dim and first row.
     */
    Resident(const RagCorpusSpec &spec, uint64_t seed,
             const IndexFlatI16 *given)
        : spec(spec), seed(seed),
          owned(spec.dim, given ? std::vector<int16_t>()
                                : baseline::genEmbeddings(
                                      spec, spec.firstChunk,
                                      spec.baseChunks(), seed)),
          store(given ? *given : owned)
    {
        size_t base = spec.baseChunks();
        if (!given)
            return;
        cisram_assert(store.size() == base && store.dim() == spec.dim,
                      "RagRetriever rows hold ", store.size(), " rows x ",
                      store.dim(), " dims for a corpus of ", base,
                      " base rows x ", spec.dim);
        if (base == 0)
            return;
        std::vector<int16_t> first(spec.dim);
        genEmbeddingRow(spec, spec.globalChunk(0), seed, first.data());
        cisram_assert(std::equal(first.begin(), first.end(),
                                 store.raw().begin()),
                      "RagRetriever rows: row 0 is not chunk ",
                      spec.globalChunk(0), " at seed ", seed,
                      " (rows of another seed or shard)");
    }

    /**
     * Run row i: local position positions[i] (i if null), copied from
     * the store, or generated if it is an epoch's insert.
     */
    StagedPlanes::RowFn
    rows(const uint32_t *positions = nullptr) const
    {
        return [this, positions](size_t i, int16_t *out) {
            uint64_t p = positions ? positions[i] : i;
            if (p < store.size())
                std::copy_n(store.raw().data() + p * spec.dim, spec.dim, out);
            else
                genEmbeddingRow(spec, spec.globalChunk(p), seed, out);
        };
    }

    const RagCorpusSpec &spec;
    const uint64_t seed;
    IndexFlatI16 owned; ///< the store when none was given
    const IndexFlatI16 &store;
    std::unique_ptr<StagedPlanes> corpus; ///< every position, in order
    std::unique_ptr<StagedPlanes> gf16;
    std::unique_ptr<L4Block> tiles; ///< spatial: padded, chunk-major

    // The IVF runs, keyed by the content (not the address) of the
    // clustering they were staged from.
    std::tuple<std::vector<int16_t>, std::vector<uint64_t>,
               std::vector<uint32_t>> ivfKey;
    std::unique_ptr<StagedPlanes> centroids;
    std::vector<std::unique_ptr<StagedPlanes>> lists; ///< by list id

    /** Drop the IVF runs unless they were staged from `cl`. */
    void
    keyIvf(const baseline::IvfClustering &cl)
    {
        auto key = std::tie(cl.centroids(), cl.listOffsets(), cl.order());
        if (ivfKey != key) {
            ivfKey = key;
            centroids.reset();
            lists = std::vector<std::unique_ptr<StagedPlanes>>(
                cl.numLists());
        }
    }
};

RagRetriever::Resident &
RagRetriever::resident(uint64_t corpus_seed)
{
    cisram_assert(corpus_.numChunks <= (size_t(1) << 21),
                  "functional corpus too large");
    if (!resident_)
        resident_ = std::make_unique<Resident>(corpus_, corpus_seed, rows_);
    cisram_assert(resident_->seed == corpus_seed,
                  "RagRetriever serves corpus seed ", resident_->seed,
                  "; a functional call at corpus seed ", corpus_seed,
                  " needs a retriever of its own");
    return *resident_;
}

RagRetriever::RagRetriever(ApuDevice &dev, dram::DramSystem &hbm,
                           RagCorpusSpec corpus, size_t top_k,
                           unsigned core_idx, const IndexFlatI16 *rows)
    : dev(dev), hbm(hbm), corpus_(corpus), topK(top_k),
      coreIdx_(core_idx), rows_(rows)
{
    cisram_assert(top_k >= 1 && top_k <= 64, "unreasonable top-k");
    cisram_assert(isPow2(dev.spec().vrLength));
    cisram_assert(core_idx < dev.numCores(), "core index OOB");
    // The return-topk stage stages result ids here (one slot per
    // batch lane) for the host to read back over PCIe.
    idsAddr_ = dev.allocator().alloc(
        8 * topK * sizeof(uint32_t), 512);
}

RagRetriever::~RagRetriever()
{
    dev.allocator().free(idsAddr_);
}

std::vector<RagRunResult>
RagRetriever::finishPass(RagRunResult pass, double calc_cycles,
                         double topk_cycles, size_t overlap_supertiles,
                         std::vector<std::vector<Hit>> candidates)
{
    ApuCore &core = dev.core(coreIdx_);
    size_t lanes = candidates.size();
    double before = core.stats().cycles();
    core.chargeRaw(returnTopkCycles * static_cast<double>(lanes));
    pass.stages.returnTopk =
        dev.cyclesToSeconds(core.stats().cycles() - before);
    pass.stages.calcDistance =
        dev.cyclesToSeconds(calc_cycles - topk_cycles);
    pass.stages.topkAggregation = dev.cyclesToSeconds(topk_cycles);

    // Overlapped corpus streaming: with both DMA engines active, the
    // HBM stream for supertile st+1 lands in the spare L4 buffer
    // while the VXU scores supertile st. The stage latencies keep
    // their full (sequential) attribution; only overlapHidden — the
    // portion of the stream the pipeline hides, provably bounded by
    // both loadEmbedding and calcDistance (see overlapHiddenSeconds)
    // — feeds back into total().
    pass.stages.overlapHidden = overlapHiddenSeconds(
        dev, dev.timing(), pass.stages.loadEmbedding,
        pass.stages.calcDistance, overlap_supertiles);

    // One corpus pass serves every lane, so an uncorrectable ECC
    // error taints every result in it.
    Status ecc = hbm.takeFaultStatus();
    double b = static_cast<double>(lanes);
    std::vector<RagRunResult> results(lanes);
    for (size_t q = 0; q < lanes; ++q) {
        RagRunResult &r = results[q];
        r.stages.loadEmbedding = pass.stages.loadEmbedding / b;
        r.stages.loadQuery = pass.stages.loadQuery / b;
        r.stages.calcDistance = pass.stages.calcDistance / b;
        r.stages.topkAggregation = pass.stages.topkAggregation / b;
        r.stages.returnTopk = pass.stages.returnTopk / b;
        r.stages.overlapHidden = pass.stages.overlapHidden / b;
        r.computeSeconds = r.stages.calcDistance;
        r.dramBytes = pass.dramBytes / b;
        r.cacheBytes = 2.0 * pass.dramBytes / b;
        r.hits = mergeHits(std::move(candidates[q]), topK);
        r.status = ecc;

        // Stage the ids into the device id buffer (slot q).
        r.topkIdsAddr = idsAddr_ + q * topK * sizeof(uint32_t);
        r.topkIdsCount = r.hits.size();
        std::vector<uint32_t> ids;
        for (const Hit &h : r.hits)
            ids.push_back(static_cast<uint32_t>(h.id));
        if (!ids.empty())
            dev.l4().write(r.topkIdsAddr, ids.data(),
                           ids.size() * sizeof(uint32_t));
    }
    return results;
}

RagRunResult
RagRetriever::retrieve(const std::vector<int16_t> &query,
                       RagVariant variant, uint64_t corpus_seed)
{
    cisram_assert(query.size() == corpus_.dim, "query dim mismatch");
    cisram_assert(corpus_.epochView == nullptr,
                  "epoch-overlaid corpora serve via retrieveBatch");
    switch (variant) {
      case RagVariant::NoOpt:
      case RagVariant::Opt3: // no standalone effect on the spatial base
        return retrieveSpatial(query, false, corpus_seed);
      case RagVariant::Opt2:
        return retrieveSpatial(query, true, corpus_seed);
      case RagVariant::Opt1:
        return retrieveTemporal(query, false, false, corpus_seed);
      case RagVariant::AllOpts:
        return retrieveTemporal(query, true, true, corpus_seed);
    }
    cisram_panic("unknown variant");
}

RagRunResult
RagRetriever::retrieveGf16(const std::vector<int16_t> &query,
                           uint64_t corpus_seed)
{
    cisram_assert(query.size() == corpus_.dim, "query dim mismatch");
    cisram_assert(corpus_.epochView == nullptr,
                  "epoch-overlaid corpora serve via retrieveBatch");
    ApuCore &core = dev.core(coreIdx_);
    Gvml g(core);
    const auto &t = dev.timing();
    size_t l = dev.spec().vrLength;
    size_t dim = corpus_.dim;
    size_t chunks = corpus_.numChunks;
    size_t supertiles = divCeil(chunks, l);
    bool fnl = core.functional();

    RagRunResult res;
    res.dramBytes = static_cast<double>(chunks) *
        static_cast<double>(dim) * 2.0;
    res.stages.loadEmbedding = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(res.dramBytes));

    // Dimension-major gf16 planes.
    const StagedPlanes *planes = nullptr;
    if (fnl) {
        Resident &staged = resident(corpus_seed);
        planes = &stageOnce(staged.gf16, dev, chunks, dim, staged.rows(),
                            true);
    }

    core.stats().reset();
    StageTimer timer(core);

    core.dmaL4ToL3(0, 0, dim * 2); // bf query layout in L3
    res.stages.loadQuery = dev.cyclesToSeconds(timer.lap());

    const Vr vrOrd{7}, vrS1{8}, vrS2{9};
    std::vector<Hit> candidates;
    double topk_cycles = 0.0;
    auto supertile = [&](size_t st) {
        g.cpyImm16(vrAcc, 0); // gf16 +0.0
        timedLoop(core, dim, [&](size_t d) {
            core.chargeRaw(ingestCycles(t, true));
            if (planes)
                planes->ingest(core, vmStage, st, d);
            g.load16(vrEmb, vmStage);
            g.macImmGf16(vrEmb, vrQ, vrT, vrAcc,
                         GsiFloat16::fromFloat(
                             static_cast<float>(query[d]))
                             .bits());
        });
        g.orderGf16(vrOrd, vrAcc, vrS1, vrS2);

        // Padding lanes hold gf16 +0.0, whose key (0x8000) outranks
        // every negative score: a ragged supertile masks them to key
        // 0x0000 with retrieveBatch's admit-plane select, in both
        // modes.
        size_t valid = std::min(l, chunks - st * l);
        if (valid < l) {
            core.chargeRaw(ingestCycles(t, true));
            if (fnl) { // every row admitted, then a zero tail
                apu::LaneVector &slot = core.l1().lanes(vmAdmit.idx);
                std::fill_n(slot.head(), valid, 1);
                slot.setExtent(valid, 0);
            }
            g.load16(vrAdmit, vmAdmit);
            g.cpyImm16Nmsk(vrOrd, 0x0000, vrAdmit);
        }

        double before = core.stats().cycles();
        // Extract against the ordered keys; recover the gf16 score
        // from the accumulator at the winning index. A cleared or
        // masked key (0) is no hit.
        for (size_t k = 0; k < topK; ++k) {
            auto mx = g.maxIndexU16(vrOrd);
            core.rspSet(vrOrd.idx, fnl ? mx.index : 0, 0);
            if (fnl && mx.index < valid && mx.value != 0) {
                uint16_t bits = core.vr().lanes(vrAcc.idx).lane(mx.index);
                candidates.push_back(
                    {GsiFloat16::fromBits(bits).toFloat(),
                     st * l + mx.index});
            }
        }
        core.chargeRaw(mergeCyclesPerVr);
        topk_cycles += core.stats().cycles() - before;
    };
    // The full supertiles price alike (TimingOnly runs one under a
    // repeat count); a ragged last one runs once, with its mask.
    size_t full = chunks / l;
    timedLoop(core, full, supertile);
    if (full < supertiles)
        supertile(full);
    return finishPass(std::move(res), timer.lap(), topk_cycles, 0,
                      {std::move(candidates)})[0];
}

std::vector<RagRunResult>
RagRetriever::retrieveBatch(
    const std::vector<std::vector<int16_t>> &queries,
    uint64_t corpus_seed, RagBatchOptions opts)
{
    size_t batch = queries.size();
    cisram_assert(batch >= 1 && batch <= 8,
                  "batch size must be 1..8 (one accumulator VR per "
                  "query)");
    for (const auto &q : queries)
        cisram_assert(q.size() == corpus_.dim, "query dim mismatch");
    cisram_assert(opts.search.nprobe == 0 || opts.ivf != nullptr,
                  "RagBatchOptions::search.nprobe = ",
                  opts.search.nprobe,
                  " probes inverted lists, but RagBatchOptions::ivf "
                  "holds no clustering");

    ApuCore &core = dev.core(coreIdx_);
    Gvml g(core);
    const auto &t = dev.timing();
    size_t l = dev.spec().vrLength;
    size_t dim = corpus_.dim;
    bool fnl = core.functional();
    uint16_t filter = opts.search.filterMask;
    bool filtered = filter != baseline::kFilterAll;
    bool mutated = corpus_.epochView != nullptr;
    if (mutated) {
        cisram_assert(corpus_.numChunks ==
                          corpus_.epochView->baseChunks +
                              corpus_.epochView->inserted.size(),
                      "epoch view / spec chunk count mismatch");
    }

    // Accumulators live in VRs 8..15; working registers below.
    auto acc = [](size_t q) {
        return Vr(8 + static_cast<unsigned>(q));
    };

    // The scan is a list of runs, each a list of rows staged as
    // consecutive supertiles and scored by a subset of the batch.
    // The exhaustive scan is one run over every local position; IVF
    // runs one per probed inverted list, after its coarse pass.
    struct Run
    {
        size_t rows;
        const uint32_t *positions; ///< row -> position; null: identity
        std::vector<size_t> lanes; ///< batch lanes scoring the run
        std::unique_ptr<StagedPlanes> *planes; ///< resident; null: timing

        uint64_t
        position(size_t row) const
        {
            return positions ? positions[row] : row;
        }
    };
    std::vector<size_t> every_lane(batch);
    std::iota(every_lane.begin(), every_lane.end(), size_t(0));
    const baseline::IvfClustering *cl =
        opts.search.nprobe > 0 ? opts.ivf : nullptr;
    size_t K = 0, nprobe = 0;
    std::vector<std::vector<uint32_t>> probes(batch);
    std::vector<Run> runs;
    Resident *staged = fnl ? &resident(corpus_seed) : nullptr;
    if (!cl) {
        runs.push_back({corpus_.numChunks, nullptr, every_lane,
                        staged ? &staged->corpus : nullptr});
    } else {
        K = cl->numLists();
        nprobe = std::min(opts.search.nprobe, K);
        cisram_assert(cl->dim() == dim, "clustering dim mismatch");
        cisram_assert(!mutated, "IVF probing over an epoch-overlaid "
                                "corpus is not supported");
        cisram_assert(cl->numChunks() == corpus_.numChunks,
                      "clustering built for a different corpus");
        cisram_assert(K <= l, "centroid table exceeds one VR");
        // CP-side probe selection mirror of the golden index. The
        // device's coarse pass runs the same selection on the VXU; in
        // functional mode the two are asserted identical, which is
        // what makes the device-vs-golden bit-compare meaningful.
        std::vector<std::vector<size_t>> by_list(K);
        for (size_t q = 0; q < batch; ++q) {
            probes[q] = cl->selectProbes(queries[q].data(), nprobe);
            for (uint32_t list : probes[q])
                by_list[list].push_back(q);
        }
        // Probed lists in ascending list order: each streams once per
        // batch and only its probing queries score it. Positions stay
        // ascending within a list, which keeps per-supertile tie
        // extraction exact. A list stages the first time it is probed.
        if (staged)
            staged->keyIvf(*cl);
        for (size_t list = 0; list < K; ++list)
            if (!by_list[list].empty())
                runs.push_back(
                    {cl->listSize(list),
                     cl->order().data() + cl->listOffsets()[list],
                     std::move(by_list[list]),
                     staged ? &staged->lists[list] : nullptr});
    }
    uint64_t rows = 0;
    size_t supertiles = 0;
    for (const Run &run : runs) {
        rows += run.rows;
        supertiles += divCeil(run.rows, l);
    }

    // Stream budget: the centroid table, then every scanned row's
    // embedding. The predicate bitmask plane (one u16 mark per row)
    // streams alongside when a filter is armed: 1/dim of the
    // embedding bytes — the "nearly free" part of filtered search. An
    // epoch-overlaid corpus streams a tombstone plane of the same
    // shape, so masking deletes costs the same near-nothing. The
    // exhaustive stream divided by a probing one is the scan
    // reduction bench_ivf_recall reports.
    RagRunResult pass;
    pass.dramBytes =
        (static_cast<double>(K) * dim +
         static_cast<double>(rows) *
             (static_cast<double>(dim) + (filtered ? 1.0 : 0.0) +
              (mutated ? 1.0 : 0.0))) *
        2.0;
    pass.stages.loadEmbedding = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(pass.dramBytes));

    core.stats().reset();
    StageTimer timer(core);

    // Queries staged into the CP's L3 (broadcast-friendly layout).
    core.dmaL4ToL3(0, 0, batch * dim * 2);
    pass.stages.loadQuery = dev.cyclesToSeconds(timer.lap());

    // The bias constant prepares the score transform, not the query
    // transfer: it charges to calc-distance (the next lap), keeping
    // load-query a pure measure of staging the query vectors.
    g.cpyImm16(vrBias, 0x8000);

    // One run through the per-supertile body: zero the scoring
    // lanes' accumulators, ingest each of dim planes into a broadcast
    // MAC (macPlanes), ingest the admit plane, then bias, mask and
    // extract k winners per lane (ids mapped to the run's positions)
    // before `merges` CP merges. The run's planes stay resident once
    // staged; its admit plane (1 where row i may match, every row
    // when `admitted` is empty) follows the batch's filter, so its
    // lanes are written straight into the admit slot.
    double topk_cycles = 0.0;
    auto scan = [&](const Run &run, const StagedPlanes::RowFn &row,
                    const std::function<bool(size_t)> &admitted,
                    size_t k, size_t merges,
                    std::vector<std::vector<Hit>> &winners) {
        if (run.rows == 0) // an empty probed list
            return;
        const StagedPlanes *planes =
            run.planes ? &stageOnce(*run.planes, dev, run.rows, dim, row)
                       : nullptr;
        std::vector<Vr> accs;
        for (size_t q : run.lanes)
            accs.push_back(acc(q));
        std::vector<uint16_t> imms; // plane-major, for the lane pass
        for (size_t d = 0; fnl && d < dim; ++d)
            for (size_t q : run.lanes)
                imms.push_back(static_cast<uint16_t>(queries[q][d]));
        auto plane = [&](size_t) {
            core.chargeRaw(ingestCycles(t, true));
            g.load16(vrEmb, vmStage);
            g.macImmS16(vrEmb, vrQ, vrT, accs.data(), imms.data(),
                        accs.size());
        };
        timedLoop(core, divCeil(run.rows, l), [&](size_t st) {
            for (Vr a : accs)
                g.cpyImm16(a, 0);
            macPlanes(core, plane, vmStage, vrEmb, vrQ, vrT, accs.data(),
                      accs.size(), imms.data(),
                      planes ? planes->plane(st, 0) : 0,
                      planes ? planes->lanes(st) : 0, dim);

            // AND the admit plane into the match mask: one
            // negated-mask select per score VR writes the masked-out
            // sentinel (biased 0x0000, a dot of -32768 no int16
            // embedding can produce) into excluded lanes, which
            // extractTopK already skips. The marks go straight into
            // the slot as ingest leaves a plane: the rows, a zero tail.
            core.chargeRaw(ingestCycles(t, true));
            size_t valid = fnl ? std::min(l, run.rows - st * l) : l;
            if (planes) {
                apu::LaneVector &slot = core.l1().lanes(vmAdmit.idx);
                uint16_t *marks = slot.head();
                if (admitted)
                    for (size_t i = 0; i < valid; ++i)
                        marks[i] = admitted(st * l + i);
                else
                    std::fill_n(marks, valid, 1);
                slot.setExtent(valid, 0);
            }
            g.load16(vrAdmit, vmAdmit);

            double before = core.stats().cycles();
            for (size_t q : run.lanes) {
                g.xor16(acc(q), acc(q), vrBias);
                g.cpyImm16Nmsk(acc(q), 0x0000, vrAdmit);
                for (Hit h : extractTopK(g, core, acc(q), k, valid)) {
                    h.id = run.position(st * l + h.id);
                    winners[q].push_back(h);
                }
            }
            for (size_t m = 0; m < merges; ++m)
                core.chargeRaw(mergeCyclesPerVr);
            topk_cycles += core.stats().cycles() - before;
        });
    };

    if (cl) {
        // Coarse pass: the centroid table (K x dim int16, ~46 KiB at
        // K = 64) runs as one supertile scoring lists instead of
        // chunks. Each query's nprobe winners are its probed lists,
        // and the CP merges the batch's selections once.
        const int16_t *cents = cl->centroids().data();
        std::vector<std::vector<Hit>> picked(batch);
        scan({K, nullptr, every_lane,
              staged ? &staged->centroids : nullptr},
             [&](size_t i, int16_t *out) {
                 std::copy_n(cents + i * dim, dim, out);
             },
             {}, nprobe, 1, picked);
        for (size_t q = 0; fnl && q < batch; ++q) {
            std::vector<uint32_t> dev_probes;
            for (const Hit &h : picked[q])
                dev_probes.push_back(static_cast<uint32_t>(h.id));
            cisram_assert(dev_probes == probes[q],
                          "device coarse pass diverged from golden "
                          "probe selection");
        }
    }

    std::vector<std::vector<Hit>> candidates(batch);
    for (const Run &run : runs) {
        // Admit marks: epoch liveness (tombstoned chunks keep their
        // staged position but never match) AND the metadata
        // predicate; with neither, every row is admitted.
        std::function<bool(size_t)> admitted;
        if (mutated || filtered)
            admitted = [&](size_t i) {
                uint64_t p = run.position(i);
                return corpus_.chunkLive(p) &&
                    (!filtered ||
                     baseline::passesFilter(
                         filter, baseline::chunkLabel(
                                     corpus_.globalChunk(p),
                                     corpus_seed)));
            };
        scan(run,
             staged ? staged->rows(run.positions) : StagedPlanes::RowFn(),
             admitted, topK, run.lanes.size(), candidates);
    }
    return finishPass(std::move(pass), timer.lap(), topk_cycles,
                      opts.overlapStream ? supertiles : 0,
                      std::move(candidates));
}

RagRunResult
RagRetriever::retrieveSpatial(const std::vector<int16_t> &query,
                              bool coalesce, uint64_t corpus_seed)
{
    ApuCore &core = dev.core(coreIdx_);
    Gvml g(core);
    const auto &t = dev.timing();
    size_t l = dev.spec().vrLength;
    size_t pad = size_t(1) << log2Ceil(corpus_.dim);
    size_t cpt = l / pad; // chunks per tile
    size_t chunks = corpus_.numChunks;

    RagRunResult res;
    res.dramBytes =
        static_cast<double>(chunks) * static_cast<double>(pad) * 2.0;

    // Off-chip embedding stream, timed by the HBM simulator.
    res.stages.loadEmbedding = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(res.dramBytes));

    // Functional staging: resident padded chunk-major tiles + query.
    std::optional<L4Block> qbuf;
    bool fnl = core.functional();
    if (fnl) {
        Resident &staged = resident(corpus_seed);
        if (!staged.tiles) {
            staged.tiles = std::make_unique<L4Block>(
                dev, divCeil(chunks, cpt) * l * 2);
            auto row = staged.rows();
            std::vector<int16_t> tile(l);
            for (size_t tl = 0; tl < divCeil(chunks, cpt); ++tl) {
                std::fill(tile.begin(), tile.end(), 0);
                for (size_t c = 0; c < cpt && tl * cpt + c < chunks; ++c)
                    row(tl * cpt + c, tile.data() + c * pad);
                dev.l4().write(staged.tiles->addr + tl * l * 2,
                               tile.data(), l * 2);
            }
        }
        qbuf.emplace(dev, pad * 2);
        std::vector<uint16_t> qpad(pad, 0);
        for (size_t d = 0; d < corpus_.dim; ++d)
            qpad[d] = static_cast<uint16_t>(query[d]);
        dev.l4().write(qbuf->addr, qpad.data(), pad * 2);
    }
    uint64_t q_addr = qbuf ? qbuf->addr : 0;

    core.stats().reset();
    StageTimer timer(core);

    // ---- load query ------------------------------------------------
    core.dmaL4ToL2(q_addr, 0, pad * 2);
    core.dmaL2ToL1(vmStage.idx);
    g.load16(vrQ, vmStage);
    g.cpySubgrp16Grp(vrQ, vrQ, l, pad, 0);
    res.stages.loadQuery = dev.cyclesToSeconds(timer.lap());
    // Bias setup charges to calc-distance (see retrieveBatch).
    g.cpyImm16(vrBias, 0x8000);

    // ---- distance calculation --------------------------------------
    // Group-head scores are scattered in the tile VR; the RSP FIFO
    // moves them one element at a time into the resident score VR
    // (the fine-grained element access the paper attributes to the
    // unoptimized mapping). Once a score VR's tiles are in, its top-k
    // is extracted in place and the VR cleared for the next (charged
    // to the aggregation stage).
    std::vector<Hit> candidates;
    double topk_cycles = 0.0;
    const Vr vrScore{6};
    uint64_t tiles = fnl ? resident_->tiles->addr : 0;

    // One score VR: its full tiles price alike and a ragged last tile
    // is a run of one (scoreTiles); then its top-k, the CP merge and
    // the clear.
    auto score_vr = [&](size_t s) {
        size_t n = std::min(l, chunks - s * l);
        size_t first = s * (l / cpt);
        auto run = [&](size_t tile, size_t count, size_t heads) {
            scoreTiles(core, ingestCycles(t, coalesce),
                       t.move.pioStorePerElem, vmStage, vrEmb, vrQ, vrT,
                       vrBias, vrScore, pad, heads, tiles, tile, count);
        };
        run(first, n / cpt, cpt);
        if (n % cpt)
            run(first + n / cpt, 1, n % cpt);
        double before = core.stats().cycles();
        for (Hit h : extractTopK(g, core, vrScore, topK, n)) {
            h.id += s * l;
            candidates.push_back(h);
        }
        core.chargeRaw(mergeCyclesPerVr);
        // Clear the drained VR so stale scores never leak into the
        // next fill's partial extraction.
        g.cpyImm16(vrScore, 0);
        topk_cycles += core.stats().cycles() - before;
    };
    // The full score VRs price alike; a ragged last one runs once.
    timedLoop(core, chunks / l, score_vr);
    if (chunks % l)
        score_vr(chunks / l);

    return finishPass(std::move(res), timer.lap(), topk_cycles, 0,
                      {std::move(candidates)})[0];
}

RagRunResult
RagRetriever::retrieveTemporal(const std::vector<int16_t> &query,
                               bool coalesce, bool bf_query,
                               uint64_t corpus_seed)
{
    ApuCore &core = dev.core(coreIdx_);
    Gvml g(core);
    const auto &t = dev.timing();
    size_t l = dev.spec().vrLength;
    size_t dim = corpus_.dim;
    size_t chunks = corpus_.numChunks;
    size_t supertiles = divCeil(chunks, l);

    RagRunResult res;
    res.dramBytes = static_cast<double>(chunks) *
        static_cast<double>(dim) * 2.0;
    res.stages.loadEmbedding = hbm.streamReadSeconds(
        0, static_cast<uint64_t>(res.dramBytes));

    // Functional staging: the resident exhaustive run + query.
    const StagedPlanes *planes = nullptr;
    std::optional<L4Block> qbuf;
    bool fnl = core.functional();
    if (fnl) {
        Resident &staged = resident(corpus_seed);
        planes = &stageOnce(staged.corpus, dev, chunks, dim, staged.rows());
        qbuf.emplace(dev, l * 2);
        std::vector<uint16_t> qv(l, 0);
        for (size_t d = 0; d < dim; ++d)
            qv[d] = static_cast<uint16_t>(query[d]);
        dev.l4().write(qbuf->addr, qv.data(), l * 2);
    }
    uint64_t q_addr = qbuf ? qbuf->addr : 0;

    core.stats().reset();
    StageTimer timer(core);

    // ---- load query -------------------------------------------------
    core.dmaL4ToL2(q_addr, 0, dim * 2);
    core.dmaL2ToL1(vmStage.idx);
    g.load16(vrQfull, vmStage);
    if (bf_query) {
        // Broadcast-friendly layout: the query is staged into the
        // CP's L3 so scalars broadcast as immediates.
        core.dmaL4ToL3(q_addr, 0, dim * 2);
    }
    res.stages.loadQuery = dev.cyclesToSeconds(timer.lap());
    // Bias setup charges to calc-distance (see retrieveBatch).
    g.cpyImm16(vrBias, 0x8000);

    // ---- distance calculation ----------------------------------------
    std::vector<Hit> candidates;
    double topk_cycles = 0.0;
    const std::vector<uint16_t> imms(query.begin(), query.end());
    // One plane: the query element broadcasts as an immediate
    // (AllOpts) or is copied out of vrQfull (Opt1).
    auto plane = [&](size_t d) {
        core.chargeRaw(ingestCycles(t, coalesce));
        g.load16(vrEmb, vmStage);
        if (bf_query) {
            g.macImmS16(vrEmb, vrQ, vrT, &vrAcc, imms.data() + d, 1);
        } else {
            g.cpySubgrp16Grp(vrQ, vrQfull, l, 1, d);
            g.mulS16(vrT, vrEmb, vrQ);
            g.addS16(vrAcc, vrAcc, vrT);
        }
    };
    timedLoop(core, supertiles, [&](size_t st) {
        g.cpyImm16(vrAcc, 0);
        macPlanes(core, plane, vmStage, vrEmb, vrQ, vrT, &vrAcc, 1,
                  imms.data(), planes ? planes->plane(st, 0) : 0,
                  planes ? planes->lanes(st) : 0, dim);
        g.xor16(vrAcc, vrAcc, vrBias);

        // Inline per-super-tile top-k (scores stay resident);
        // cycles re-attributed to the aggregation stage below.
        double before = core.stats().cycles();
        size_t valid = fnl ? std::min(l, chunks - st * l) : l;
        auto part = extractTopK(g, core, vrAcc, topK, valid);
        core.chargeRaw(mergeCyclesPerVr);
        for (auto &h : part)
            h.id += st * l;
        candidates.insert(candidates.end(), part.begin(),
                          part.end());
        topk_cycles += core.stats().cycles() - before;
    });
    return finishPass(std::move(res), timer.lap(), topk_cycles, 0,
                      {std::move(candidates)})[0];
}

} // namespace cisram::kernels
