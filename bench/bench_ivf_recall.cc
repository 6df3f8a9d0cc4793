/**
 * @file
 * IVF-lite recall-vs-scan trade-off on the paper's 200 GB corpus
 * (DESIGN.md section 11, EXPERIMENTS.md "IVF recall curve").
 *
 * The paper's ENNS loop scans every chunk; this bench measures what
 * the clustered index buys on the same 3.3 M-chunk corpus under the
 * clustered corpus model (topics > 0): for each nprobe it reports
 *  - recall@10 against the exhaustive CPU answer (exact, so the
 *    number is deterministic and gates),
 *  - the scan reduction (exhaustive streamed bytes / IVF streamed
 *    bytes, from the device's simulated HBM ledger),
 *  - the simulated device retrieval latency, and
 *  - the nprobe = K identity check (probing every list must
 *    reproduce the exhaustive top-k bit-for-bit).
 * It also times a metadata-filtered pass at the operating point: the
 * predicate plane adds one u16 per probed chunk to the stream and
 * one masked select per score VR, so the overhead should be ~0.3%.
 *
 * Everything gated is exact CPU arithmetic or simulated time, so the
 * snapshot diffs clean on any machine (BenchGate.IvfRecall*).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "baseline/ivf.hh"
#include "baseline/timing_models.hh"
#include "baseline/workloads.hh"
#include "bench_report.hh"
#include "common/table.hh"
#include "kernels/rag.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::kernels;

namespace {

constexpr uint64_t kSeed = 97;
constexpr size_t kTopK = 10;
constexpr size_t kQueries = 8; ///< one full device batch

/** One TimingOnly device batch; returns per-query result [0]. */
RagRunResult
timedBatch(const RagCorpusSpec &spec,
           const std::vector<std::vector<int16_t>> &queries,
           RagSearchParams search, const IvfClustering *ivf)
{
    apu::ApuDevice dev;
    dev.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, spec, kTopK);
    RagBatchOptions opts;
    opts.overlapStream = true;
    opts.search = search;
    opts.ivf = ivf;
    return retriever.retrieveBatch(queries, kSeed, opts)[0];
}

double
recallAt10(const std::vector<Hit> &got,
           const std::vector<Hit> &truth)
{
    size_t inter = 0;
    for (const Hit &h : got)
        for (const Hit &t : truth)
            if (h.id == t.id) {
                ++inter;
                break;
            }
    return static_cast<double>(inter) /
        static_cast<double>(truth.size());
}

} // namespace

int
main()
{
    std::printf("== IVF-lite recall vs scan reduction (200 GB "
                "corpus) ==\n");
    bench::BenchReport report("ivf_recall");
    report.note("units",
                "latency ms simulated; recall exact vs exhaustive "
                "CPU top-10; scan reduction = exhaustive HBM bytes "
                "/ IVF HBM bytes");

    // The paper's 200 GB corpus under the clustered model: 32
    // topics give the coarse quantizer real structure to find.
    RagCorpusSpec spec = ragCorpora()[2];
    spec.topics = 32;
    IvfBuildConfig build{32, 16384, 4};

    // The corpus is generated once, into the flat CPU golden; the
    // coarse quantizer trains from its rows.
    std::printf("materializing the flat CPU golden (%.1f GB) ...\n",
                spec.embeddingBytes() / 1e9);
    IndexFlatI16 flat(spec.dim, genEmbeddings(spec, spec.firstChunk,
                                              spec.numChunks, kSeed));

    std::printf("training coarse quantizer (K=%zu) over %zu chunks "
                "...\n",
                build.numLists, spec.numChunks);
    auto cl = IvfClustering::build(flat, build);
    IndexIvfI16 ivf(flat, cl, spec, kSeed);

    std::vector<std::vector<int16_t>> queries;
    std::vector<std::vector<Hit>> truth;
    for (size_t q = 0; q < kQueries; ++q) {
        queries.push_back(genQueryForTopic(
            spec, (q * 5) % spec.topics, 500 + q, kSeed));
        truth.push_back(flat.search(queries[q].data(), kTopK));
    }

    // Per-query (batch = 1) timing is the headline: a batch unions
    // its queries' probe lists, so batching *across topics* dilutes
    // the scan reduction — reported separately below as the
    // amortization caveat.
    RagRunResult exhaustive = timedBatch(
        spec, {queries[0]}, RagSearchParams{}, nullptr);
    RagRunResult exhaustive8 =
        timedBatch(spec, queries, RagSearchParams{}, nullptr);
    double ex_ms = exhaustive.stages.total() * 1e3;
    report.scalar("exhaustive_retrieval_ms", ex_ms);
    report.scalar("exhaustive_hbm_bytes", exhaustive.dramBytes);

    AsciiTable table({"nprobe", "recall@10", "scan reduction",
                      "retrieval (ms)", "vs exhaustive",
                      "batch-8 reduction"});
    const size_t sweep[] = {1, 2, 4, 8, build.numLists};
    size_t operating_nprobe = 0;
    double operating_reduction = 0, operating_recall = 0;
    for (size_t nprobe : sweep) {
        double recall = 0;
        for (size_t q = 0; q < kQueries; ++q)
            recall += recallAt10(ivf.search(queries[q].data(),
                                            kTopK, nprobe),
                                 truth[q]);
        recall /= static_cast<double>(kQueries);

        // Average the per-query stream over every query (probe
        // sets differ per topic, so one query is not the corpus).
        double ms = 0, bytes = 0;
        for (size_t q = 0; q < kQueries; ++q) {
            RagRunResult r = timedBatch(
                spec, {queries[q]},
                RagSearchParams{nprobe, kFilterAll}, &cl);
            ms += r.stages.total() * 1e3;
            bytes += r.dramBytes;
        }
        ms /= static_cast<double>(kQueries);
        bytes /= static_cast<double>(kQueries);
        double reduction = exhaustive.dramBytes / bytes;

        RagRunResult r8 =
            timedBatch(spec, queries,
                       RagSearchParams{nprobe, kFilterAll}, &cl);
        double reduction8 = exhaustive8.dramBytes / r8.dramBytes;

        std::string tag = "nprobe=" + std::to_string(nprobe);
        report.scalar("recall_at_10/" + tag, recall);
        report.scalar("scan_reduction_speedup/" + tag, reduction);
        report.scalar("ivf_retrieval_ms/" + tag, ms);
        report.scalar("batch8_scan_reduction_speedup/" + tag,
                      reduction8);
        table.addRow({std::to_string(nprobe),
                      formatDouble(recall, 3),
                      formatDouble(reduction, 1) + "x",
                      formatDouble(ms, 2),
                      formatDouble(ex_ms / ms, 1) + "x",
                      formatDouble(reduction8, 1) + "x"});

        // Operating point: the smallest probe budget that clears
        // 0.95 recall@10 (the acceptance bar this bench gates).
        if (operating_nprobe == 0 && recall >= 0.95) {
            operating_nprobe = nprobe;
            operating_reduction = reduction;
            operating_recall = recall;
        }
    }
    table.print();
    std::printf("(batch-8 reduction unions eight topics' probe "
                "lists — the amortization trade-off of batching "
                "across topics)\n");

    // nprobe = K identity: probing every list is the exhaustive
    // scan, bit-for-bit (scored hits compare exactly).
    bool identity = true;
    for (size_t q = 0; q < kQueries; ++q) {
        auto probed =
            ivf.search(queries[q].data(), kTopK, build.numLists);
        if (probed.size() != truth[q].size()) {
            identity = false;
            break;
        }
        for (size_t i = 0; i < probed.size(); ++i)
            if (probed[i].id != truth[q][i].id ||
                probed[i].score != truth[q][i].score)
                identity = false;
    }
    report.scalar("nprobe_k_identity", identity ? 1.0 : 0.0);
    std::printf("\nnprobe=K identity vs exhaustive: %s\n",
                identity ? "exact" : "MISMATCH");

    if (operating_nprobe == 0) {
        std::fprintf(stderr, "no nprobe reached 0.95 recall@10\n");
        return 1;
    }
    report.scalar("operating_nprobe",
                  static_cast<double>(operating_nprobe));
    report.scalar("recall_at_operating_point", operating_recall);
    report.scalar("scan_reduction_at_recall95_speedup",
                  operating_reduction);
    std::printf("operating point: nprobe=%zu -> recall@10 %.3f at "
                "%.1fx scan reduction (acceptance: >=0.95 recall, "
                ">=10x reduction)\n",
                operating_nprobe, operating_recall,
                operating_reduction);

    // Filtered pass at the operating point: the predicate plane
    // streams one u16 per probed chunk next to dim u16s of
    // embedding, so the overhead should be ~1/dim.
    RagRunResult unf = timedBatch(
        spec, queries, RagSearchParams{operating_nprobe, kFilterAll},
        &cl);
    RagRunResult fil = timedBatch(
        spec, queries,
        RagSearchParams{operating_nprobe, uint16_t(0x000f)}, &cl);
    double overhead_pct = (fil.stages.total() / unf.stages.total() -
                           1.0) *
        100.0;
    report.scalar("filter_overhead_pct", overhead_pct);
    report.scalar("filter_extra_hbm_bytes",
                  fil.dramBytes - unf.dramBytes);
    std::printf("metadata filter overhead at nprobe=%zu: %.2f%% "
                "latency, %.0f extra HBM bytes/query\n",
                operating_nprobe, overhead_pct,
                fil.dramBytes - unf.dramBytes);

    bool ok = identity && operating_reduction >= 10.0;
    std::printf("%s\n", ok ? "ACCEPTANCE MET" : "ACCEPTANCE FAILED");
    return ok ? 0 : 1;
}
