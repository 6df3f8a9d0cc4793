/**
 * @file
 * RAG retrieval on the compute-in-SRAM device (paper Section 5.3):
 * build a small corpus, serve a query with exact nearest-neighbour
 * search on the simulated APU, verify the top-k against FAISS-lite,
 * then time the paper's 200 GB configuration.
 */

#include <cstdio>

#include "baseline/faisslite.hh"
#include "baseline/timing_models.hh"
#include "kernels/rag.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::kernels;

int
main()
{
    // ---- functional retrieval over a 20k-chunk corpus ----------
    RagCorpusSpec corpus{"demo", 0, 20000, 368};
    const uint64_t seed = 2026;
    auto query = genQuery(corpus.dim, 99);

    apu::ApuDevice dev;
    dram::DramSystem hbm(dram::hbm2eConfig());
    RagRetriever retriever(dev, hbm, corpus, 5);
    auto result = retriever.retrieve(query, RagVariant::AllOpts,
                                     seed);

    // Reference: FAISS-lite exact search over the same embeddings.
    IndexFlatI16 index(corpus.dim, genEmbeddings(corpus, 0,
                                                 corpus.numChunks, seed));
    auto expect = index.search(query.data(), 5);

    std::printf("top-5 over %zu chunks (APU vs FAISS-lite):\n",
                corpus.numChunks);
    bool ok = result.hits.size() == expect.size();
    for (size_t i = 0; i < expect.size(); ++i) {
        std::printf("  #%zu chunk %6zu score %6.0f | chunk %6zu "
                    "score %6.0f\n",
                    i + 1, result.hits[i].id, result.hits[i].score,
                    expect[i].id, expect[i].score);
        ok = ok && result.hits[i] == expect[i];
    }
    std::printf("exactness: %s\n\n", ok ? "PASS" : "FAIL");
    if (!ok)
        return 1;

    // ---- paper-scale latency (200 GB corpus) --------------------
    const auto &big = ragCorpora()[2];
    apu::ApuDevice tdev;
    tdev.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem thbm(dram::hbm2eConfig());
    RagRetriever timed(tdev, thbm, big, 5);
    auto q2 = genQuery(big.dim, 1);

    XeonTimingModel cpu;
    double cpu_ms = cpu.ennsRetrievalMs(big.embeddingBytes());
    for (auto v : {RagVariant::NoOpt, RagVariant::AllOpts}) {
        auto r = timed.retrieve(q2, v, 1);
        std::printf("%s corpus, %-8s: %.1f ms retrieval "
                    "(CPU model: %.1f ms, speedup %.1fx)\n",
                    big.label, ragVariantName(v),
                    r.stages.total() * 1e3, cpu_ms,
                    cpu_ms / (r.stages.total() * 1e3));
    }
    return 0;
}
