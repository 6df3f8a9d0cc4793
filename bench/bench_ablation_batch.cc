/**
 * @file
 * Ablation (extension): batched retrieval throughput. One pass over
 * the corpus serves up to eight queries, amortizing the embedding
 * stream and the per-plane ingest handshake -- the throughput-mode
 * deployment the paper's interactive (latency-mode) evaluation
 * leaves open. Exits nonzero unless batch 8 reaches at least 3.0x
 * the batch-1 throughput (the EXPERIMENTS.md claim).
 */

#include <cstdio>

#include "common/table.hh"
#include "kernels/rag.hh"

using namespace cisram;
using namespace cisram::baseline;
using namespace cisram::kernels;

int
main()
{
    std::printf("== Ablation: batched RAG retrieval throughput "
                "==\n");
    const auto &spec = ragCorpora()[2]; // 200 GB

    AsciiTable table({"batch size", "per-query latency (ms)",
                      "throughput (queries/s)", "speedup vs B=1"});
    double base = 0, speedup = 0;
    for (size_t batch : {1u, 2u, 4u, 8u}) {
        apu::ApuDevice dev;
        dev.core(0).setMode(apu::ExecMode::TimingOnly);
        dram::DramSystem hbm(dram::hbm2eConfig());
        RagRetriever retriever(dev, hbm, spec, 5);
        std::vector<std::vector<int16_t>> queries;
        for (size_t q = 0; q < batch; ++q)
            queries.push_back(genQuery(spec.dim, q + 1));
        auto results = retriever.retrieveBatch(queries, 1);
        double per_query = results[0].stages.total();
        if (batch == 1)
            base = per_query;
        speedup = base / per_query;
        table.addRow({std::to_string(batch),
                      formatDouble(per_query * 1e3, 1),
                      formatDouble(1.0 / per_query, 1),
                      formatDouble(speedup, 2) + "x"});
    }
    table.print();
    std::printf("\nThe embedding stream and plane ingest amortize "
                "across the batch; only the per-query MAC work "
                "remains, so throughput saturates near the "
                "compute-bound rate.\n");
    if (speedup < 3.0) {
        std::printf("FAIL: batch 8 reaches %.2fx the batch-1 "
                    "throughput, below 3.0x\n",
                    speedup);
        return 1;
    }
    return 0;
}
