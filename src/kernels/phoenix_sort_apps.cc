/**
 * @file
 * Sort-and-compress Phoenix applications on the APU: word count and
 * reverse index, plus the paper-scale harness.
 */

#include "kernels/phoenix_apu.hh"

#include <algorithm>
#include <map>

#include "common/logging.hh"
#include "kernels/kernel_ctx.hh"
#include "kernels/sort.hh"

namespace cisram::kernels {

using apu::ApuDevice;
using baseline::PhoenixApp;
using baseline::RevIndexResult;
using gvml::Vmr;
using gvml::Vr;

std::vector<uint16_t>
tokenizeWords(const std::vector<std::string> &words)
{
    // The generators emit "w<id>" tokens; parsing the id gives a
    // stable, collision-free vocabulary mapping.
    std::vector<uint16_t> ids;
    ids.reserve(words.size());
    for (const auto &w : words) {
        cisram_assert(w.size() >= 2 && w[0] == 'w',
                      "unexpected token: ", w);
        unsigned long id = std::stoul(w.substr(1));
        cisram_assert(id < 0xffff, "vocabulary overflow");
        ids.push_back(static_cast<uint16_t>(id));
    }
    return ids;
}

namespace {

constexpr uint16_t padSentinel = 0xffff;

/** Registers shared by the two sort-based apps. */
constexpr Vr vrKey{0}, vrPay{1}, vrPrev{2}, vrPrev2{3}, vrMark{4},
    vrMark2{5}, vrIds{6}, vrAux{7}, vrOne{8}, vrFirst{9}, vrIdx{10},
    vrDoc{11};
constexpr Vmr vmIn{0}, vmOut1{1}, vmOut2{2};

/** Mark run boundaries of the sorted key VR into vrMark. */
void
markBoundaries(gvml::Gvml &g)
{
    g.shiftE(vrPrev, vrKey, -1);
    g.eq16(vrMark, vrKey, vrPrev);
    g.xor16(vrMark, vrMark, vrOne); // not-equal
    g.or16(vrMark, vrMark, vrFirst);
}

} // namespace

// =================================================================
// Word count
// =================================================================

std::vector<std::pair<uint16_t, uint64_t>>
wordCountApu(ApuDevice &dev, const std::vector<uint16_t> *word_ids,
             double num_words, PhoenixVariant v,
             PhoenixStats &stats)
{
    KernelCtx ctx(dev);
    auto &g = ctx.g;
    size_t l = ctx.l;

    // Opt1 drains the compressed (id, position) runs by DMA; the
    // baseline PIOs them element by element. Opt2/opt3 do not apply.
    bool dma_out =
        v == PhoenixVariant::Opt1 || v == PhoenixVariant::AllOpts;

    size_t tiles = static_cast<size_t>(
        divCeil(static_cast<uint64_t>(num_words), l));
    size_t nwords = 0;
    uint64_t in_addr = 0;
    if (ctx.fnl) {
        nwords = word_ids->size();
        tiles = divCeil(nwords, l);
        std::vector<uint16_t> img(tiles * l, padSentinel);
        std::copy(word_ids->begin(), word_ids->end(), img.begin());
        in_addr = ctx.stage(img.data(), img.size() * 2);
    }
    uint64_t out_addr = dev.allocator().alloc(
        std::max<size_t>(tiles, 1) * 2 * l * 2, 512);

    g.cpyImm16(vrOne, 1);
    g.createIndexU16(vrIdx);
    g.cpyImm16(vrPrev, 0);
    g.eq16(vrFirst, vrIdx, vrPrev); // lane-0 mask

    /// Expected distinct runs per tile for the timing estimate of
    /// the naive PIO drain (the generator's vocabulary size).
    constexpr size_t timingRuns = 4096;

    std::map<uint16_t, uint64_t> counts;
    SortScratch scratch = SortScratch::standard();

    size_t share = ctx.coreShare(tiles);
    timedLoop(ctx.core, share, [&](size_t tile) {
        ctx.core.dmaL4ToL1(vmIn.idx, in_addr + tile * l * 2);
        g.load16(vrKey, vmIn);
        bitonicSortU16(g, vrKey, false, vrPay, scratch);
        // The sort clobbers the shared idx/one scratch; our
        // boundary constants live in low VRs and survive.
        markBoundaries(g);
        uint32_t runs = g.countM(vrMark);
        g.cpyFromMrk16(vrIds, vrKey, vrMark);
        g.cpyFromMrk16(vrAux, vrIdx, vrMark);
        if (dma_out) {
            // The compressed runs occupy only the VR head: stage
            // through L2 and move just the live prefix.
            size_t live = (ctx.fnl ? runs : timingRuns) * 2;
            g.store16(vmOut1, vrIds);
            ctx.core.dmaL1ToL2(vmOut1.idx);
            ctx.core.dmaL2ToL4(out_addr + (tile * 2) * l * 2, 0,
                               live);
            g.store16(vmOut2, vrAux);
            ctx.core.dmaL1ToL2(vmOut2.idx);
            ctx.core.dmaL2ToL4(out_addr + (tile * 2 + 1) * l * 2, 0,
                               live);
        } else {
            size_t n = ctx.fnl ? runs : timingRuns;
            ctx.core.pioStore(out_addr + (tile * 2) * l * 2, 2,
                              vrIds.idx, 0, 1, n);
            ctx.core.pioStore(out_addr + (tile * 2 + 1) * l * 2, 2,
                              vrAux.idx, 0, 1, n);
        }
        ctx.core.chargeRaw(4.0 * (ctx.fnl ? runs : timingRuns));
        if (ctx.fnl) {
            // Host reduce: run lengths from boundary positions.
            std::vector<uint16_t> ids(l), pos(l);
            dev.l4().read(out_addr + (tile * 2) * l * 2, ids.data(),
                          l * 2);
            dev.l4().read(out_addr + (tile * 2 + 1) * l * 2,
                          pos.data(), l * 2);
            for (uint32_t r = 0; r < runs; ++r) {
                if (ids[r] == padSentinel)
                    break;
                uint64_t end =
                    (r + 1 < runs) ? pos[r + 1] : l;
                counts[ids[r]] += end - pos[r];
            }
        }
    });

    stats = {ctx.cycles(), ctx.uops()};

    std::vector<std::pair<uint16_t, uint64_t>> out;
    if (ctx.fnl) {
        // Remove sentinel-padding artifacts: pads were cut off by
        // the sentinel break above; counts hold only real words.
        out.assign(counts.begin(), counts.end());
        std::sort(out.begin(), out.end(),
                  [](const auto &a, const auto &b) {
                      if (a.second != b.second)
                          return a.second > b.second;
                      return a.first < b.first;
                  });
    }
    return out;
}

// =================================================================
// Reverse index
// =================================================================

RevIndexResult
reverseIndexApu(ApuDevice &dev, const std::vector<uint16_t> *links,
                double num_links, size_t links_per_doc,
                PhoenixVariant v, PhoenixStats &stats)
{
    KernelCtx ctx(dev);
    auto &g = ctx.g;
    size_t l = ctx.l;
    cisram_assert(isPow2(links_per_doc) && links_per_doc <= l);
    unsigned lg_lpd = log2Floor(links_per_doc);

    bool dma_out =
        v == PhoenixVariant::Opt1 || v == PhoenixVariant::AllOpts;

    size_t tiles = static_cast<size_t>(
        divCeil(static_cast<uint64_t>(num_links), l));
    size_t nlinks = 0;
    uint64_t in_addr = 0;
    if (ctx.fnl) {
        nlinks = links->size();
        tiles = divCeil(nlinks, l);
        std::vector<uint16_t> img(tiles * l, padSentinel);
        std::copy(links->begin(), links->end(), img.begin());
        in_addr = ctx.stage(img.data(), img.size() * 2);
    }
    uint64_t out_addr = dev.allocator().alloc(
        std::max<size_t>(tiles, 1) * 2 * l * 2, 512);

    g.cpyImm16(vrOne, 1);
    g.createIndexU16(vrIdx);
    g.cpyImm16(vrPrev, 0);
    g.eq16(vrFirst, vrIdx, vrPrev);

    RevIndexResult result;
    SortScratch scratch = SortScratch::standard();

    size_t share = ctx.coreShare(tiles);
    timedLoop(ctx.core, share, [&](size_t tile) {
        ctx.core.dmaL4ToL1(vmIn.idx, in_addr + tile * l * 2);
        g.load16(vrKey, vmIn);
        g.cpy16(vrPay, vrIdx);
        bitonicSortU16(g, vrKey, true, vrPay, scratch);
        // Boundary on link change or document change.
        g.srImm16(vrDoc, vrPay, lg_lpd);
        g.shiftE(vrPrev, vrKey, -1);
        g.eq16(vrMark, vrKey, vrPrev);
        g.shiftE(vrPrev2, vrDoc, -1);
        g.eq16(vrMark2, vrDoc, vrPrev2);
        g.and16(vrMark, vrMark, vrMark2); // same link and same doc
        g.xor16(vrMark, vrMark, vrOne);
        g.or16(vrMark, vrMark, vrFirst);
        uint32_t runs = g.countM(vrMark);
        g.cpyFromMrk16(vrIds, vrKey, vrMark);
        g.cpyFromMrk16(vrAux, vrDoc, vrMark);
        if (dma_out) {
            g.store16(vmOut1, vrIds);
            ctx.core.dmaL1ToL4(out_addr + (tile * 2) * l * 2,
                               vmOut1.idx);
            g.store16(vmOut2, vrAux);
            ctx.core.dmaL1ToL4(out_addr + (tile * 2 + 1) * l * 2,
                               vmOut2.idx);
        } else {
            size_t n = ctx.fnl ? runs : l;
            ctx.core.pioStore(out_addr + (tile * 2) * l * 2, 2,
                              vrIds.idx, 0, 1, n);
            ctx.core.pioStore(out_addr + (tile * 2 + 1) * l * 2, 2,
                              vrAux.idx, 0, 1, n);
        }
        ctx.core.chargeRaw(4.0 * (ctx.fnl ? runs : l));
        if (ctx.fnl) {
            std::vector<uint16_t> ids(l), docs(l);
            dev.l4().read(out_addr + (tile * 2) * l * 2, ids.data(),
                          l * 2);
            dev.l4().read(out_addr + (tile * 2 + 1) * l * 2,
                          docs.data(), l * 2);
            uint32_t doc_base = static_cast<uint32_t>(
                tile * l / links_per_doc);
            for (uint32_t r = 0; r < runs; ++r) {
                if (ids[r] == padSentinel)
                    continue;
                result[ids[r]].push_back(doc_base + docs[r]);
            }
        }
    });

    stats = {ctx.cycles(), ctx.uops()};

    if (ctx.fnl) {
        // Tile-sorted insertion already orders docs ascending per
        // link; entries are unique by construction.
        for (auto &[link, docs] : result)
            cisram_assert(
                std::is_sorted(docs.begin(), docs.end()),
                "reverse index docs out of order");
    }
    return result;
}

// =================================================================
// Paper-scale harness
// =================================================================

const PhoenixPaperScale &
phoenixPaperScale()
{
    static const PhoenixPaperScale scale{};
    return scale;
}

PhoenixStats
runPhoenixApuTimed(ApuDevice &dev, PhoenixApp app, PhoenixVariant v)
{
    const auto &s = phoenixPaperScale();
    auto &core = dev.core(0);
    auto saved = core.mode();
    core.setMode(apu::ExecMode::TimingOnly);
    PhoenixStats stats;
    switch (app) {
      case PhoenixApp::Histogram:
        histogramApu(dev, nullptr, s.histogramBytes, v, stats);
        break;
      case PhoenixApp::LinearRegression:
        linRegApu(dev, nullptr, s.linregBytes, v, stats);
        break;
      case PhoenixApp::MatrixMultiply:
        matmulApu(dev, nullptr, nullptr, s.matmulDim, s.matmulDim,
                  s.matmulDim, v, stats);
        break;
      case PhoenixApp::Kmeans:
        kmeansApu(dev, nullptr, s.kmeansPoints, s.kmeansDim,
                  s.kmeansK, s.kmeansIters, v, stats);
        break;
      case PhoenixApp::ReverseIndex:
        reverseIndexApu(dev, nullptr, s.revIndexLinks,
                        s.revIndexLpd, v, stats);
        break;
      case PhoenixApp::StringMatch:
        stringMatchApu(dev, nullptr, s.stringMatchBytes, v, stats);
        break;
      case PhoenixApp::WordCount:
        wordCountApu(dev, nullptr, s.wordCountWords, v, stats);
        break;
    }
    core.setMode(saved);
    return stats;
}

} // namespace cisram::kernels
