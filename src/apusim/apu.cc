#include "apusim/apu.hh"

#include <cstring>

#include "common/bitutils.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

namespace cisram::apu {

namespace {

/**
 * DMA-engine occupancy accounting: burst cycles keep `engines`
 * engine(s) busy. Only the burst portion occupies an engine; init
 * and descriptor overhead is control-processor time.
 */
void
noteDmaBusy(double burst_cycles, int engines, double repeat)
{
    if (!metrics::enabled())
        return;
    // Resolve per call: Registry::get() may return a per-core shard
    // inside runOnAllCores, so cached references would dangle once
    // the shard is merged and destroyed.
    auto &reg = metrics::Registry::get();
    reg.counter("apu.dma.engine_busy_cycles", {{"engine", "0"}})
        .inc(burst_cycles * repeat);
    if (engines > 1)
        reg.counter("apu.dma.engine_busy_cycles", {{"engine", "1"}})
            .inc(burst_cycles * repeat);
}

} // namespace

const ApuSpec &
defaultSpec()
{
    static const ApuSpec spec{};
    return spec;
}

const TimingParams &
defaultTiming()
{
    static const TimingParams timing{};
    return timing;
}

ApuCore::ApuCore(ApuDevice &device, unsigned core_id)
    : dev(device), coreId(core_id),
      vrs(device.spec().numVrs, device.spec().vrLength,
          device.spec().numBanks),
      l1_(device.spec().numVmrs, device.spec().vrLength),
      l2_(device.spec().l2Bytes),
      l3_(device.spec().l3Bytes),
      bitproc_(vrs)
{
    stats_.setTraceIds(device.tracePid(), core_id);
}

const ApuSpec &
ApuCore::spec() const
{
    return dev.spec();
}

const TimingParams &
ApuCore::timing() const
{
    return dev.timing();
}

uint64_t
ApuCore::chunkBurstCycles(size_t chunks, double per_byte) const
{
    // Whole-chunk granularity: a partial trailing chunk costs as much
    // as a full one. This is where the simulator diverges from the
    // framework's d/BW linear fit.
    double per_chunk = per_byte * static_cast<double>(
        spec().dmaChunkBytes);
    return static_cast<uint64_t>(chunks) *
        static_cast<uint64_t>(per_chunk + 0.5);
}

void
ApuCore::dmaL4ToL2(uint64_t l4_addr, size_t l2_off, size_t bytes)
{
    cisram_assert(l2_off + bytes <= l2_.size(), "L2 overflow");
    trace::OpScope op("apu.dmaL4ToL2",
                      static_cast<double>(bytes), 1);
    const auto &mv = timing().move;
    size_t chunks = divCeil(bytes, spec().dmaChunkBytes);
    uint64_t burst = chunkBurstCycles(chunks, mv.dmaL4L2PerByte);
    noteDmaBusy(static_cast<double>(burst), 1, stats_.repeat());
    stats_.charge(mv.dmaL4L2Init + timing().control.dmaDescriptor +
                  burst);
    if (functional()) {
        std::vector<uint8_t> buf(bytes);
        dev.l4().read(l4_addr, buf.data(), bytes);
        l2_.write(l2_off, buf.data(), bytes);
    }
}

void
ApuCore::dmaL2ToL4(uint64_t l4_addr, size_t l2_off, size_t bytes)
{
    cisram_assert(l2_off + bytes <= l2_.size(), "L2 read OOB");
    trace::OpScope op("apu.dmaL2ToL4",
                      static_cast<double>(bytes), 1);
    const auto &mv = timing().move;
    size_t chunks = divCeil(bytes, spec().dmaChunkBytes);
    uint64_t burst = chunkBurstCycles(chunks, mv.dmaL4L2PerByte);
    noteDmaBusy(static_cast<double>(burst), 1, stats_.repeat());
    stats_.charge(mv.dmaL4L2Init + timing().control.dmaDescriptor +
                  burst);
    if (functional()) {
        std::vector<uint8_t> buf(bytes);
        l2_.read(l2_off, buf.data(), bytes);
        dev.l4().write(l4_addr, buf.data(), bytes);
    }
}

void
ApuCore::dmaL4ToL3(uint64_t l4_addr, size_t l3_off, size_t bytes)
{
    cisram_assert(l3_off + bytes <= l3_.size(), "L3 overflow");
    trace::OpScope op("apu.dmaL4ToL3",
                      static_cast<double>(bytes), 1);
    const auto &mv = timing().move;
    size_t chunks = divCeil(bytes, spec().dmaChunkBytes);
    uint64_t burst = chunkBurstCycles(chunks, mv.dmaL4L3PerByte);
    noteDmaBusy(static_cast<double>(burst), 1, stats_.repeat());
    stats_.charge(mv.dmaL4L3Init + burst);
    if (functional()) {
        std::vector<uint8_t> buf(bytes);
        dev.l4().read(l4_addr, buf.data(), bytes);
        l3_.write(l3_off, buf.data(), bytes);
    }
}

void
ApuCore::dmaL3ToL4(uint64_t l4_addr, size_t l3_off, size_t bytes)
{
    cisram_assert(l3_off + bytes <= l3_.size(), "L3 read OOB");
    trace::OpScope op("apu.dmaL3ToL4",
                      static_cast<double>(bytes), 1);
    const auto &mv = timing().move;
    size_t chunks = divCeil(bytes, spec().dmaChunkBytes);
    uint64_t burst = chunkBurstCycles(chunks, mv.dmaL4L3PerByte);
    noteDmaBusy(static_cast<double>(burst), 1, stats_.repeat());
    stats_.charge(mv.dmaL4L3Init + burst);
    if (functional()) {
        std::vector<uint8_t> buf(bytes);
        l3_.read(l3_off, buf.data(), bytes);
        dev.l4().write(l4_addr, buf.data(), bytes);
    }
}

void
ApuCore::dmaL4ToL2Chunks(const std::vector<uint64_t> &chunk_srcs,
                         size_t l2_off)
{
    size_t chunk = spec().dmaChunkBytes;
    cisram_assert(l2_off + chunk_srcs.size() * chunk <= l2_.size(),
                  "L2 overflow in chunked DMA");
    trace::OpScope op("apu.dmaL4ToL2Chunks",
                      static_cast<double>(chunk_srcs.size() * chunk),
                      1);
    const auto &mv = timing().move;
    // One descriptor per transaction; source addresses are programmed
    // per chunk, so the burst cost is the same as a contiguous move.
    uint64_t burst =
        chunkBurstCycles(chunk_srcs.size(), mv.dmaL4L2PerByte);
    noteDmaBusy(static_cast<double>(burst), 1, stats_.repeat());
    stats_.charge(mv.dmaL4L2Init + timing().control.dmaDescriptor +
                  burst);
    if (functional()) {
        std::vector<uint8_t> buf(chunk);
        for (size_t i = 0; i < chunk_srcs.size(); ++i) {
            dev.l4().read(chunk_srcs[i], buf.data(), chunk);
            l2_.write(l2_off + i * chunk, buf.data(), chunk);
        }
    }
}

void
ApuCore::dmaL2ToL1(unsigned vmr)
{
    trace::OpScope op("apu.dmaL2ToL1",
                      static_cast<double>(spec().vrBytes()));
    stats_.charge(timing().move.dmaL2L1);
    if (functional()) {
        auto &slot = l1_.slot(vmr);
        l2_.read(0, slot.data(), slot.size() * 2);
    }
}

void
ApuCore::dmaL1ToL2(unsigned vmr)
{
    trace::OpScope op("apu.dmaL1ToL2",
                      static_cast<double>(spec().vrBytes()));
    stats_.charge(timing().move.dmaL2L1);
    if (functional()) {
        auto &slot = l1_.slot(vmr);
        l2_.write(0, slot.data(), slot.size() * 2);
    }
}

void
ApuCore::dmaL4ToL1(unsigned vmr, uint64_t l4_addr)
{
    const auto &mv = timing().move;
    size_t bytes = spec().vrBytes();
    trace::OpScope op("apu.dmaL4ToL1",
                      static_cast<double>(bytes), 2);
    size_t chunks = divCeil(bytes, spec().dmaChunkBytes);
    // The two DMA engines each stream half the vector; L2 staging and
    // the L2->L1 wide move are pipelined behind the stream.
    uint64_t burst =
        chunkBurstCycles(chunks / spec().dmaEnginesPerCore,
                         mv.dmaL4L2PerByte);
    noteDmaBusy(static_cast<double>(burst), 2, stats_.repeat());
    stats_.charge(mv.dmaL4L2Init + burst + mv.dmaL2L1 +
                  mv.pipeSyncL4L1);
    if (functional()) {
        auto &slot = l1_.slot(vmr);
        dev.l4().read(l4_addr, slot.data(), bytes);
    }
}

void
ApuCore::dmaL1ToL4(uint64_t l4_addr, unsigned vmr)
{
    const auto &mv = timing().move;
    size_t bytes = spec().vrBytes();
    trace::OpScope op("apu.dmaL1ToL4",
                      static_cast<double>(bytes), 2);
    size_t chunks = divCeil(bytes, spec().dmaChunkBytes);
    uint64_t burst =
        chunkBurstCycles(chunks / spec().dmaEnginesPerCore,
                         mv.dmaL4L2PerByte);
    noteDmaBusy(static_cast<double>(burst), 2, stats_.repeat());
    stats_.charge(mv.dmaL4L2Init + burst + mv.dmaL2L1 +
                  mv.pipeSyncL1L4);
    if (functional()) {
        auto &slot = l1_.slot(vmr);
        dev.l4().write(l4_addr, slot.data(), bytes);
    }
}

void
ApuCore::pioLoad(unsigned vr, size_t vr_start, size_t vr_stride,
                 uint64_t l4_addr, int64_t l4_stride_bytes, size_t n)
{
    trace::OpScope op("apu.pioLoad", static_cast<double>(n * 2));
    const auto &mv = timing().move;
    stats_.charge(timing().control.dmaDescriptor +
                  mv.pioLoadPerElem * n);
    if (functional()) {
        auto &reg = vrs[vr];
        for (size_t i = 0; i < n; ++i) {
            size_t dst = vr_start + i * vr_stride;
            cisram_assert(dst < reg.size(), "PIO load VR index OOB");
            uint64_t src = l4_addr +
                static_cast<uint64_t>(static_cast<int64_t>(i) *
                                      l4_stride_bytes);
            reg[dst] = dev.l4().readU16(src);
        }
    }
}

void
ApuCore::pioStore(uint64_t l4_addr, int64_t l4_stride_bytes,
                  unsigned vr, size_t vr_start, size_t vr_stride,
                  size_t n)
{
    trace::OpScope op("apu.pioStore", static_cast<double>(n * 2));
    const auto &mv = timing().move;
    stats_.charge(timing().control.dmaDescriptor +
                  mv.pioStorePerElem * n);
    if (functional()) {
        const auto &reg = vrs[vr];
        for (size_t i = 0; i < n; ++i) {
            size_t src = vr_start + i * vr_stride;
            cisram_assert(src < reg.size(), "PIO store VR index OOB");
            uint64_t dst = l4_addr +
                static_cast<uint64_t>(static_cast<int64_t>(i) *
                                      l4_stride_bytes);
            dev.l4().writeU16(dst, reg[src]);
        }
    }
}

uint16_t
ApuCore::rspGet(unsigned vr, size_t idx)
{
    // Serial retrieval through the response FIFO: priced like a PIO
    // store of one element.
    trace::OpScope op("apu.rspGet", 2.0);
    stats_.charge(timing().move.pioStorePerElem);
    if (functional()) {
        cisram_assert(idx < vrs.length());
        return vrs.lanes(vr).lane(idx);
    }
    return 0;
}

void
ApuCore::rspSet(unsigned vr, size_t idx, uint16_t value)
{
    trace::OpScope op("apu.rspSet", 2.0);
    stats_.charge(timing().move.pioLoadPerElem);
    if (functional()) {
        cisram_assert(idx < vrs.length());
        LaneVector &v = vrs.lanes(vr);
        v.widen(idx + 1);
        v.head()[idx] = value;
    }
}

void
ApuCore::lookup(unsigned dst_vr, unsigned idx_vr, size_t l3_off,
                size_t table_entries)
{
    trace::OpScope op("apu.lookup");
    const auto &mv = timing().move;
    uint64_t granules = divCeil(table_entries, mv.lookupGranule);
    chargeVectorOp(mv.lookupInit + granules * mv.lookupPerGranule);
    if (functional()) {
        cisram_assert(l3_off + table_entries * 2 <= l3_.size(),
                      "lookup table exceeds L3");
        auto &dst = vrs[dst_vr];
        const auto &idx = vrs[idx_vr];
        for (size_t i = 0; i < vrs.length(); ++i) {
            size_t entry = idx[i];
            cisram_assert(entry < table_entries,
                          "lookup index OOB: ", entry, " >= ",
                          table_entries);
            dst[i] = l3_.readU16(l3_off + entry * 2);
        }
    }
}

void
ApuCore::loadVr(unsigned vr, unsigned vmr)
{
    trace::OpScope op("apu.loadVr",
                      static_cast<double>(spec().vrBytes()));
    chargeVectorOp(timing().move.loadVr);
    if (functional())
        vrs.lanes(vr).assign(l1_.lanes(vmr));
}

void
ApuCore::storeVr(unsigned vmr, unsigned vr)
{
    trace::OpScope op("apu.storeVr",
                      static_cast<double>(spec().vrBytes()));
    chargeVectorOp(timing().move.storeVr);
    if (functional())
        l1_.lanes(vmr).assign(vrs.lanes(vr));
}

ApuDevice::ApuDevice(ApuSpec spec, TimingParams timing)
    : spec_(spec), timing_(timing), dram(spec.l4Bytes),
      alloc(spec.l4Bytes)
{
    // Arm the observability layer from the environment
    // (CISRAM_TRACE / CISRAM_METRICS) on first device construction.
    trace::Tracer::init();
    metrics::initFromEnv();
    if (trace::active())
        tracePid_ = trace::Tracer::get().registerProcess("apu");
    for (unsigned i = 0; i < spec_.numCores; ++i)
        cores.push_back(std::make_unique<ApuCore>(*this, i));
}

ApuCore &
ApuDevice::core(unsigned i)
{
    cisram_assert(i < cores.size(), "core index OOB");
    return *cores[i];
}

} // namespace cisram::apu
