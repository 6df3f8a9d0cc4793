/**
 * @file
 * Fused retrieval primitives.
 *
 * The RAG kernels' distance loop issues, per staged embedding plane
 * and per query, a broadcast + multiply + accumulate triple. Issued
 * separately those are three full element passes with two scratch-VR
 * round-trips; fused they are one pass that reads the embedding plane
 * and updates the accumulator in place. The cycle ledger cannot tell
 * the difference: the fused forms charge the identical cycle costs
 * under the identical op labels in the identical order, and leave the
 * VR file in the identical state (tests/test_wordparallel.cc pins
 * both against the unfused sequence).
 */

#include "gvml/gvml.hh"

#include "common/gsifloat.hh"
#include "common/trace.hh"

namespace cisram::gvml {

namespace {

int16_t
asS16(uint16_t v)
{
    return static_cast<int16_t>(v);
}

uint16_t
asU16(int32_t v)
{
    return static_cast<uint16_t>(static_cast<uint16_t>(v & 0xffff));
}

} // namespace

void
Gvml::macImmS16(Vr emb, Vr scratch_q, Vr scratch_t, const Vr *accs,
                const uint16_t *imms, size_t n)
{
    const auto &t = core_.timing();
    bool fnl = core_.functional();
    for (size_t q = 0; q < n; ++q) {
        cisram_assert(accs[q].idx != emb.idx &&
                          accs[q].idx != scratch_q.idx &&
                          accs[q].idx != scratch_t.idx,
                      "fused MAC registers must be distinct");
        {
            trace::OpScope traceOp_("gvml.cpyImm16");
            core_.chargeVectorOp(t.move.cpyImm);
        }
        {
            trace::OpScope traceOp_("gvml.mulS16");
            core_.chargeVectorOp(t.compute.mulS16);
        }
        {
            trace::OpScope traceOp_("gvml.addS16");
            core_.chargeVectorOp(t.compute.addS16);
        }
        if (fnl) {
            // Over the common extent of emb and the accumulator;
            // the tails accumulate once (apusim/lane_vector.hh).
            const apu::LaneVector &e = core_.vr().lanes(emb.idx);
            apu::LaneVector &a = core_.vr().lanes(accs[q].idx);
            size_t h = apu::widenAll(e, a);
            int16_t w = asS16(imms[q]);
            auto mac = [w](uint16_t acc, uint16_t x) {
                uint16_t prod = asU16(static_cast<int32_t>(asS16(x)) * w);
                return asU16(static_cast<int32_t>(asS16(acc)) +
                             asS16(prod));
            };
            uint16_t tail = mac(a.tail(), e.tail());
            uint16_t *as = a.head();
            const uint16_t *es = e.head();
            for (size_t i = 0; i < h; ++i)
                as[i] = mac(as[i], es[i]);
            a.setExtent(h, tail);
        }
    }
    if (fnl && n > 0) {
        // The last query's broadcast and product planes are what the
        // unfused sequence leaves behind in the scratch registers.
        core_.vr().lanes(scratch_q.idx).setExtent(0, imms[n - 1]);
        const apu::LaneVector &e = core_.vr().lanes(emb.idx);
        apu::LaneVector &tv = core_.vr().lanes(scratch_t.idx);
        int16_t w = asS16(imms[n - 1]);
        auto mul = [w](uint16_t x) {
            return asU16(static_cast<int32_t>(asS16(x)) * w);
        };
        uint16_t *ts = tv.head();
        const uint16_t *es = e.head();
        for (size_t i = 0; i < e.hi(); ++i)
            ts[i] = mul(es[i]);
        tv.setExtent(e.hi(), mul(e.tail()));
    }
}

void
Gvml::macImmGf16(Vr emb, Vr scratch_q, Vr scratch_t, Vr acc,
                 uint16_t imm)
{
    cisram_assert(acc.idx != emb.idx && acc.idx != scratch_q.idx &&
                      acc.idx != scratch_t.idx,
                  "fused MAC registers must be distinct");
    const auto &t = core_.timing();
    {
        trace::OpScope traceOp_("gvml.cpyImm16");
        core_.chargeVectorOp(t.move.cpyImm);
    }
    {
        trace::OpScope traceOp_("gvml.mulGf16");
        core_.chargeVectorOp(t.compute.mulF16);
    }
    {
        trace::OpScope traceOp_("gvml.addGf16");
        core_.chargeVectorOp(t.compute.mulF16);
    }
    if (!core_.functional())
        return;
    GsiFloat16 w = GsiFloat16::fromBits(imm);
    auto mul = [w](uint16_t x) {
        return (GsiFloat16::fromBits(x) * w).bits();
    };
    auto add = [](uint16_t x, uint16_t y) {
        return (GsiFloat16::fromBits(x) + GsiFloat16::fromBits(y))
            .bits();
    };
    // Over the common extent of emb and acc, as macImmS16.
    const apu::LaneVector &e = core_.vr().lanes(emb.idx);
    apu::LaneVector &a = core_.vr().lanes(acc.idx);
    apu::LaneVector &tv = core_.vr().lanes(scratch_t.idx);
    size_t h = apu::widenAll(e, a);
    uint16_t tail_prod = mul(e.tail());
    uint16_t tail_acc = add(a.tail(), tail_prod);
    uint16_t *as = a.head(), *ts = tv.head();
    const uint16_t *es = e.head();
    for (size_t i = 0; i < h; ++i) {
        uint16_t prod = mul(es[i]);
        as[i] = add(as[i], prod);
        ts[i] = prod;
    }
    a.setExtent(h, tail_acc);
    tv.setExtent(h, tail_prod);
    core_.vr().lanes(scratch_q.idx).setExtent(0, imm);
}

} // namespace cisram::gvml
