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
 *
 * macPlanesS16 is the run form of the whole plane loop (ingest,
 * load16, macImmS16 per plane). It evaluates a supertile's lanes in
 * one pass per plane, reading the planes in place from L4; its caller
 * charges the loop once under a repeat count. It and macImmS16 share
 * one MAC lane loop.
 */

#include "gvml/gvml.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/gsifloat.hh"
#include "common/trace.hh"

namespace cisram::gvml {

namespace {

/**
 * acc[i] += x[i] * w (mod 2^16) for i < n, where x holds n u16 lanes
 * as bytes (a register's head, or a page of L4): the one MAC lane
 * loop.
 */
void
macLanes(uint16_t *acc, const uint8_t *x, uint16_t w, size_t n)
{
    for (size_t i = 0; i < n; ++i) {
        uint16_t xi;
        std::memcpy(&xi, x + 2 * i, 2);
        acc[i] = static_cast<uint16_t>(acc[i] + uint32_t{xi} * w);
    }
}

/**
 * The scratch registers as the unfused triple leaves them after its
 * last query: the broadcast immediate w, and emb times w over emb's
 * extent.
 */
void
leaveScratch(apu::VrFile &vr, Vr emb, Vr scratch_q, Vr scratch_t,
             uint16_t w)
{
    vr.lanes(scratch_q.idx).setExtent(0, w);
    const apu::LaneVector &e = vr.lanes(emb.idx);
    apu::LaneVector &tv = vr.lanes(scratch_t.idx);
    uint16_t *ts = tv.head();
    const uint16_t *es = e.head();
    for (size_t i = 0; i < e.hi(); ++i)
        ts[i] = static_cast<uint16_t>(uint32_t{es[i]} * w);
    tv.setExtent(e.hi(), static_cast<uint16_t>(uint32_t{e.tail()} * w));
}

void
checkMacRegs(Vr emb, Vr scratch_q, Vr scratch_t, const Vr *accs, size_t n)
{
    for (size_t q = 0; q < n; ++q)
        cisram_assert(accs[q].idx != emb.idx &&
                          accs[q].idx != scratch_q.idx &&
                          accs[q].idx != scratch_t.idx,
                      "fused MAC registers must be distinct");
}

} // namespace

void
Gvml::macImmS16(Vr emb, Vr scratch_q, Vr scratch_t, const Vr *accs,
                const uint16_t *imms, size_t n)
{
    checkMacRegs(emb, scratch_q, scratch_t, accs, n);
    const auto &t = core_.timing();
    for (size_t q = 0; q < n; ++q) {
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
    }
    if (!core_.functional() || n == 0)
        return;
    // Over the common extent of emb and each accumulator in turn; the
    // tails accumulate once (apusim/lane_vector.hh).
    apu::VrFile &vr = core_.vr();
    const apu::LaneVector &e = vr.lanes(emb.idx);
    for (size_t q = 0; q < n; ++q) {
        apu::LaneVector &a = vr.lanes(accs[q].idx);
        size_t h = apu::widenAll(e, a);
        macLanes(a.head(), reinterpret_cast<const uint8_t *>(e.head()),
                 imms[q], h);
        a.setExtent(h, static_cast<uint16_t>(
                           a.tail() + uint32_t{e.tail()} * imms[q]));
    }
    leaveScratch(vr, emb, scratch_q, scratch_t, imms[n - 1]);
}

void
Gvml::macPlanesS16(Vmr stage, Vr emb, Vr scratch_q, Vr scratch_t,
                   const Vr *accs, size_t nq, const uint16_t *imms,
                   uint64_t planes, size_t valid, size_t n)
{
    checkMacRegs(emb, scratch_q, scratch_t, accs, nq);
    cisram_assert(planes % 2 == 0, "planes at odd L4 address ", planes);
    if (n == 0)
        return;
    // Each macImmS16 widens emb (`valid` lanes, a zero tail) and
    // accs[q] to the larger of their extents in turn, so accs[q] ends
    // at the largest of `valid` and the extents of accs[0..q]. Past
    // `valid` it adds 0 x w: its lanes and tail stay.
    apu::VrFile &vr = core_.vr();
    std::vector<uint16_t *> heads(nq);
    size_t h = valid;
    for (size_t q = 0; q < nq; ++q) {
        apu::LaneVector &a = vr.lanes(accs[q].idx);
        h = std::max(h, a.hi());
        a.widen(h);
        heads[q] = a.head();
    }
    const apu::DeviceDram &l4 = core_.device().l4();
    for (size_t d = 0; d < n; ++d) {
        const uint16_t *w = imms + d * nq;
        l4.visit(planes + 2 * d * valid, 2 * valid,
                 [&](size_t off, const uint8_t *p, size_t bytes) {
                     if (!p) // a page never written: zero lanes
                         return;
                     // Pieces start at even offsets: whole lanes.
                     for (size_t q = 0; q < nq; ++q)
                         macLanes(heads[q] + off / 2, p, w[q], bytes / 2);
                 });
    }
    // The last plane, where the loop leaves it: in stage, and in emb
    // as the last macImmS16 widened it.
    apu::LaneVector &s = core_.l1().lanes(stage.idx);
    l4.read(planes + 2 * (n - 1) * valid, s.head(), 2 * valid);
    s.setExtent(valid, 0);
    apu::LaneVector &e = vr.lanes(emb.idx);
    e.assign(s);
    e.widen(h);
    if (nq > 0)
        leaveScratch(vr, emb, scratch_q, scratch_t, imms[n * nq - 1]);
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
