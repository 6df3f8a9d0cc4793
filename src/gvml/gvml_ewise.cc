/**
 * @file
 * Element-wise GVML operations (paper Table 5).
 */

#include "gvml/gvml.hh"

#include <cmath>

#include "common/fixedpoint.hh"
#include "common/float16.hh"
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
asU16(int16_t v)
{
    return static_cast<uint16_t>(v);
}

uint16_t
asU16(int32_t v)
{
    return static_cast<uint16_t>(static_cast<uint16_t>(v & 0xffff));
}

} // namespace

// The lane loops run over the inputs' common extent and apply the op
// to the tails once (apusim/lane_vector.hh). The tails are read
// before the loop, as `dst` may alias an input.

template <typename Fn>
void
Gvml::ewise2(Vr dst, Vr a, Vr b, uint64_t cycles, Fn fn)
{
    core_.chargeVectorOp(cycles);
    if (!core_.functional())
        return;
    apu::VrFile &vrs = core_.vr();
    const apu::LaneVector &x = vrs.lanes(a.idx), &y = vrs.lanes(b.idx);
    const uint16_t xt = x.tail(), yt = y.tail();
    apu::LaneVector &d = vrs.lanes(dst.idx);
    uint16_t *out = d.head();
    const uint16_t *xs = x.head(), *ys = y.head();
    // A uniform operand (an empty head) against a stored one is read
    // as its tail value: the other head alone sets the extent, and
    // the uniform operand is never widened.
    size_t h;
    if (x.hi() == 0 && y.hi() != 0) {
        h = y.hi();
        for (size_t i = 0; i < h; ++i)
            out[i] = fn(xt, ys[i]);
    } else if (y.hi() == 0 && x.hi() != 0) {
        h = x.hi();
        for (size_t i = 0; i < h; ++i)
            out[i] = fn(xs[i], yt);
    } else {
        h = apu::widenAll(x, y);
        for (size_t i = 0; i < h; ++i)
            out[i] = fn(xs[i], ys[i]);
    }
    d.setExtent(h, fn(xt, yt));
}

template <typename Fn>
void
Gvml::ewise1(Vr dst, Vr a, uint64_t cycles, Fn fn)
{
    core_.chargeVectorOp(cycles);
    if (!core_.functional())
        return;
    apu::VrFile &vrs = core_.vr();
    const apu::LaneVector &x = vrs.lanes(a.idx);
    size_t h = x.hi();
    uint16_t tail = fn(x.tail());
    apu::LaneVector &d = vrs.lanes(dst.idx);
    uint16_t *out = d.head();
    const uint16_t *xs = x.head();
    for (size_t i = 0; i < h; ++i)
        out[i] = fn(xs[i]);
    d.setExtent(h, tail);
}

template <typename Fn>
void
Gvml::ewise2Msk(Vr dst, Vr a, Vr b, Vr mark, uint64_t cycles, Fn fn)
{
    core_.chargeVectorOp(cycles + core_.timing().compute.selectMsk);
    if (!core_.functional())
        return;
    apu::VrFile &vrs = core_.vr();
    apu::LaneVector &d = vrs.lanes(dst.idx);
    const apu::LaneVector &x = vrs.lanes(a.idx), &y = vrs.lanes(b.idx),
                          &m = vrs.lanes(mark.idx);
    size_t h = apu::widenAll(d, x, y, m);
    uint16_t tail = m.tail() ? fn(x.tail(), y.tail()) : d.tail();
    uint16_t *out = d.head();
    const uint16_t *xs = x.head(), *ys = y.head(), *ms = m.head();
    for (size_t i = 0; i < h; ++i)
        if (ms[i])
            out[i] = fn(xs[i], ys[i]);
    d.setExtent(h, tail);
}

void
Gvml::and16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.and16");
    ewise2(dst, a, b, core_.timing().compute.and16,
           [](uint16_t x, uint16_t y) -> uint16_t { return x & y; });
}

void
Gvml::or16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.or16");
    ewise2(dst, a, b, core_.timing().compute.or16,
           [](uint16_t x, uint16_t y) -> uint16_t { return x | y; });
}

void
Gvml::xor16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.xor16");
    ewise2(dst, a, b, core_.timing().compute.xor16,
           [](uint16_t x, uint16_t y) -> uint16_t { return x ^ y; });
}

void
Gvml::not16(Vr dst, Vr a)
{
    trace::OpScope traceOp_("gvml.not16");
    ewise1(dst, a, core_.timing().compute.not16,
           [](uint16_t x) -> uint16_t {
               return static_cast<uint16_t>(~x);
           });
}

void
Gvml::addU16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.addU16");
    ewise2(dst, a, b, core_.timing().compute.addU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return static_cast<uint16_t>(x + y);
           });
}

void
Gvml::addS16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.addS16");
    ewise2(dst, a, b, core_.timing().compute.addS16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return asU16(static_cast<int32_t>(asS16(x)) + asS16(y));
           });
}

void
Gvml::subU16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.subU16");
    ewise2(dst, a, b, core_.timing().compute.subU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return static_cast<uint16_t>(x - y);
           });
}

void
Gvml::subS16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.subS16");
    ewise2(dst, a, b, core_.timing().compute.subS16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return asU16(static_cast<int32_t>(asS16(x)) - asS16(y));
           });
}

void
Gvml::mulU16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.mulU16");
    ewise2(dst, a, b, core_.timing().compute.mulU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return static_cast<uint16_t>(
                   static_cast<uint32_t>(x) * y);
           });
}

void
Gvml::mulS16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.mulS16");
    ewise2(dst, a, b, core_.timing().compute.mulS16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return asU16(static_cast<int32_t>(asS16(x)) * asS16(y));
           });
}

void
Gvml::divU16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.divU16");
    ewise2(dst, a, b, core_.timing().compute.divU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return y == 0 ? 0xffff
                             : static_cast<uint16_t>(x / y);
           });
}

void
Gvml::divS16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.divS16");
    ewise2(dst, a, b, core_.timing().compute.divS16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               int16_t sx = asS16(x);
               int16_t sy = asS16(y);
               if (sy == 0)
                   return asU16(static_cast<int16_t>(-1));
               if (sx == INT16_MIN && sy == -1)
                   return asU16(INT16_MIN);
               return asU16(static_cast<int16_t>(sx / sy));
           });
}

void
Gvml::minU16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.minU16");
    ewise2(dst, a, b, core_.timing().compute.minU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return x < y ? x : y;
           });
}

void
Gvml::maxU16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.maxU16");
    ewise2(dst, a, b, core_.timing().compute.maxU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return x > y ? x : y;
           });
}

void
Gvml::minS16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.minS16");
    ewise2(dst, a, b, core_.timing().compute.minU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return asS16(x) < asS16(y) ? x : y;
           });
}

void
Gvml::maxS16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.maxS16");
    ewise2(dst, a, b, core_.timing().compute.maxU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return asS16(x) > asS16(y) ? x : y;
           });
}

void
Gvml::popcnt16(Vr dst, Vr a)
{
    trace::OpScope traceOp_("gvml.popcnt16");
    ewise1(dst, a, core_.timing().compute.popcnt16,
           [](uint16_t x) -> uint16_t {
               return static_cast<uint16_t>(__builtin_popcount(x));
           });
}

void
Gvml::ashImm16(Vr dst, Vr a, int sh)
{
    trace::OpScope traceOp_("gvml.ashImm16");
    ewise1(dst, a, core_.timing().compute.ashift,
           [sh](uint16_t x) -> uint16_t {
               int16_t v = asS16(x);
               if (sh >= 0)
                   return asU16(static_cast<int32_t>(v) << sh);
               return asU16(static_cast<int16_t>(v >> (-sh)));
           });
}

void
Gvml::srImm16(Vr dst, Vr a, unsigned sh)
{
    trace::OpScope traceOp_("gvml.srImm16");
    ewise1(dst, a, core_.timing().compute.srImm,
           [sh](uint16_t x) -> uint16_t {
               return static_cast<uint16_t>(x >> sh);
           });
}

void
Gvml::slImm16(Vr dst, Vr a, unsigned sh)
{
    trace::OpScope traceOp_("gvml.slImm16");
    ewise1(dst, a, core_.timing().compute.slImm,
           [sh](uint16_t x) -> uint16_t {
               return static_cast<uint16_t>(x << sh);
           });
}

void
Gvml::recipU16(Vr dst, Vr a)
{
    trace::OpScope traceOp_("gvml.recipU16");
    ewise1(dst, a, core_.timing().compute.recipU16,
           [](uint16_t x) -> uint16_t {
               return x == 0 ? 0xffff
                             : static_cast<uint16_t>(65535u / x);
           });
}

void
Gvml::addF16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.addF16");
    // GVML prices f16 add like f16 multiply's cheaper sibling; the
    // public table lists only mul_f16, so reuse that cost class.
    ewise2(dst, a, b, core_.timing().compute.mulF16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return (Float16::fromBits(x) + Float16::fromBits(y))
                   .bits();
           });
}

void
Gvml::mulF16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.mulF16");
    ewise2(dst, a, b, core_.timing().compute.mulF16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return (Float16::fromBits(x) * Float16::fromBits(y))
                   .bits();
           });
}

void
Gvml::expF16(Vr dst, Vr a)
{
    trace::OpScope traceOp_("gvml.expF16");
    ewise1(dst, a, core_.timing().compute.expF16,
           [](uint16_t x) -> uint16_t {
               float v = Float16::fromBits(x).toFloat();
               return Float16::fromFloat(std::exp(v)).bits();
           });
}

void
Gvml::mulGf16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.mulGf16");
    ewise2(dst, a, b, core_.timing().compute.mulF16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return (GsiFloat16::fromBits(x) * GsiFloat16::fromBits(y))
                   .bits();
           });
}

void
Gvml::addGf16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.addGf16");
    ewise2(dst, a, b, core_.timing().compute.mulF16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return (GsiFloat16::fromBits(x) + GsiFloat16::fromBits(y))
                   .bits();
           });
}

void
Gvml::orderGf16(Vr dst, Vr src, Vr scratch, Vr scratch2)
{
    trace::OpScope traceOp_("gvml.orderGf16");
    // negative -> ~bits; non-negative -> bits | 0x8000.
    cpyImm16(scratch2, 0x8000);
    or16(dst, src, scratch2);       // non-negative image
    not16(scratch, src);            // negative image
    and16(scratch2, src, scratch2); // sign mark (0x8000 or 0)
    cpy16Msk(dst, scratch, scratch2);
}

void
Gvml::sinFx(Vr dst, Vr phase)
{
    trace::OpScope traceOp_("gvml.sinFx");
    ewise1(dst, phase, core_.timing().compute.sinFx,
           [](uint16_t x) -> uint16_t {
               return asU16(cisram::sinFx(x));
           });
}

void
Gvml::cosFx(Vr dst, Vr phase)
{
    trace::OpScope traceOp_("gvml.cosFx");
    ewise1(dst, phase, core_.timing().compute.cosFx,
           [](uint16_t x) -> uint16_t {
               return asU16(cisram::cosFx(x));
           });
}

void
Gvml::addU16Msk(Vr dst, Vr a, Vr b, Vr mark)
{
    trace::OpScope traceOp_("gvml.addU16Msk");
    ewise2Msk(dst, a, b, mark, core_.timing().compute.addU16,
              [](uint16_t x, uint16_t y) -> uint16_t {
                  return static_cast<uint16_t>(x + y);
              });
}

void
Gvml::subU16Msk(Vr dst, Vr a, Vr b, Vr mark)
{
    trace::OpScope traceOp_("gvml.subU16Msk");
    ewise2Msk(dst, a, b, mark, core_.timing().compute.subU16,
              [](uint16_t x, uint16_t y) -> uint16_t {
                  return static_cast<uint16_t>(x - y);
              });
}

void
Gvml::mulU16Msk(Vr dst, Vr a, Vr b, Vr mark)
{
    trace::OpScope traceOp_("gvml.mulU16Msk");
    ewise2Msk(dst, a, b, mark, core_.timing().compute.mulU16,
              [](uint16_t x, uint16_t y) -> uint16_t {
                  return static_cast<uint16_t>(
                      static_cast<uint32_t>(x) * y);
              });
}

void
Gvml::minU16Msk(Vr dst, Vr a, Vr b, Vr mark)
{
    trace::OpScope traceOp_("gvml.minU16Msk");
    ewise2Msk(dst, a, b, mark, core_.timing().compute.minU16,
              [](uint16_t x, uint16_t y) -> uint16_t {
                  return x < y ? x : y;
              });
}

void
Gvml::maxU16Msk(Vr dst, Vr a, Vr b, Vr mark)
{
    trace::OpScope traceOp_("gvml.maxU16Msk");
    ewise2Msk(dst, a, b, mark, core_.timing().compute.maxU16,
              [](uint16_t x, uint16_t y) -> uint16_t {
                  return x > y ? x : y;
              });
}

void
Gvml::eq16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.eq16");
    ewise2(dst, a, b, core_.timing().compute.eq16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return x == y ? 1 : 0;
           });
}

void
Gvml::gtU16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.gtU16");
    ewise2(dst, a, b, core_.timing().compute.gtU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return x > y ? 1 : 0;
           });
}

void
Gvml::ltU16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.ltU16");
    ewise2(dst, a, b, core_.timing().compute.ltU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return x < y ? 1 : 0;
           });
}

void
Gvml::geU16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.geU16");
    ewise2(dst, a, b, core_.timing().compute.geU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return x >= y ? 1 : 0;
           });
}

void
Gvml::leU16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.leU16");
    ewise2(dst, a, b, core_.timing().compute.leU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return x <= y ? 1 : 0;
           });
}

void
Gvml::gtS16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.gtS16");
    ewise2(dst, a, b, core_.timing().compute.gtU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return asS16(x) > asS16(y) ? 1 : 0;
           });
}

void
Gvml::ltS16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.ltS16");
    ewise2(dst, a, b, core_.timing().compute.ltU16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return asS16(x) < asS16(y) ? 1 : 0;
           });
}

void
Gvml::ltGf16(Vr dst, Vr a, Vr b)
{
    trace::OpScope traceOp_("gvml.ltGf16");
    ewise2(dst, a, b, core_.timing().compute.ltGf16,
           [](uint16_t x, uint16_t y) -> uint16_t {
               return GsiFloat16::fromBits(x) < GsiFloat16::fromBits(y)
                   ? 1 : 0;
           });
}

} // namespace cisram::gvml
