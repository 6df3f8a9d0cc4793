#include "apusim/cycle_stats.hh"

namespace cisram::apu {

void
CycleStats::observeCharge(double start, double scaled)
{
    const char *op = trace::currentOp();
    const char *tag =
        tagStack.empty() ? nullptr : tagStack.back().c_str();
    if (trace::active()) {
        trace::Tracer::get().complete(
            tracePid, traceTid, op ? op : (tag ? tag : "charge"),
            tag ? tag : "untagged", start, scaled,
            trace::currentBytes(), repeatFactor,
            trace::currentEngines());
    }
    if (metrics::enabled() && op) {
        auto &m = metrics::Registry::get().opCounters(op);
        m.issues.inc(repeatFactor);
        m.cycles.inc(scaled);
        double bytes = trace::currentBytes();
        if (bytes > 0)
            m.bytes.inc(bytes * repeatFactor);
    }
}

} // namespace cisram::apu
