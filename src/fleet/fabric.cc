#include "fleet/fabric.hh"

#include <string>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "fault/fault.hh"

namespace cisram::fleet {

Fabric::Fabric(unsigned devices)
    : links_(devices), msgSerial_(devices, 0),
      wedgedDrop_(devices, 0), wedgedCorrupt_(devices, 0),
      severed_(devices, 0)
{
    cisram_assert(devices > 0, "fabric needs at least one link");
    fault::initFromEnv();
    messages_.reserve(devices);
    for (unsigned d = 0; d < devices; ++d)
        messages_.emplace_back(
            "fleet.link.messages",
            metrics::Labels{{"device", std::to_string(d)}});
}

bool
Fabric::wedged(unsigned device) const
{
    cisram_assert(device < devices(), "fabric link index OOB");
    return severed_[device] != 0 || wedgedDrop_[device] != 0 ||
        wedgedCorrupt_[device] != 0;
}

void
Fabric::sever(unsigned device)
{
    cisram_assert(device < devices(), "fabric link index OOB");
    severed_[device] = 1;
}

void
Fabric::resetLink(unsigned device)
{
    cisram_assert(device < devices(), "fabric link index OOB");
    severed_[device] = 0;
    wedgedDrop_[device] = 0;
    wedgedCorrupt_[device] = 0;
}

const LinkStats &
Fabric::stats(unsigned device) const
{
    cisram_assert(device < devices(), "fabric link index OOB");
    return links_[device];
}

StatusOr<double>
Fabric::transfer(unsigned device, uint64_t bytes)
{
    cisram_assert(device < devices(), "fabric link index OOB");
    LinkStats &ls = links_[device];
    ++ls.messages;
    messages_[device].get().inc();
    // The fault paths below label their series by device; a clean
    // transfer builds no string.
    auto &reg = metrics::Registry::get();
    auto dev_label = [device] { return std::to_string(device); };

    const fault::FaultPlan *fp = fault::plan();
    uint64_t msg = msgSerial_[device]++;
    double charged = 0;
    bool last_was_drop = false;

    for (unsigned attempt = 0; attempt < kLinkMaxAttempts; ++attempt) {
        ++ls.attempts;

        // A severed link never acks: the sender times out. Checked
        // before the draws so a kill does not consume draw
        // coordinates the clean run would have used.
        bool drop = severed_[device] != 0 ||
            wedgedDrop_[device] != 0;
        if (!drop && fp &&
            fp->drawLinkDrop(device, msg, attempt)) {
            drop = true;
            if (fp->clause(fault::Kind::LinkDrop).sticky)
                wedgedDrop_[device] = 1;
        }
        if (drop) {
            ++ls.drops;
            last_was_drop = true;
            charged += kDropTimeoutSeconds;
            ls.busySeconds += kDropTimeoutSeconds;
            reg.counter("fleet.link.faults",
                        {{"device", dev_label()},
                         {"kind", "link_drop"}})
                .inc();
            continue;
        }

        bool corrupt = wedgedCorrupt_[device] != 0;
        if (!corrupt && fp &&
            fp->drawLinkCorrupt(device, msg, attempt)) {
            corrupt = true;
            if (fp->clause(fault::Kind::LinkCorrupt).sticky)
                wedgedCorrupt_[device] = 1;
        }

        // A corrupted payload still crosses the wire in full before
        // the receiver's CRC rejects it; a clean attempt pays the
        // same and delivers.
        double t = kLinkLatencySeconds +
            static_cast<double>(bytes) / kLinkBytesPerSec;
        charged += t;
        ls.busySeconds += t;
        if (corrupt) {
            ++ls.corrupts;
            last_was_drop = false;
            reg.counter("fleet.link.faults",
                        {{"device", dev_label()},
                         {"kind", "link_corrupt"}})
                .inc();
            continue;
        }
        if (attempt > 0)
            reg.counter("fleet.link.retries",
                        {{"device", dev_label()}})
                .inc(static_cast<double>(attempt));
        return charged;
    }

    ++ls.failures;
    reg.counter("fleet.link.exhausted", {{"device", dev_label()}})
        .inc();
    // Report the failure mode of the final attempt: a drop-dominated
    // exhaustion reads as an unreachable device, a CRC-dominated one
    // as a corrupting link.
    if (last_was_drop) {
        return Status::unavailable(detail::concat(
            "fabric link to device ", device, " dropped message #",
            msg, " ", kLinkMaxAttempts,
            " times (link down or severed)"));
    }
    return Status::dataCorruption(detail::concat(
        "fabric link to device ", device, " corrupted message #",
        msg, " on all ", kLinkMaxAttempts, " attempts"));
}

} // namespace cisram::fleet
