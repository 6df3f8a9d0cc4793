/**
 * @file
 * Deterministic host-to-device fabric model for the fleet router.
 *
 * Every scatter (query out) and gather (result back) crosses one
 * point-to-point link between the router host and a device; the
 * fabric charges that crossing on the simulated clock:
 *
 *   attempt = kLinkLatencySeconds + bytes / kLinkBytesPerSec
 *
 * and injects the two fleet-level fault kinds of the
 * CISRAM_FAULT_SPEC grammar:
 *
 *   link_corrupt  payload CRC mismatch at the receiver: the attempt
 *                 is charged in full and retransmitted, up to
 *                 kLinkMaxAttempts, then DataCorruption.
 *   link_drop     message lost in flight: the sender burns
 *                 kDropTimeoutSeconds waiting for the ack, then
 *                 retransmits, up to kLinkMaxAttempts, then
 *                 Unavailable.
 *
 * Both honor `device=N` scoping (default: all links) and `sticky=1`
 * — a wedged link fails every later attempt until resetLink(), which
 * models the link retraining a device reset performs. A severed link
 * (sever(); the fleet kill switch) behaves like a sticky drop that
 * no draw preceded.
 *
 * Draws are pure hashes of (seed, kind, device, message, attempt),
 * exactly like the PCIe model in gdl: per-link message serials are
 * owned by the single-threaded router, so the injected sequence is
 * bit-identical for any CISRAM_SIM_THREADS.
 */

#ifndef CISRAM_FLEET_FABRIC_HH
#define CISRAM_FLEET_FABRIC_HH

#include <cstdint>
#include <vector>

#include "common/metrics.hh"
#include "common/status.hh"

namespace cisram::fleet {

// Per-link timing and retry parameters.

/** One-way message latency, seconds (NIC + switch hop). */
constexpr double kLinkLatencySeconds = 2e-6;

/** Link bandwidth, bytes per second (~PCIe Gen4 x16 fabric). */
constexpr double kLinkBytesPerSec = 24e9;

/** Delivery attempts before a transfer is abandoned. */
constexpr unsigned kLinkMaxAttempts = 4;

/** Ack timeout charged per dropped attempt, seconds. */
constexpr double kDropTimeoutSeconds = 50e-6;

/** One link's delivery ledger. */
struct LinkStats
{
    uint64_t messages = 0; ///< transfers requested
    uint64_t attempts = 0; ///< delivery attempts (>= messages)
    uint64_t drops = 0;    ///< attempts lost to link_drop
    uint64_t corrupts = 0; ///< attempts lost to link_corrupt
    uint64_t failures = 0; ///< transfers abandoned after retries
    double busySeconds = 0; ///< total simulated link time charged
};

/**
 * The router's N links, one per device. Single-threaded by design
 * (the router owns it); all timing is simulated seconds.
 */
class Fabric
{
  public:
    explicit Fabric(unsigned devices);

    unsigned devices() const
    {
        return static_cast<unsigned>(links_.size());
    }

    /**
     * Deliver `bytes` across the link to `device`. Returns the
     * simulated seconds the delivery cost (including every failed
     * attempt's charge), or Unavailable / DataCorruption once
     * kLinkMaxAttempts are exhausted — the failed attempts' time is
     * still accounted in stats(device).busySeconds.
     */
    StatusOr<double> transfer(unsigned device, uint64_t bytes);

    /** True when a sticky fault (or sever) has wedged the link. */
    bool wedged(unsigned device) const;

    /**
     * Cut the link outright (fleet kill switch / chaos tooling):
     * every transfer fails immediately as Unavailable, charging one
     * ack timeout, until resetLink().
     */
    void sever(unsigned device);

    /**
     * Re-train the link: clears the severed state and any sticky
     * fault latch, the way a device reset re-enumerates its links.
     * Message serials keep counting — fault draws never rewind.
     */
    void resetLink(unsigned device);

    const LinkStats &stats(unsigned device) const;

  private:
    std::vector<LinkStats> links_;
    std::vector<uint64_t> msgSerial_;
    std::vector<uint8_t> wedgedDrop_;    ///< sticky link_drop latch
    std::vector<uint8_t> wedgedCorrupt_; ///< sticky link_corrupt
    std::vector<uint8_t> severed_;       ///< kill-switch cut
    /** fleet.link.messages{device=d}, bumped by every transfer. */
    std::vector<metrics::Series<metrics::Counter>> messages_;
};

} // namespace cisram::fleet

#endif // CISRAM_FLEET_FABRIC_HH
