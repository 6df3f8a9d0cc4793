/**
 * @file
 * Admission journal: exactly-once replay across a device reset.
 *
 * A device reset loses every in-flight batch on the core — the
 * queries were admitted, their results were promised, and nothing
 * on the device survives to deliver them. The journal is the host's
 * source of truth: every admission is recorded before any device
 * work happens, marked complete exactly once when its result is
 * delivered, and whatever is still pending after a reset is replayed
 * in admission order with its *original* admission timestamps —
 * which is what makes a replayed batch bit-identical to the
 * un-faulted run (the allocator hands back the same addresses, the
 * fault streams keep counting, and the queue-wait math sees the
 * same admit times).
 *
 * Single-threaded by design, like the DeviceServer shard that owns
 * it; double-complete and complete-of-unknown are programming errors
 * and die via cisram_assert.
 */

#ifndef CISRAM_RECOVERY_JOURNAL_HH
#define CISRAM_RECOVERY_JOURNAL_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace cisram::recovery {

/** One journaled admission (Payload is the query's replay state). */
template <typename Payload>
struct JournalEntry
{
    uint64_t id;
    Payload payload;
    double admitSeconds; ///< sim-clock admission time, preserved
    bool completed = false;
};

/**
 * Append-only admission journal with exactly-once completion.
 */
template <typename Payload>
class ReplayJournal
{
  public:
    /** Record an admission. `id` must be new. */
    void
    admit(uint64_t id, Payload payload, double admit_seconds)
    {
        cisram_assert(find(id) == nullptr,
                      "journal: duplicate admission of query #", id);
        entries_.push_back(
            {id, std::move(payload), admit_seconds, false});
    }

    /** Mark `id` complete. Must be admitted and not yet complete. */
    void
    complete(uint64_t id)
    {
        JournalEntry<Payload> *e = find(id);
        cisram_assert(e != nullptr,
                      "journal: completing unknown query #", id);
        cisram_assert(!e->completed,
                      "journal: double completion of query #", id);
        e->completed = true;
    }

    /**
     * Evacuate every admitted-but-incomplete entry: returns copies
     * (id, payload, original admitSeconds) in admission order and
     * completes each here — exactly-once responsibility now rests
     * with whichever journal re-admits the entry (a replica device
     * after a failover). The caller must re-admit under a
     * *different* namespaced id, or its own per-query bookkeeping
     * loses the one-outcome-per-query guarantee.
     */
    std::vector<JournalEntry<Payload>>
    handOffPending()
    {
        std::vector<JournalEntry<Payload>> out;
        for (auto &e : entries_) {
            if (e.completed)
                continue;
            out.push_back(e);
            e.completed = true;
        }
        return out;
    }

    /** Admitted-but-incomplete entries, in admission order. */
    std::vector<const JournalEntry<Payload> *>
    pending() const
    {
        std::vector<const JournalEntry<Payload> *> out;
        for (const auto &e : entries_)
            if (!e.completed)
                out.push_back(&e);
        return out;
    }

    /** Number of admitted-but-incomplete entries. */
    size_t
    outstanding() const
    {
        size_t n = 0;
        for (const auto &e : entries_)
            if (!e.completed)
                ++n;
        return n;
    }

    size_t admitted() const { return entries_.size(); }

  private:
    JournalEntry<Payload> *
    find(uint64_t id)
    {
        for (auto &e : entries_)
            if (e.id == id)
                return &e;
        return nullptr;
    }

    std::vector<JournalEntry<Payload>> entries_;
};

} // namespace cisram::recovery

#endif // CISRAM_RECOVERY_JOURNAL_HH
