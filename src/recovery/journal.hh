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
 * Bookkeeping does not grow with the run. The journal keeps a live
 * window: the entries from the oldest incomplete admission on, in
 * admission order. A completed entry releases its payload at once and
 * leaves the window when every older entry has completed, so the
 * journal never holds the payloads of delivered queries. One id index
 * holds every id ever admitted: a live one maps to its entry's
 * admission serial, a completed or handed-off one to a done mark, so
 * the duplicate and double-completion checks stay exact for ids long
 * gone from the window.
 *
 * Single-threaded by design, like the DeviceServer shard that owns
 * it; duplicate admission, double completion and complete-of-unknown
 * are programming errors and die via cisram_assert.
 */

#ifndef CISRAM_RECOVERY_JOURNAL_HH
#define CISRAM_RECOVERY_JOURNAL_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
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
 * Admission journal with exactly-once completion: a live window in
 * admission order, indexed by id. Every call is O(1) amortized except
 * pending() and handOffPending(), which are O(window).
 */
template <typename Payload>
class ReplayJournal
{
  public:
    /** Record an admission. `id` must never have been admitted. */
    void
    admit(uint64_t id, Payload payload, double admit_seconds)
    {
        bool fresh =
            index_.try_emplace(id, head_ + window_.size()).second;
        cisram_assert(fresh, "journal: duplicate admission of query #",
                      id);
        window_.push_back(
            {id, std::move(payload), admit_seconds, false});
        ++outstanding_;
    }

    /**
     * Mark `id` complete and release its payload. Must be admitted,
     * not yet complete and not handed off.
     */
    void
    complete(uint64_t id)
    {
        auto it = index_.find(id);
        cisram_assert(it != index_.end(),
                      "journal: completing unknown query #", id);
        cisram_assert(it->second != kDone,
                      "journal: double completion of query #", id);
        JournalEntry<Payload> &e = window_[it->second - head_];
        it->second = kDone;
        e.completed = true;
        e.payload = Payload{};
        --outstanding_;
        while (!window_.empty() && window_.front().completed) {
            window_.pop_front();
            ++head_;
        }
    }

    /**
     * Evacuate every admitted-but-incomplete entry: returns them
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
        out.reserve(outstanding_);
        for (JournalEntry<Payload> &e : window_) {
            if (e.completed)
                continue;
            index_.find(e.id)->second = kDone;
            out.push_back(std::move(e));
        }
        head_ += window_.size();
        window_.clear();
        outstanding_ = 0;
        return out;
    }

    /**
     * Admitted-but-incomplete entries, in admission order. The
     * pointers survive admit() but not the next complete() or
     * handOffPending(), which may drop entries from the window.
     */
    std::vector<const JournalEntry<Payload> *>
    pending() const
    {
        std::vector<const JournalEntry<Payload> *> out;
        out.reserve(outstanding_);
        for (const JournalEntry<Payload> &e : window_)
            if (!e.completed)
                out.push_back(&e);
        return out;
    }

    /** Number of admitted-but-incomplete entries. */
    size_t outstanding() const { return outstanding_; }

    size_t admitted() const { return index_.size(); }

  private:
    static constexpr uint64_t kDone = UINT64_MAX;

    /** From the oldest incomplete admission on; front is serial head_. */
    std::deque<JournalEntry<Payload>> window_;
    uint64_t head_ = 0;
    /** Every admitted id -> admission serial while live, else kDone. */
    std::unordered_map<uint64_t, uint64_t> index_;
    size_t outstanding_ = 0;
};

} // namespace cisram::recovery

#endif // CISRAM_RECOVERY_JOURNAL_HH
