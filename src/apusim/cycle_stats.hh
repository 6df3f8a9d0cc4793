/**
 * @file
 * Cycle accounting with tagged regions and repeat scopes.
 *
 * Every timed event in the simulator flows through a CycleStats
 * instance. Two mechanisms support the paper's evaluation methodology:
 *
 *  - Tags attribute cycles to breakdown categories (the stages of
 *    Fig. 12 and Table 8: load LHS/RHS, VR ops, store, top-k, ...).
 *  - Repeat scopes multiply charged cycles by a tile multiplicity so
 *    that paper-scale workloads (1.5 GB inputs, 200 GB corpora) can be
 *    timed by executing one representative tile functionally and
 *    accounting for the rest, which is exact on this architecture
 *    because op latency is data-independent.
 *
 * When the observability layer is armed (CISRAM_TRACE set, or
 * metrics::setEnabled(true)), each charge additionally emits a trace
 * span and per-op counters; the disabled cost is two global bool
 * tests (see common/trace.hh and common/metrics.hh).
 */

#ifndef CISRAM_APUSIM_CYCLE_STATS_HH
#define CISRAM_APUSIM_CYCLE_STATS_HH

#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

namespace cisram::apu {

class CycleStats
{
  public:
    /** Charge `cycles`, scaled by active repeat scopes. */
    void
    charge(uint64_t cycles)
    {
        double scaled = static_cast<double>(cycles) * repeatFactor;
        double start = total_;
        total_ += scaled;
        if (!tagStack.empty())
            tagged_[tagStack.back()] += scaled;
        if (trace::active() || metrics::enabled()) [[unlikely]]
            observeCharge(start, scaled);
    }

    /** Count one microcode instruction (scaled by repeat scopes). */
    void countUop(double n = 1.0) { uops_ += n * repeatFactor; }

    /** Total cycles charged so far. */
    double cycles() const { return total_; }

    /** Total microcode instructions issued. */
    double uops() const { return uops_; }

    /** Cycles attributed to `tag` (0 if never used). */
    double
    taggedCycles(const std::string &tag) const
    {
        auto it = tagged_.find(tag);
        return it == tagged_.end() ? 0.0 : it->second;
    }

    /** All tags with charged cycles. */
    const std::map<std::string, double> &breakdown() const
    {
        return tagged_;
    }

    /** Reset all counters (tag/repeat scopes must be closed). */
    void
    reset()
    {
        cisram_assert(tagStack.empty(),
                      "CycleStats::reset with ", tagStack.size(),
                      " open tag scope(s)");
        cisram_assert(repeatStack.empty(),
                      "CycleStats::reset with ", repeatStack.size(),
                      " open repeat scope(s)");
        total_ = 0.0;
        uops_ = 0.0;
        tagged_.clear();
    }

    void
    pushTag(std::string tag)
    {
        tagStack.push_back(std::move(tag));
    }

    void
    popTag()
    {
        cisram_assert(!tagStack.empty(),
                      "popTag without a matching pushTag");
        tagStack.pop_back();
    }

    /**
     * Multiply later charges by n, a whole loop count: charging one
     * iteration scaled by n then adds exactly what n equal charges
     * add, as every charge is a whole number of cycles.
     */
    void
    pushRepeat(double n)
    {
        cisram_assert(n >= 1.0 && n == std::floor(n),
                      "repeat count ", n, " is not a positive whole "
                      "number");
        repeatStack.push_back(n);
        repeatFactor *= n;
    }

    void
    popRepeat()
    {
        cisram_assert(!repeatStack.empty(),
                      "popRepeat without a matching pushRepeat");
        repeatFactor /= repeatStack.back();
        repeatStack.pop_back();
    }

    /** Current aggregate repeat multiplier. */
    double repeat() const { return repeatFactor; }

    /** Trace identity: owning device (pid) and core (tid). */
    void
    setTraceIds(uint32_t pid, uint32_t tid)
    {
        tracePid = pid;
        traceTid = tid;
    }

  private:
    /** Cold path: emit a trace span and per-op metrics. */
    void observeCharge(double start, double scaled);

    double total_ = 0.0;
    double uops_ = 0.0;
    std::map<std::string, double> tagged_;
    std::vector<std::string> tagStack;
    std::vector<double> repeatStack;
    double repeatFactor = 1.0;
    uint32_t tracePid = 0;
    uint32_t traceTid = 0;
};

/** RAII tag scope: cycles charged inside accrue to `tag`. */
class ScopedTag
{
  public:
    ScopedTag(CycleStats &stats, std::string tag) : stats_(stats)
    {
        stats_.pushTag(std::move(tag));
    }

    ~ScopedTag() { stats_.popTag(); }

    ScopedTag(const ScopedTag &) = delete;
    ScopedTag &operator=(const ScopedTag &) = delete;

  private:
    CycleStats &stats_;
};

/** RAII repeat scope: cycles charged inside are multiplied by n. */
class ScopedRepeat
{
  public:
    ScopedRepeat(CycleStats &stats, double n) : stats_(stats)
    {
        stats_.pushRepeat(n);
    }

    ~ScopedRepeat() { stats_.popRepeat(); }

    ScopedRepeat(const ScopedRepeat &) = delete;
    ScopedRepeat &operator=(const ScopedRepeat &) = delete;

  private:
    CycleStats &stats_;
};

} // namespace cisram::apu

#endif // CISRAM_APUSIM_CYCLE_STATS_HH
