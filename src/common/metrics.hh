/**
 * @file
 * Global metrics registry: counters, gauges, and histograms with
 * labeled series.
 *
 * Subsystems register named series (e.g. "dram.row_hits" or
 * "sim.op.cycles{op=gvml.addU16}") and bump them as the simulation
 * runs; a whole run can then be serialized to JSON by the stats sink
 * (bench/bench_report) or inspected programmatically.
 *
 * Cost model: obtaining a series by name renders its key string and
 * does a map lookup. Code that bumps a series per query, sub-query
 * or batch holds a Series handle instead: it renders the key once
 * and resolves the series once per registry, so a bump costs a
 * registry-serial compare and a single add. The cycle-charging hot
 * path uses opCounters(), which caches by string-literal identity.
 * Per-charge instrumentation in the simulator is further gated
 * behind metrics::enabled() so a run that never opts in pays only a
 * relaxed atomic-bool test.
 *
 * Threading model: the registry itself is not locked. Instead, each
 * worker thread in the multi-core pool runs under a ShardScope — a
 * thread-local redirect that makes Registry::get() return a private
 * shard registry — and the pool merges the shards into the global
 * registry *in core order* after the join (see apusim/multicore.hh).
 * Merging in a fixed order makes every float accumulation sequence
 * identical between serial and threaded runs, so snapshots are
 * bit-identical for any CISRAM_SIM_THREADS. Code that holds a series
 * reference across a shard boundary must re-resolve it per call
 * (references into a shard die with the shard); a Series handle does
 * that by itself.
 */

#ifndef CISRAM_COMMON_METRICS_HH
#define CISRAM_COMMON_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.hh"

namespace cisram::metrics {

/** Ordered label set rendered into the series key. */
using Labels = std::vector<std::pair<std::string, std::string>>;

/** Monotonically increasing sum. */
class Counter
{
  public:
    void inc(double d = 1.0) { value_ += d; }
    double value() const { return value_; }
    void zero() { value_ = 0.0; }
    void mergeFrom(const Counter &o) { value_ += o.value_; }

  private:
    double value_ = 0.0;
};

/** Last-written value. */
class Gauge
{
  public:
    void set(double v) { value_ = v; }
    double value() const { return value_; }
    void zero() { value_ = 0.0; }
    /** Merge = adopt the shard's value (last writer wins). */
    void mergeFrom(const Gauge &o) { value_ = o.value_; }

  private:
    double value_ = 0.0;
};

/**
 * Distribution summary: count/sum/min/max plus base-2 exponential
 * buckets. Bucket i (for i >= 1) counts observations in
 * [2^(minExp+i-1), 2^(minExp+i)); bucket 0 catches everything below
 * 2^minExp (including zero and negatives). With minExp = -32 the
 * resolved range spans ~2.3e-10 .. 2^31, which covers both
 * sub-second latencies (the serving pipeline observes seconds) and
 * cycle counts, at factor-of-two resolution.
 */
class Histogram
{
  public:
    static constexpr int numBuckets = 64;

    /** Exponent of bucket 1's lower bound (see class comment). */
    static constexpr int minExp = -32;

    void observe(double v);

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /**
     * Approximate quantile (q in [0, 1]) from the exponential
     * buckets, interpolating linearly inside the bracketing bucket
     * and clamping to the observed [min, max]. Exact at q=0 and q=1;
     * elsewhere accurate to the bucket's factor-of-two width. Fully
     * deterministic: shard merges sum the same buckets in the same
     * order, so p50/p95/p99 are thread-count independent.
     *
     * Edge cases, pinned by tests/test_obs.cc (bench snapshots and
     * the regression gate depend on them staying put): an empty
     * histogram returns 0.0 for every q, and a single-sample
     * histogram returns that sample for every q (the [min, max]
     * clamp collapses the bucket interpolation to the one value).
     * When q * count lands exactly on a cumulative-count bucket
     * boundary, the quantile belongs to the *lower* bucket with
     * interpolation fraction 1 — i.e. it returns that bucket's upper
     * edge (clamped to max), never a value from the next bucket's
     * range (pinned by tests/test_wordparallel.cc).
     */
    double quantile(double q) const;

    uint64_t bucketCount(int i) const { return buckets_[i]; }

    void zero();

    /** Fold another histogram's observations into this one. */
    void mergeFrom(const Histogram &o);

    /**
     * Aggregation entry for cross-device rollups (the fleet router
     * merges per-device latency histograms into one fleet series).
     * Buckets add and moments combine, so the merged histogram's
     * quantiles are identical to observing the pooled samples into
     * one histogram directly — no bucket precision is lost
     * (merged-vs-pooled equivalence is pinned in test_obs).
     */
    void merge(const Histogram &o) { mergeFrom(o); }

  private:
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    uint64_t buckets_[numBuckets] = {};
};

/**
 * Per-op counter bundle used by the cycle-charging hot path. Every
 * counter is repeat-scaled: a charge under a repeat scope of n counts
 * as the n simulated issues it stands for, so the counts depend on
 * the simulated program, not on the execution mode or on how a loop
 * is charged.
 */
struct OpCounters
{
    Counter &issues; ///< simulated issues of the op
    Counter &cycles; ///< total cycles
    Counter &bytes;  ///< total bytes moved (DMA/PIO ops)
};

class Registry
{
  public:
    /**
     * The registry for the calling thread: the installed shard when
     * running under a ShardScope, else the process-wide instance.
     */
    static Registry &get();

    /** The process-wide instance, ignoring any shard redirect. */
    static Registry &global();

    /**
     * A fresh private registry for one worker's observations; merge
     * it into the global registry with mergeFrom() once the worker
     * has joined. Shards are plain registries: series references
     * resolved against a shard are valid only for its lifetime.
     */
    static std::unique_ptr<Registry> makeShard();

    Counter &counter(const std::string &name,
                     const Labels &labels = {});
    Gauge &gauge(const std::string &name, const Labels &labels = {});
    Histogram &histogram(const std::string &name,
                         const Labels &labels = {});

    /**
     * Cached per-op bundle keyed by the string literal's identity;
     * `op` must be a pointer that stays valid for the process
     * lifetime (string literals qualify). The cache is per registry
     * instance, so shard bundles never leak across shards.
     */
    OpCounters &opCounters(const char *op);

    /**
     * Fold every series of `other` into this registry: counters add,
     * gauges adopt the shard value, histograms merge moments and
     * buckets. Call in a deterministic order (core 0, 1, ...) so
     * float accumulation is reproducible.
     */
    void mergeFrom(const Registry &other);

    /**
     * Zero every registered series. References handed out earlier
     * remain valid (series are never destroyed).
     */
    void zeroAll();

    /**
     * Snapshot as JSON: {"counters": {...}, "gauges": {...},
     * "histograms": {key: {count, sum, min, max, mean, p50, p95,
     * p99}}}. `count` and `sum` are exported so downstream diffing
     * (bench_compare) can weight percentile deltas by sample count
     * and detect coverage loss, not just latency shifts.
     */
    json::Value toJson() const;

    /** Series key as rendered into the JSON dump. */
    static std::string seriesKey(const std::string &name,
                                 const Labels &labels);

    /**
     * This instance's process-unique identity, drawn from a counter
     * at construction. A shard freed after one runOnAllCores can be
     * reallocated at the same address, so Series handles compare
     * serials, never addresses.
     */
    uint64_t serial() const { return serial_; }

  private:
    template <typename> friend class Series;

    Registry();

    /**
     * The one lookup body behind counter(), gauge(), histogram() and
     * Series: the T-kind series stored under the rendered `key`,
     * created on first use. Instantiated in metrics.cc for Counter,
     * Gauge and Histogram.
     */
    template <typename T> T &byKey(const std::string &key);

    const uint64_t serial_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
    std::unordered_map<const void *, std::unique_ptr<OpCounters>>
        opCache_;
};

/**
 * A handle on one counter or histogram series, for code that bumps
 * the same series per query, sub-query or batch. The key is rendered
 * once, at construction. get() looks the series up in the calling
 * thread's Registry::get() and caches it with that registry's
 * serial, so it resolves again only when the caller runs under
 * another registry (a ShardScope, or a new shard at a freed one's
 * address). Constructing a handle creates no series; the first get()
 * does, exactly as counter() or histogram() would. Not thread-safe:
 * a handle belongs to one owner, like the rest of its state.
 */
template <typename T>
class Series
{
  public:
    explicit Series(const std::string &name, const Labels &labels = {})
        : key_(Registry::seriesKey(name, labels))
    {
    }

    /** The series in the calling thread's registry. */
    T &get() const
    {
        Registry &reg = Registry::get();
        if (reg.serial() != serial_) {
            series_ = &reg.byKey<T>(key_);
            serial_ = reg.serial();
        }
        return *series_;
    }

  private:
    std::string key_;
    mutable uint64_t serial_ = 0; ///< 0: never resolved
    mutable T *series_ = nullptr;
};

/**
 * RAII redirect: while alive, Registry::get() on *this thread*
 * resolves to `shard`. The multi-core pool installs one per core
 * task so workers never touch the global registry concurrently; the
 * shards are merged in core order after the join.
 */
class ShardScope
{
  public:
    explicit ShardScope(Registry *shard);
    ~ShardScope();

    ShardScope(const ShardScope &) = delete;
    ShardScope &operator=(const ShardScope &) = delete;

  private:
    Registry *prev_;
};

namespace detail {
extern std::atomic<bool> g_enabled;
} // namespace detail

/**
 * True when detailed (per-charge) metric collection is on. Off by
 * default; enabled by CISRAM_METRICS=1, by the bench stats sink, or
 * programmatically. Coarse per-call metrics (DRAM trace summaries,
 * energy breakdowns) are recorded unconditionally. Inline (a single
 * relaxed atomic load) so the charge hot path stays fully
 * inlineable.
 */
inline bool
enabled()
{
    return detail::g_enabled.load(std::memory_order_relaxed);
}

/** Turn detailed collection on or off for the rest of the process. */
void setEnabled(bool on);

/**
 * Read CISRAM_METRICS once and apply it. Idempotent and thread-safe;
 * called by the subsystem constructors so plain env-var usage needs
 * no code.
 */
void initFromEnv();

} // namespace cisram::metrics

#endif // CISRAM_COMMON_METRICS_HH
