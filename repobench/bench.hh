/**
 * @file
 * Repository benchmark: shared types, the fixed workload settings,
 * and the host-time span log.
 *
 * Four workloads drive the public APIs of load, fleet,
 * kernels/serving, kernels/rag, baseline, dramsim and apusim. Every
 * setting that shapes a workload lives in this header as a constant
 * — offered rates are absolute QPS, never multiples of a capacity
 * probe, so a capacity change shows as a change in latency or
 * goodput instead of moving the load. See README.md for the metric
 * definitions and what each per-layer number should move.
 */

#ifndef REPOBENCH_BENCH_HH
#define REPOBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace repobench {

// ---- seeds ----------------------------------------------------------

/** Workload seed when --seed is omitted. */
constexpr uint64_t kDefaultSeed = 1;

/**
 * Held out: never used while tuning the benchmark or a change; a
 * later performance claim must also hold at this seed.
 */
constexpr uint64_t kHeldOutSeed = 4242;

/**
 * Embedding seed of every corpus. Fixed: the workload seed drives
 * the arrival trace, the query seeds and the mutation plan only.
 */
constexpr uint64_t kCorpusSeed = 77;

/** Hits per answer; recall is measured at this depth. */
constexpr size_t kTopK = 10;

// ---- paper_rag: closed loop, one client, one device core -------------

/** Functional corpus is kPaperChunks ± kPaperChunkJitter chunks. */
constexpr size_t kPaperChunks = 16384;
constexpr size_t kPaperChunkJitter = 512;

/** Functional retrievals per Table 8 mapping (5 mappings). */
constexpr size_t kPaperQueriesPerMapping = 20;

/** Latency limit of a functional retrieval, for goodput. */
constexpr double kPaperLimitMs = 2.0;

// ---- serve_functional: functional fleet, IVF, light queueing ---------

constexpr size_t kFuncChunks = 8192;
constexpr size_t kFuncTopics = 32;
constexpr unsigned kFuncDevices = 4;
constexpr unsigned kFuncReplicas = 2;
constexpr unsigned kFuncShards = 8;
constexpr unsigned kFuncCores = 1;
constexpr size_t kFuncListsPerShard = 4;
constexpr size_t kFuncNprobe = 1;
constexpr uint16_t kFuncFilterMask = 0x00f7; ///< 7 of 8 labels
constexpr double kFuncRateQps = 100.0;
constexpr size_t kFuncArrivals = 160;
constexpr double kFuncLimitMs = 100.0;

// ---- serve_saturation: TimingOnly 200 GB, absolute rate ladder -------

constexpr unsigned kSatDevices = 4;
constexpr unsigned kSatShards = 8;
constexpr double kSatLadderQps[] = {100, 160, 220, 280, 360, 480};
constexpr double kSatReferenceQps = 220;
constexpr double kSatRungSeconds = 12.0;
constexpr double kSatLimitMs = 150.0;

// ---- mutate_failover: functional R=2, epochs, kill, overload ---------

constexpr size_t kMutChunks = 4096;
constexpr unsigned kMutDevices = 4;
constexpr unsigned kMutShards = 4;
constexpr double kMutRateQps = 400.0;
constexpr double kMutDurationS = 2.0;
constexpr double kMutBurstPeriodS = 0.1;
constexpr double kMutLingerS = 0.01;
constexpr unsigned kMutEpochs = 3;
constexpr uint64_t kMutInserts = 64;
constexpr uint64_t kMutDeletes = 32;
constexpr double kMutKillAt = 0.55; ///< fraction of the trace
constexpr uint64_t kMutQuotaB = 12;
constexpr double kMutLimitMs = 40.0;

// ---- results ----------------------------------------------------------

/** One reported number. `clock` is "sim", "host" or "" (a ratio). */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
    std::string clock;
};

/** What one workload run reports. */
struct Report
{
    /** Correctness failures; any entry makes the run fail. */
    std::vector<std::string> errors;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result. */
    std::vector<std::string> notes;

    void
    add(std::string name, double value, std::string unit,
        std::string clock)
    {
        metrics.push_back({std::move(name), value, std::move(unit),
                           std::move(clock)});
    }
};

struct Options
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    /**
     * Test sizes: a few queries per workload, and percentiles are
     * reported whatever their sample count. Never used for timing.
     */
    bool tiny = false;
    /** Where a traced run writes its spans ("" = nowhere). */
    std::string spanPath;
};

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Run one workload; errors land in Report::errors. */
Report runWorkload(const Options &opt);

// ---- host clock -------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t)
{
    return std::chrono::duration<double>(Clock::now() - t).count();
}

/** Peak resident set of this process, MB. */
double peakRssMb();

/** Current resident set of this process, MB. */
double currentRssMb();

/**
 * Host-time spans the benchmark records around each call it makes
 * into a layer's public function. Held in memory, written at exit;
 * a disabled log costs one branch per scope.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0; ///< seconds since the log was enabled
        double end = 0;
        int64_t parent = -1; ///< index of the enclosing span
        uint64_t query = 0;  ///< query id, 0 if none
    };

    /** RAII span; records nothing while the log is disabled. */
    class Scope
    {
      public:
        Scope(SpanLog &log, const char *name, uint64_t query = 0);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        SpanLog *log_ = nullptr;
        size_t index_ = 0;
    };

    void enable();
    void disable() { enabled_ = false; }

    /** Summed duration of every span called `name`. */
    double total(const std::string &name) const;

    /** Number of spans called `name`. */
    size_t count(const std::string &name) const;

    /** Summed duration of spans with no parent. */
    double topLevelTotal() const;

    /** Seconds since enable(). */
    double now() const;

    /** Chrome-trace JSON of every span; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    bool enabled_ = false;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<size_t> open_;
};

/** The process-wide span log. */
SpanLog &spans();

} // namespace repobench

#endif // REPOBENCH_BENCH_HH
