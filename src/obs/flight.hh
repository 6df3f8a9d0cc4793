/**
 * @file
 * Query-lifecycle flight recorder: per-query causal span trees over
 * the serving pipeline, reconciled bit-exactly against served
 * latency.
 *
 * The serving stack grew deep — admission queue, batch former,
 * staged PCIe, retry, breaker, CPU fallback, quarantine, reset,
 * exactly-once replay — and the aggregate p50/p95/p99 histograms
 * cannot answer "where did *this* query's nanoseconds go". The
 * flight recorder can: every journaled admission opens a flight, and
 * every simulated-clock charge the DeviceServer makes on the query's
 * behalf lands as a span in that flight:
 *
 *   admit ─ queue_wait ─┬─ device_attempt(1..n failed, each charged
 *                       │   what it actually cost)
 *                       ├─ pcie_stage + device_compute (success), or
 *                       ├─ cpu_fallback (breaker / retry-exhausted /
 *                       │   post-reset forced delivery), or
 *                       └─ park → reset → replay (a fresh round,
 *                           flow-linked to the abandoning reset)
 *
 * Spans are grouped into *rounds*: a batch parked mid-retry by the
 * health watchdog abandons its round (those charges never reach the
 * delivered outcome — the fresh `ServeOutcome` built at replay time
 * starts from zero), and the round recorded at delivery is the
 * attribution of record. The **reconciliation invariant** (pinned by
 * tests/test_obs.cc, serial and threaded, under armed fault plans):
 * for every delivered query, the final round's span durations — one
 * wait span, the host spans summed in record order, one retrieval
 * span — reproduce `ServeOutcome::servedSeconds()` *bit-exactly*,
 * because the recorder stores the very doubles the server added and
 * `reconciledSeconds()` re-adds them in the same order. No epsilon,
 * no drift: if the ledger and the served latency ever disagree, one
 * of them is lying about where the time went.
 *
 * Everything is stamped on the owning core's deterministic simulated
 * busy clock, so ledgers are bit-identical for any
 * CISRAM_SIM_THREADS. When tracing is armed (CISRAM_TRACE), each
 * flight additionally exports as a Chrome-trace *async* span
 * ('b'/'e' paired by query id on the "serving" process, timestamps
 * in simulated microseconds), its stages as nested 'X' slices, and
 * each reset→replay hand-off as a flow arrow — the per-query
 * timeline behind the paper's Table 8 / Fig. 14 decomposition,
 * viewable in Perfetto.
 *
 * Cost: a disabled recorder (the default when CISRAM_TRACE is
 * unset) rejects every call on one inline bool — measured alongside
 * the unarmed fault hooks in bench_fault_overhead and held to the
 * same <=1e-3 % budget. The recorder never charges simulated time:
 * enabling it cannot change any latency it reports.
 */

#ifndef CISRAM_OBS_FLIGHT_HH
#define CISRAM_OBS_FLIGHT_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/json.hh"

namespace cisram::obs {

/** Span kinds in a query's lifecycle (see file comment). */
enum class Stage : unsigned
{
    QueueWait,     ///< admission → service start (wait category)
    DeviceAttempt, ///< one *failed* device attempt's actual cost
    PcieStage,     ///< successful batch's PCIe staging + readback
    DeviceCompute, ///< the batch's corpus pass on the device
    CpuFallback,   ///< exact CPU retrieval at Xeon latency
    ComputeDetail, ///< child of DeviceCompute: Table 8 stage share

    // Fleet-router stages (the router owns its own recorder; the
    // same reconciliation invariant holds against the router-level
    // latency: (wait + gather) + merge/failover).
    ShardGather,   ///< slowest shard's send+serve+return path
    TopkMerge,     ///< scatter-gather top-k merge on the router
    Failover,      ///< re-route charge when a replica takes over
    ShardPath,     ///< child detail: one shard replica's full path
};

const char *stageName(Stage s);

/**
 * Reconciliation category of a stage. Wait/Host/Retrieval spans sum
 * (per category, in record order) to the outcome's queueWaitSeconds
 * / hostSeconds / retrievalSeconds; Detail spans are children of the
 * compute span and never enter the sums.
 */
enum class SpanCategory { Wait, Host, Retrieval, Detail };

SpanCategory stageCategory(Stage s);

/** One recorded span, on the owning core's simulated clock. */
struct Span
{
    Stage stage;
    unsigned attempt;       ///< 1-based device attempt, 0 if n/a
    double startSeconds;    ///< core busy-clock at span start
    double durationSeconds; ///< the exact double the server charged
    std::string detail;     ///< stage name / failure status, or ""
};

/** Where an admitted query currently stands. */
enum class FlightState { Admitted, Shed, Completed };

const char *flightStateName(FlightState s);

/** The full recorded lifecycle of one admitted query. */
struct QueryFlight
{
    uint64_t id = 0;
    unsigned core = 0;
    double admitSeconds = 0;
    FlightState state = FlightState::Admitted;
    std::string shedReason; ///< last shed reason, if ever shed
    unsigned sheds = 0;     ///< admission attempts shed at the door

    /**
     * One service round's spans. A round abandoned by a mid-retry
     * park keeps its spans for the timeline but is excluded from
     * reconciliation — the delivered outcome restarts from zero.
     */
    struct Round
    {
        std::vector<Span> spans;
        bool abandoned = false;
    };

    std::vector<Round> rounds;
    unsigned replays = 0; ///< reset-replay re-admissions

    // Filled at completion.
    bool delivered = false;
    bool ok = true; ///< false: delivered as a failed outcome
    bool fromDevice = false;
    unsigned attempts = 0;
    size_t batchSize = 0;
    double servedSeconds = 0; ///< as reported by the ServeOutcome
    double endSeconds = 0;    ///< core busy-clock at delivery

    /**
     * Re-derive the served latency from the final round's spans:
     * per-category sums in record order, combined as
     * (wait + retrieval) + host — the exact float-addition sequence
     * `ServeOutcome::servedSeconds()` performs, so a correct ledger
     * matches bit-for-bit.
     */
    double reconciledSeconds() const;

    /** Final (non-abandoned) round, or nullptr before any round. */
    const Round *finalRound() const;
};

/** Recorder enablement. */
struct FlightConfig
{
    enum class Mode
    {
        Auto, ///< follow trace::active() at server construction
        On,   ///< always record (tests, attribution studies)
        Off,  ///< never record
    };

    Mode mode = Mode::Auto;
};

/** Completion summary handed to FlightRecorder::complete(). */
struct FlightCompletion
{
    double endSeconds = 0;
    bool fromDevice = false;
    unsigned attempts = 0;
    size_t batchSize = 0;
    double servedSeconds = 0;
    bool ok = true;
};

/**
 * Per-core flight recorder. Single-threaded by design, like the
 * DeviceServer shard that owns it; cross-core determinism comes from
 * stamping the core's own simulated clock. All record calls are
 * no-ops while disabled (one inline bool test).
 */
class FlightRecorder
{
  public:
    FlightRecorder(unsigned core, FlightConfig cfg);

    bool enabled() const { return enabled_; }
    unsigned core() const { return core_; }

    /** Record an admission (opens the flight, emits the async 'b'). */
    void recordAdmit(uint64_t id, double t);

    /** Record a shed admission attempt (never silently dropped). */
    void recordShed(uint64_t id, double t, const char *reason);

    /**
     * Open a service round for `id` at busy-clock `start`. Emits the
     * pending reset→replay flow arrow if this round is a replay.
     */
    void beginRound(uint64_t id, double start);

    /** Record one span into the query's current round. */
    void span(uint64_t id, Stage stage, unsigned attempt,
              double start, double duration,
              std::string detail = {});

    /**
     * The current round was parked (health watchdog quarantined the
     * core mid-retry): abandon it — its charges never reach the
     * delivered outcome.
     */
    void park(uint64_t id, double t);

    /** The query's outcome was delivered exactly once. */
    void complete(uint64_t id, const FlightCompletion &done);

    /**
     * Record a core reset that replays `replayedIds`: a reset span
     * on the core track plus one flow arrow per replayed query,
     * finished by that query's next beginRound().
     */
    void recordReset(unsigned reset_index, double start,
                     double duration,
                     const std::vector<uint64_t> &replayedIds);

    const std::vector<QueryFlight> &flights() const
    {
        return flights_;
    }

    /** Lookup by query id; nullptr if never admitted here. */
    const QueryFlight *flight(uint64_t id) const;

    size_t completedCount() const;

    /**
     * Delivered flights whose reconciledSeconds() equals their
     * servedSeconds bit-exactly (== on the doubles, no epsilon).
     */
    size_t reconciledCount() const;

    /**
     * Aggregate attribution across delivered flights' final rounds:
     * seconds per stage key ("queue_wait", "device_attempt",
     * "pcie_stage", "device_compute", "cpu_fallback", and
     * "device_compute.<table8 stage>" details). Feeds the
     * EXPERIMENTS.md per-stage table and BenchReport::breakdown.
     */
    std::map<std::string, double> attribution() const;

    /** The machine-readable per-query attribution ledger. */
    json::Value ledgerJson() const;

  private:
    QueryFlight &flightRef(uint64_t id);

    unsigned core_;
    bool enabled_;
    std::vector<QueryFlight> flights_;
    std::unordered_map<uint64_t, size_t> byId_;
    /** Replayed ids awaiting their flow-finish at next beginRound. */
    std::unordered_map<uint64_t, uint64_t> pendingFlow_;
};

/**
 * Trace pid of the "serving" process track (registered on first
 * use). Serving-layer timestamps are simulated *microseconds* (1 us
 * in the viewer = 1 us of simulated time), unlike the device tracks,
 * whose unit is core cycles.
 */
uint32_t servingTracePid();

} // namespace cisram::obs

#endif // CISRAM_OBS_FLIGHT_HH
