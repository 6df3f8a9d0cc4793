/**
 * @file
 * Open-loop fleet driver: arrivals, mutation, chaos, SLO curves.
 *
 * runOpenLoop() replays an ArrivalTrace against a fleet::Router on
 * the simulated clock, interleaving three event streams in time
 * order:
 *
 *  - arrivals: admitted with their tenant's AdmitClass at their
 *    trace timestamp, whether or not the fleet is keeping up (the
 *    open-loop property); after each admission the router pumps
 *    with the observed arrival clock so lingering batches close
 *    out;
 *  - corpus mutation: each MutationPlan batch advances the fleet
 *    one epoch via Router::applyMutation (a fleet-wide drain
 *    barrier) and closes an SLO window for every class
 *    (SloMonitor::flushAll) so SLO curves tile 1:1 with epochs;
 *  - chaos: at most one killDevice() at a scripted time.
 *
 * Every delivered outcome carries the epoch it admitted under;
 * countGoldenMismatches() regenerates each query from its trace
 * seed and bit-compares ids *and* scores against that epoch's
 * whole-corpus golden (faisslite::searchEpochFlat) — the
 * snapshot-consistency proof the bench gates on.
 */

#ifndef CISRAM_LOAD_OPENLOOP_HH
#define CISRAM_LOAD_OPENLOOP_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "fleet/fleet.hh"
#include "load/arrivals.hh"
#include "load/mutation.hh"
#include "obs/slo.hh"

namespace cisram::load {

/** Canonical SLO-class name: "class0", "class1", ... */
std::string sloClassName(unsigned cls);

struct OpenLoopOptions
{
    /** Mutation schedule; null runs against a static corpus. */
    const MutationPlan *plan = nullptr;

    /** Kill `killDevice` at this time; negative = no chaos. */
    double killAtSeconds = -1.0;
    unsigned killDevice = 0;

    /**
     * Per-class SLO monitoring. Classes must be named with
     * sloClassName(); traffic in a class the policy does not
     * configure is simply not monitored. Empty = no monitoring.
     */
    obs::SloPolicy slo;

    /** Per-query search params every arrival carries. */
    kernels::RagSearchParams search;
};

struct OpenLoopResult
{
    /** Every merged outcome, in completion order. */
    std::vector<fleet::FleetOutcome> outcomes;

    uint64_t offered = 0;   ///< arrivals presented to the router
    uint64_t admitted = 0;  ///< accepted past quota + admission
    uint64_t delivered = 0; ///< outcomes with ok == true
    uint64_t epochsApplied = 0;

    /** Router/admission sheds (quota, depth, deadline) by origin. */
    std::map<std::string, uint64_t> shedByTenant;
    std::map<unsigned, uint64_t> shedByClass;

    /** Latency of delivered queries (simulated seconds). */
    metrics::Histogram latency;

    /** Closed SLO windows, close order (empty if not monitored). */
    std::vector<obs::SloWindow> sloWindows;
    uint64_t breachedWindows = 0;
    double worstBurnRate = 0;
};

/**
 * Drive `router` with `trace`. `base` is the whole-corpus spec the
 * router was built from (queries are generated at its dim). The
 * router must be freshly at epoch 0.
 */
OpenLoopResult runOpenLoop(fleet::Router &router,
                           const ArrivalTrace &trace,
                           const baseline::RagCorpusSpec &base,
                           const OpenLoopOptions &opts = {});

/**
 * Bit-compare every delivered outcome against its admission
 * epoch's golden: ids and scores both, against searchEpochFlat on
 * the epoch's whole-corpus spec (epoch 0 = `base`), over the base
 * corpus's rows generated once per call. Returns the number of
 * mismatching queries; 0 is the snapshot-consistency certificate.
 */
uint64_t
countGoldenMismatches(const std::vector<fleet::FleetOutcome> &outs,
                      const ArrivalTrace &trace,
                      const baseline::RagCorpusSpec &base,
                      uint64_t corpus_seed, const MutationPlan *plan,
                      size_t topK,
                      kernels::RagSearchParams search = {});

} // namespace cisram::load

#endif // CISRAM_LOAD_OPENLOOP_HH
