/**
 * @file
 * Answer verification for the repository benchmark: goldens built
 * once per corpus epoch, the fleet's per-shard IVF golden, and the
 * exactly-once ledger check. Runs after the timed window.
 */

#ifndef REPOBENCH_VERIFY_HH
#define REPOBENCH_VERIFY_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baseline/faisslite.hh"
#include "baseline/ivf.hh"
#include "baseline/workloads.hh"
#include "fleet/fleet.hh"

namespace repobench {

/** Shard `s` of `corpus` split `shards` ways, as the router cuts it. */
cisram::baseline::RagCorpusSpec
shardSpec(const cisram::baseline::RagCorpusSpec &corpus, unsigned shards,
          unsigned s);

/**
 * Exact top-k over one corpus epoch with its rows materialized once.
 * Answers equal baseline::searchEpochFlat's with ids globalized
 * (pinned by the benchmark's tests), without regenerating the corpus
 * for every query.
 */
class EpochGolden
{
  public:
    EpochGolden(const cisram::baseline::RagCorpusSpec &spec,
                uint64_t corpus_seed);

    /** Top-k among live chunks passing `filter`; global ids. */
    std::vector<cisram::baseline::Hit>
    search(const int16_t *query, size_t k,
           uint16_t filter = cisram::baseline::kFilterAll) const;

  private:
    cisram::baseline::IndexFlatI16 rows_; ///< every local position
    std::vector<uint64_t> global_;        ///< local -> global id
    std::vector<uint16_t> labels_;
    std::vector<uint8_t> live_;
};

/**
 * The fleet's IVF answer on the CPU: each shard's IndexIvfI16 over
 * the clustering its server trained, merged score-desc, id-asc.
 */
class FleetIvfGolden
{
  public:
    FleetIvfGolden(const cisram::baseline::RagCorpusSpec &corpus,
                   uint64_t corpus_seed, cisram::fleet::Router &router);

    std::vector<cisram::baseline::Hit>
    search(const int16_t *query, size_t k, size_t nprobe,
           uint16_t filter) const;

  private:
    struct Shard
    {
        cisram::baseline::RagCorpusSpec spec;
        std::unique_ptr<cisram::baseline::IndexFlatI16> flat;
        std::unique_ptr<cisram::baseline::IndexIvfI16> ivf;
    };
    std::vector<std::unique_ptr<Shard>> shards_;
};

/** |got ∩ truth| / |truth| by id (1 when truth is empty). */
double recallOf(const std::vector<cisram::baseline::Hit> &got,
                const std::vector<cisram::baseline::Hit> &truth);

/** One delivered answer and the answer it must equal. */
struct Checked
{
    uint64_t id = 0;
    std::vector<cisram::baseline::Hit> got;
    std::vector<cisram::baseline::Hit> want;
};

/** Ids of the answers whose hits (ids or scores) differ. */
std::vector<uint64_t> mismatches(const std::vector<Checked> &answers);

/**
 * Exactly-once over one open-loop run: every offered id was either
 * admitted or shed, every admitted id has exactly one outcome, no
 * outcome is for an id that was not admitted, and the router's
 * ledger is empty. Returns "" or the first violation.
 */
std::string
exactlyOnceViolation(const std::vector<uint64_t> &admitted,
                     const std::vector<uint64_t> &shed,
                     uint64_t offered,
                     const std::vector<cisram::fleet::FleetOutcome> &outs,
                     const cisram::fleet::Router &router);

} // namespace repobench

#endif // REPOBENCH_VERIFY_HH
