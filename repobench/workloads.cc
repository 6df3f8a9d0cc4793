/**
 * @file
 * The four benchmark workloads and their metrics.
 *
 * A run repeats {set-up, session} until the sessions have measured
 * --seconds of host time. A session replays one fixed input drawn
 * from the workload seed, so every session's simulated results must
 * equal the first one's bit for bit (checked); simulated metrics come
 * from the first session, host metrics are medians over sessions and
 * set-ups. Verification runs after the timed window.
 */

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <set>

#include "baseline/faisslite.hh"
#include "baseline/ivf.hh"
#include "baseline/workloads.hh"
#include "bench.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "dramsim/dram_sim.hh"
#include "fleet/fleet.hh"
#include "kernels/rag.hh"
#include "load/arrivals.hh"
#include "load/mutation.hh"
#include "verify.hh"

namespace repobench {

using namespace cisram;
using baseline::Hit;
using baseline::RagCorpusSpec;
using kernels::RagRunResult;
using kernels::RagSearchParams;
using kernels::RagVariant;

namespace {

// ---- small helpers ---------------------------------------------------

/**
 * The host's speed now relative to the reference host: a fixed
 * integer-and-memory loop's time there (the 4-core container the
 * benchmark was tuned on) divided by its time now. The shared host's
 * speed drifts by 10-25 % within minutes and the simulator's speed
 * follows it; scaling host figures by this ratio cancels most of the
 * drift. The loop is benchmark code, so no program change moves it.
 */
double
hostSpeed()
{
    constexpr double kReferenceSeconds = 0.016;
    static std::vector<uint64_t> buf(size_t(1) << 19); // 4 MiB
    Clock::time_point t = Clock::now();
    uint64_t x = 1;
    for (int pass = 0; pass < 6; ++pass)
        for (size_t i = 0; i < buf.size(); ++i) {
            x += 0x9e3779b97f4a7c15ull;
            uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
            buf[(z >> 13) & (buf.size() - 1)] += z ^ (z >> 31);
        }
    volatile uint64_t keep = buf[x & (buf.size() - 1)];
    (void)keep;
    return kReferenceSeconds / secondsSince(t);
}

/**
 * A session's host time scaled to the reference host speed. The
 * speed is sampled at the start, at the end and at least every half
 * second in between (sessionTick() from the session loops); each
 * stretch of session time is scaled by the mean of the samples at its
 * ends, and the samples' own time is left out.
 */
class ScaledClock
{
  public:
    void
    start()
    {
        speed_ = hostSpeed();
        scaled_ = raw_ = 0;
        last_ = Clock::now();
    }

    void
    tick()
    {
        if (secondsSince(last_) >= 0.5)
            sample();
    }

    void stop() { sample(); }

    double raw() const { return raw_; }
    double scaled() const { return scaled_; }

  private:
    void
    sample()
    {
        double dt = secondsSince(last_);
        double speed = hostSpeed();
        raw_ += dt;
        scaled_ += dt * 0.5 * (speed_ + speed);
        speed_ = speed;
        last_ = Clock::now();
    }

    Clock::time_point last_;
    double speed_ = 1, scaled_ = 0, raw_ = 0;
};

/** The clock of the timed session in progress, if any. */
ScaledClock *g_session = nullptr;

/** Called by the session loops after each query. */
void
sessionTick()
{
    if (g_session)
        g_session->tick();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

uint64_t
mix(uint64_t a, uint64_t b)
{
    return Rng(a * 0x9e3779b97f4a7c15ull ^ b).next();
}

/** Nearest-rank percentile of an ascending sample. */
struct Percentile
{
    double value = 0;
    size_t samples = 0;
    size_t beyond = 0; ///< samples strictly after the rank
};

Percentile
percentile(const std::vector<double> &sorted, double p)
{
    Percentile r;
    r.samples = sorted.size();
    if (sorted.empty())
        return r;
    size_t rank = static_cast<size_t>(
        std::ceil(p * static_cast<double>(sorted.size())));
    size_t idx = rank == 0 ? 0 : rank - 1;
    r.value = sorted[idx];
    r.beyond = sorted.size() - 1 - idx;
    return r;
}

std::string
fmt(const char *f, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), f, v);
    return buf;
}

const RagVariant kMappings[] = {RagVariant::NoOpt, RagVariant::Opt1,
                                RagVariant::Opt2, RagVariant::Opt3,
                                RagVariant::AllOpts};

/** Metric-name suffix of a mapping ("no_opt", ..., "all_opts"). */
std::string
mappingKey(RagVariant v)
{
    std::string s = kernels::ragVariantName(v);
    std::replace(s.begin(), s.end(), '-', '_');
    return s;
}

const char *const kStages[] = {"load_embedding", "load_query",
                               "calc_distance", "topk_aggregation",
                               "return_topk", "overlap_hidden"};

double
stageOf(const kernels::RagStageLatency &st, size_t i)
{
    const double v[] = {st.loadEmbedding,   st.loadQuery,
                        st.calcDistance,    st.topkAggregation,
                        st.returnTopk,      st.overlapHidden};
    return v[i];
}

/** Table 8 stages minus overlap_hidden, in total()'s add order. */
double
readdStages(double le, double lq, double cd, double tk, double rt,
            double oh)
{
    return le + lq + cd + tk + rt - oh;
}

/**
 * Paper Table 8 totals, ms: NoOpt then AllOpts at 10/50/200 GB.
 * model_err_pct is the mean |sim - paper| / paper over these six.
 */
constexpr double kPaperNoOptMs[] = {21.8, 129.5, 539.2};
constexpr size_t kTable8TopK = 5;
constexpr double kPaperAllOptsMs[] = {3.9, 20.6, 84.2};

/**
 * Timing-model error against Table 8, from fresh TimingOnly devices
 * as bench_table8_rag_breakdown runs them.
 */
double
modelErrPct(std::vector<double> *noopt_ms = nullptr,
            std::vector<double> *allopts_ms = nullptr)
{
    double err = 0;
    for (size_t s = 0; s < 3; ++s) {
        const RagCorpusSpec &spec = baseline::ragCorpora()[s];
        for (bool opt : {false, true}) {
            apu::ApuDevice dev;
            dev.core(0).setMode(apu::ExecMode::TimingOnly);
            dram::DramSystem hbm(dram::hbm2eConfig());
            kernels::RagRetriever r(dev, hbm, spec, kTable8TopK);
            double ms = r.retrieve(baseline::genQuery(spec.dim, 1),
                                   opt ? RagVariant::AllOpts
                                       : RagVariant::NoOpt,
                                   1)
                            .stages.total() *
                1e3;
            double paper = opt ? kPaperAllOptsMs[s] : kPaperNoOptMs[s];
            err += std::fabs(ms - paper) / paper;
            if (opt && allopts_ms)
                allopts_ms->push_back(ms);
            if (!opt && noopt_ms)
                noopt_ms->push_back(ms);
        }
    }
    return err / 6 * 100;
}

// ---- per-layer metric catalogue --------------------------------------

struct LayerDef
{
    std::string name;
    std::string unit;
    std::string clock;
};

std::vector<LayerDef>
buildLayerCatalogue()
{
    std::vector<LayerDef> c = {
        {"fleet.gather_ms", "ms", "sim"},
        {"fleet.merge_ms", "ms", "sim"},
        {"fleet.failover_ms", "ms", "sim"},
        {"fleet.failovers", "count", "sim"},
        {"fleet.evacuated", "count", "sim"},
        {"serving.queue_wait_ms", "ms", "sim"},
        {"serving.batch_size", "queries", "sim"},
        {"serving.pcie_ms", "ms", "sim"},
        {"serving.device_ms", "ms", "sim"},
        {"serving.fallback_frac", "ratio", "sim"},
        {"serving.shed", "count", "sim"},
        {"serving.resets", "count", "sim"},
        {"serving.replayed", "count", "sim"},
        {"mutation.restaged_mb", "MB", "sim"},
    };
    for (const char *s : kStages)
        c.push_back({std::string("rag.") + s + "_ms", "ms", "sim"});
    for (RagVariant v : kMappings)
        for (const char *s : kStages)
            c.push_back({std::string("rag.") + s + "_ms." +
                             mappingKey(v),
                         "ms", "sim"});
    std::vector<LayerDef> rest = {
        {"rag.scanned_chunks", "chunks", "sim"},
        {"dram.mb_per_query", "MB", "sim"},
        {"dram.row_hit_ratio", "ratio", "sim"},
        {"apusim.cycles_per_query", "cycles", "sim"},
        {"apusim.uops_per_query", "uops", "sim"},
        {"host.setup.golden_s", "s", "host"},
        {"host.setup.ivf_train_s", "s", "host"},
        {"host.rss_after_setup_mb", "MB", "host"},
        {"host.verify_s", "s", "host"},
        {"host.rag.call_b1_ms", "ms", "host"},
        {"host.rag.call_b8_ms", "ms", "host"},
        {"host.rag.ivf_call_ms", "ms", "host"},
        {"host.apusim.ns_per_uop", "ns", "host"},
        {"host.fleet.us_per_query", "us", "host"},
        {"host.mutation.epoch_s", "s", "host"},
        {"host.untracked_frac", "ratio", "host"},
        {"trace.overhead_frac", "ratio", "host"},
    };
    c.insert(c.end(), rest.begin(), rest.end());
    return c;
}

const std::vector<LayerDef> &
layerCatalogue()
{
    static const std::vector<LayerDef> c = buildLayerCatalogue();
    return c;
}

using Layers = std::map<std::string, double>;

// ---- direct layer drives (traced run) --------------------------------

/**
 * Direct retrieveBatch calls on one shard, in the workload's mode
 * and on its queries: host ms and MB streamed per call at batch 1
 * and 8, exhaustive and (with a clustering) IVF. Host figures are
 * medians of three calls.
 */
struct DirectDrive
{
    double ms[2][2] = {};     ///< [ivf][batch 8]
    double dramMb[2][2] = {}; ///< [ivf][batch 8]
    double nsPerUop = 0;
    double rowHitRatio = 0;

    /** Per-call cost at batch size b, linear between 1 and 8. */
    static double
    lerp(const double (&v)[2], double b)
    {
        return v[0] + (v[1] - v[0]) * (b - 1) / 7;
    }
    double callMs(bool ivf, double b) const { return lerp(ms[ivf], b); }
    double
    callDramMb(bool ivf, double b) const
    {
        return lerp(dramMb[ivf], b);
    }
};

using QueryGen = std::function<std::vector<int16_t>(uint64_t)>;

DirectDrive
driveRetriever(const RagCorpusSpec &spec, bool functional,
               const baseline::IvfClustering *ivf,
               RagSearchParams ivf_params, const QueryGen &query)
{
    DirectDrive d;
    apu::ApuDevice dev;
    if (!functional)
        dev.core(0).setMode(apu::ExecMode::TimingOnly);
    dram::DramSystem hbm(dram::hbm2eConfig());
    kernels::RagRetriever r(dev, hbm, spec, kTopK);
    for (bool use_ivf : {false, true}) {
        if (use_ivf && !ivf)
            continue;
        kernels::RagBatchOptions o;
        o.overlapStream = true;
        if (use_ivf) {
            o.search = ivf_params;
            o.ivf = ivf;
        }
        for (size_t b8 : {0, 1}) {
            std::vector<std::vector<int16_t>> qs;
            for (uint64_t i = 0; i < (b8 ? 8u : 1u); ++i)
                qs.push_back(query(i + 1));
            std::vector<double> ms;
            for (int i = 0; i < 3; ++i) {
                Clock::time_point t = Clock::now();
                std::vector<RagRunResult> res;
                {
                    SpanLog::Scope s(spans(),
                                     "RagRetriever::retrieveBatch");
                    res = r.retrieveBatch(qs, kCorpusSeed, o);
                }
                double host = secondsSince(t);
                ms.push_back(host * 1e3);
                // The call resets the core's counters at its start.
                double uops = dev.core(0).stats().uops();
                if (!use_ivf && !b8 && i == 0 && uops > 0)
                    d.nsPerUop = host * 1e9 / uops;
                double bytes = 0;
                for (const RagRunResult &x : res)
                    bytes += x.dramBytes;
                d.dramMb[use_ivf][b8] = bytes / 1e6;
            }
            d.ms[use_ivf][b8] = median(ms);
        }
    }
    const dram::DramStats &st = hbm.stats();
    double acc = static_cast<double>(st.rowHits + st.rowMisses);
    d.rowHitRatio = acc > 0 ? st.rowHits / acc : 0;
    return d;
}

void
addDirectDrive(const DirectDrive &d, Layers &l)
{
    l["host.rag.call_b1_ms"] = d.ms[0][0];
    l["host.rag.call_b8_ms"] = d.ms[0][1];
    l["host.rag.ivf_call_ms"] = d.ms[1][0];
    l["host.apusim.ns_per_uop"] = d.nsPerUop;
    l["dram.row_hit_ratio"] = d.rowHitRatio;
}

// ---- the workload interface ------------------------------------------

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build everything a session needs (timed as setup_s). */
    virtual void setup() = 0;

    /** The timed window; returns the queries it served. */
    virtual uint64_t session() = 0;

    /** This session's simulated results equal the first one's. */
    virtual bool sameAsFirst() = 0;

    /** Check answers; add the simulated end-to-end metrics. */
    virtual void verify(Report &rep) = 0;

    /** Simulated and host per-layer numbers (traced run only). */
    virtual void layers(Layers &l, Report &rep) = 0;

    /** Flight recorders on for the next setup(). */
    void recordFlights() { flights_ = true; }

  protected:
    explicit Workload(const Options &opt) : opt_(opt) {}

    /** The simulated end-to-end numbers of one run. */
    struct Sim
    {
        std::vector<double> latencySeconds; ///< delivered queries
        double tailP = 0.9;
        double qps = 0;
        double goodput = 0;
        uint64_t offered = 0;
        uint64_t delivered = 0;
        double recall = 1;
    };

    /** Add the simulated end-to-end metrics every workload reports. */
    void
    addSimMetrics(Report &rep, const Sim &sim, const std::string &where)
    {
        std::vector<double> ms;
        for (double s : sim.latencySeconds)
            ms.push_back(s * 1e3);
        std::sort(ms.begin(), ms.end());
        Percentile p50 = percentile(ms, 0.5);
        Percentile tail = percentile(ms, sim.tailP);
        std::string pname = "p" + fmt("%g", sim.tailP * 100);
        if (!opt_.tiny && tail.beyond < 10)
            rep.errors.push_back(pname + " has only " +
                                 std::to_string(tail.beyond) +
                                 " samples beyond it (need 10)");
        rep.notes.push_back(
            where + ": sim_p50_ms " + fmt("%.6g", p50.value) +
            " ms, sim_" + pname + "_ms " + fmt("%.6g", tail.value) +
            " ms (sim clock; " + std::to_string(tail.samples) +
            " delivered samples, " + std::to_string(tail.beyond) +
            " beyond the tail)");
        rep.add("sim_p50_ms", p50.value, "ms", "sim");
        rep.add("sim_tail_ms", tail.value, "ms", "sim");
        rep.add("sim_qps", sim.qps, "1/s", "sim");
        rep.add("sim_goodput_qps", sim.goodput, "1/s", "sim");
        rep.add("delivered_frac",
                static_cast<double>(sim.delivered) /
                    static_cast<double>(sim.offered),
                "ratio", "");
        rep.add("recall_at_10", sim.recall, "ratio", "");
        rep.add("model_err_pct", modelErrPct(), "%", "sim");
        rep.attempted = sim.offered;
        rep.failed = sim.offered - sim.delivered;
    }

    Options opt_;
    bool flights_ = false;
};

// ---- paper_rag -------------------------------------------------------

class PaperRag : public Workload
{
  public:
    explicit PaperRag(const Options &opt) : Workload(opt) {}

    void
    setup() override
    {
        size_t jitter = opt_.tiny ? 64 : kPaperChunkJitter;
        size_t base = opt_.tiny ? 1024 : kPaperChunks;
        size_t chunks =
            base - jitter + mix(opt_.seed, 1) % (2 * jitter + 1);
        func_ = RagCorpusSpec{"paper-func", 0, chunks, 368};
        perMapping_ = opt_.tiny ? 2 : kPaperQueriesPerMapping;

        // Free the previous set-up's devices before building new ones.
        device_.reset();
        for (auto &t : timing_)
            t.reset();
        for (size_t s = 0; s < 3; ++s) {
            timing_[s] = std::make_unique<Device>(
                baseline::ragCorpora()[s], false, kTable8TopK);
            timingQuery_[s] = baseline::genQuery(
                func_.dim, mix(opt_.seed, 100 + s));
        }
        device_ = std::make_unique<Device>(func_, true, kTopK);
        queries_.clear();
        for (size_t i = 0; i < perMapping_ * 5; ++i) {
            SpanLog::Scope s(spans(), "genQuery");
            queries_.push_back(
                baseline::genQuery(func_.dim, mix(opt_.seed, 1000 + i)));
        }
    }

    uint64_t
    session() override
    {
        timingRes_.assign(3, {});
        for (size_t s = 0; s < 3; ++s)
            for (RagVariant v : kMappings) {
                SpanLog::Scope sp(spans(), "RagRetriever::retrieve");
                timingRes_[s].push_back(timing_[s]->r.retrieve(
                    timingQuery_[s], v, kCorpusSeed));
            }
        // Each retrieval resets the core's counters, so they are
        // read after every call.
        const apu::CycleStats &st = device_->dev.core(0).stats();
        funcRes_.clear();
        funcCycles_ = funcUops_ = 0;
        for (size_t i = 0; i < queries_.size(); ++i) {
            {
                SpanLog::Scope sp(spans(), "RagRetriever::retrieve",
                                  i + 1);
                funcRes_.push_back(device_->r.retrieve(
                    queries_[i], kMappings[i % 5], kCorpusSeed));
            }
            funcCycles_ += st.cycles();
            funcUops_ += st.uops();
            sessionTick();
        }
        if (first_.empty()) {
            first_ = funcRes_;
            firstTiming_ = timingRes_;
        }
        return 15 + funcRes_.size();
    }

    bool
    sameAsFirst() override
    {
        auto same = [](const RagRunResult &a, const RagRunResult &b) {
            return a.stages.total() == b.stages.total() &&
                a.hits == b.hits;
        };
        for (size_t i = 0; i < funcRes_.size(); ++i)
            if (!same(funcRes_[i], first_[i]))
                return false;
        for (size_t s = 0; s < 3; ++s)
            for (size_t v = 0; v < 5; ++v)
                if (!same(timingRes_[s][v], firstTiming_[s][v]))
                    return false;
        return true;
    }

    void
    verify(Report &rep) override
    {
        baseline::IndexFlatI16 flat(func_.dim);
        {
            SpanLog::Scope s(spans(), "genEmbeddings");
            auto emb = baseline::genEmbeddings(func_, 0, func_.numChunks,
                                               kCorpusSeed);
            SpanLog::Scope s2(spans(), "IndexFlatI16");
            flat.add(emb.data(), func_.numChunks);
        }
        std::vector<Checked> checked;
        std::vector<double> lat;
        double span = 0, recall = 0;
        uint64_t within = 0;
        for (size_t i = 0; i < first_.size(); ++i) {
            const RagRunResult &r = first_[i];
            checked.push_back({i + 1, r.hits,
                               flat.search(queries_[i].data(), kTopK)});
            recall += recallOf(r.hits, checked.back().want);
            double t = r.stages.total();
            lat.push_back(t);
            span += t;
            within += t * 1e3 <= kPaperLimitMs;
            const auto &st = r.stages;
            if (readdStages(st.loadEmbedding, st.loadQuery,
                            st.calcDistance, st.topkAggregation,
                            st.returnTopk, st.overlapHidden) != t)
                rep.errors.push_back("retrieval " +
                                     std::to_string(i + 1) +
                                     ": Table 8 stages do not re-add "
                                     "to its total");
        }
        for (uint64_t id : mismatches(checked))
            rep.errors.push_back("functional retrieval " +
                                 std::to_string(id) +
                                 " differs from the FAISS-lite golden");
        rep.notes.push_back(
            "paper_rag: closed loop, 1 client; functional corpus " +
            std::to_string(func_.numChunks) + " chunks, " +
            std::to_string(first_.size()) +
            " functional retrievals + 15 TimingOnly (5 mappings x "
            "10/50/200 GB); generator lateness 0 (closed loop)");
        double n = static_cast<double>(first_.size());
        uint64_t attempted = first_.size() + 15;
        addSimMetrics(rep,
                      {lat, 0.9, n / span, within / span, attempted,
                       attempted, recall / n},
                      "paper_rag functional retrievals");
        // The session's own paper-scale totals must agree with the
        // fresh-device calibration model_err_pct is computed from.
        std::vector<double> noopt, allopts;
        modelErrPct(&noopt, &allopts);
        for (size_t s = 0; s < 3; ++s) {
            double got_no = firstTiming_[s][0].stages.total() * 1e3;
            double got_all = firstTiming_[s][4].stages.total() * 1e3;
            if (got_no != noopt[s] || got_all != allopts[s])
                rep.errors.push_back(
                    std::string("Table 8 totals at ") +
                    baseline::ragCorpora()[s].label +
                    " depend on device reuse");
        }
    }

    void
    layers(Layers &l, Report &) override
    {
        double n = static_cast<double>(first_.size());
        for (size_t k = 0; k < 6; ++k) {
            double sum = 0;
            for (const RagRunResult &r : first_)
                sum += stageOf(r.stages, k);
            l[std::string("rag.") + kStages[k] + "_ms"] = sum / n * 1e3;
            for (size_t v = 0; v < 5; ++v)
                l[std::string("rag.") + kStages[k] + "_ms." +
                  mappingKey(kMappings[v])] =
                    stageOf(firstTiming_[2][v].stages, k) * 1e3;
        }
        l["rag.scanned_chunks"] = static_cast<double>(func_.numChunks);
        double bytes = 0;
        for (const RagRunResult &r : first_)
            bytes += r.dramBytes;
        l["dram.mb_per_query"] = bytes / n / 1e6;
        const dram::DramStats &st = device_->hbm.stats();
        double acc = static_cast<double>(st.rowHits + st.rowMisses);
        double hbmRowHits = acc > 0 ? st.rowHits / acc : 0;
        l["apusim.cycles_per_query"] = funcCycles_ / n;
        l["apusim.uops_per_query"] = funcUops_ / n;

        // No golden is built in set-up here: the FAISS-lite golden
        // belongs to verification (host.verify_s).
        size_t dim = func_.dim;
        uint64_t seed = opt_.seed;
        DirectDrive d = driveRetriever(
            func_, true, nullptr, {}, [dim, seed](uint64_t i) {
                return baseline::genQuery(dim, mix(seed, 1000 + i));
            });
        addDirectDrive(d, l);
        // The session's own HBM model, not the direct drive's.
        l["dram.row_hit_ratio"] = hbmRowHits;
    }

  private:
    struct Device
    {
        Device(const RagCorpusSpec &spec, bool functional, size_t k)
            : hbm(dram::hbm2eConfig()), r(dev, hbm, spec, k)
        {
            if (!functional)
                dev.core(0).setMode(apu::ExecMode::TimingOnly);
        }
        apu::ApuDevice dev;
        dram::DramSystem hbm;
        kernels::RagRetriever r;
    };

    RagCorpusSpec func_{"paper-func", 0, 1, 368};
    size_t perMapping_ = 0;
    std::unique_ptr<Device> timing_[3];
    std::vector<int16_t> timingQuery_[3];
    std::unique_ptr<Device> device_;
    std::vector<std::vector<int16_t>> queries_;
    std::vector<RagRunResult> funcRes_, first_;
    std::vector<std::vector<RagRunResult>> timingRes_, firstTiming_;
    double funcCycles_ = 0, funcUops_ = 0;
};

// ---- open-loop fleet runs ---------------------------------------------

/** One router replaying one trace. */
struct FleetRun
{
    RagCorpusSpec base{"", 0, 1, 368};
    std::unique_ptr<fleet::Router> router;
    load::ArrivalTrace trace;
    std::unique_ptr<load::MutationPlan> plan;
    double killAt = -1;
    unsigned killDevice = 0;
    std::function<std::vector<int16_t>(const load::Arrival &)> query;
    std::function<RagSearchParams(const load::Arrival &)> params;

    std::vector<fleet::FleetOutcome> outs;
    std::vector<uint64_t> admitted, shed;
    std::map<unsigned, uint64_t> shedByClass;
    uint64_t epochs = 0;
    double restagedBytes = 0;

    void
    build(const fleet::FleetConfig &cfg)
    {
        SpanLog::Scope s(spans(), "Router::Router");
        router = std::make_unique<fleet::Router>(base, kCorpusSeed, cfg);
    }

    /** Admit the trace at its timestamps; mutate and kill on time. */
    void
    drive()
    {
        outs.clear();
        admitted.clear();
        shed.clear();
        shedByClass.clear();
        epochs = 0;
        restagedBytes = 0;
        std::set<unsigned> killed;
        auto keep = [&](std::vector<fleet::FleetOutcome> v) {
            for (auto &o : v)
                outs.push_back(std::move(o));
        };
        constexpr double kNever = 1e300;
        size_t ai = 0, mi = 0;
        size_t nm = plan ? plan->batches().size() : 0;
        bool kill_pending = killAt >= 0;
        while (ai < trace.arrivals.size() || mi < nm || kill_pending) {
            double ta = ai < trace.arrivals.size()
                ? trace.arrivals[ai].seconds
                : kNever;
            double tm = mi < nm ? plan->batches()[mi].atSeconds : kNever;
            double tk = kill_pending ? killAt : kNever;
            if (tm <= ta && tm <= tk) {
                const load::MutationBatch &b = plan->batches()[mi++];
                auto ups = plan->shardUpdates(b.epoch);
                for (const auto &u : ups)
                    for (unsigned d : router->placement()[u.shard])
                        if (!killed.count(d))
                            restagedBytes +=
                                static_cast<double>(u.deltaBytes);
                SpanLog::Scope s(spans(), "Router::applyMutation");
                keep(router->applyMutation(b.epoch, ups));
                ++epochs;
                continue;
            }
            if (tk <= ta) {
                SpanLog::Scope s(spans(), "Router::killDevice");
                router->killDevice(killDevice);
                killed.insert(killDevice);
                kill_pending = false;
                continue;
            }
            const load::Arrival &a = trace.arrivals[ai++];
            std::vector<int16_t> q;
            {
                SpanLog::Scope s(spans(), "genQuery", a.id);
                q = query(a);
            }
            size_t journaled = router->ledgerAdmitted();
            Status st;
            {
                SpanLog::Scope s(spans(), "Router::admit", a.id);
                st = router->admit(
                    a.id, std::move(q), a.seconds, params(a),
                    kernels::AdmitClass{trace.tenantName(a), a.sloClass});
            }
            // A refused admission either never reached the ledger
            // (quota) or was journaled and completes as not-ok
            // (unroutable); only the latter owes an outcome.
            if (router->ledgerAdmitted() > journaled)
                admitted.push_back(a.id);
            else
                shed.push_back(a.id);
            if (!st.ok())
                ++shedByClass[a.sloClass];
            {
                SpanLog::Scope s(spans(), "Router::pumpUntil", a.id);
                keep(router->pumpUntil(a.seconds));
            }
            sessionTick();
        }
        SpanLog::Scope s(spans(), "Router::drain");
        keep(router->drain());
    }

    /**
     * Delivered latencies; throughput and goodput (queries within
     * `limit_ms`) over first admission to last completion.
     */
    struct Sim
    {
        std::vector<double> lat;
        double qps = 0;
        double goodput = 0;
    };

    Sim
    sim(double limit_ms) const
    {
        Sim r;
        double first = 1e300, last = 0, within = 0;
        for (const fleet::FleetOutcome &o : outs) {
            if (!o.ok)
                continue;
            r.lat.push_back(o.latencySeconds);
            within += o.latencySeconds * 1e3 <= limit_ms;
            first = std::min(first, o.admitSeconds);
            last = std::max(last, o.admitSeconds + o.latencySeconds);
        }
        if (!r.lat.empty() && last > first) {
            r.qps = static_cast<double>(r.lat.size()) / (last - first);
            r.goodput = within / (last - first);
        }
        return r;
    }

    const load::Arrival &
    arrival(uint64_t id) const
    {
        return trace.arrivals.at(id - 1);
    }
};

bool
sameOutcomes(const std::vector<fleet::FleetOutcome> &a,
             const std::vector<fleet::FleetOutcome> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i)
        if (a[i].id != b[i].id || a[i].ok != b[i].ok ||
            a[i].latencySeconds != b[i].latencySeconds ||
            a[i].epoch != b[i].epoch || !(a[i].hits == b[i].hits))
            return false;
    return true;
}

/**
 * The first n arrivals of a Poisson trace, rescaled so the n-th lands
 * at n / rate: a Poisson process conditioned on its count, so every
 * seed offers exactly the nominal rate and the same number of
 * queries.
 */
load::ArrivalTrace
conditionedPoisson(load::TrafficConfig tc, size_t n)
{
    tc.shape = load::ArrivalShape::Poisson;
    tc.durationSeconds = 2.0 * static_cast<double>(n) / tc.ratePerSecond;
    load::ArrivalTrace t;
    {
        SpanLog::Scope s(spans(), "genArrivalTrace");
        t = load::genArrivalTrace(tc);
    }
    cisram_assert(t.arrivals.size() >= n, "repobench: short trace");
    t.arrivals.resize(n);
    double scale = static_cast<double>(n) / tc.ratePerSecond /
        t.arrivals.back().seconds;
    for (load::Arrival &a : t.arrivals)
        a.seconds *= scale;
    t.cfg.durationSeconds = static_cast<double>(n) / tc.ratePerSecond;
    return t;
}

fleet::FleetConfig
baseFleetConfig(bool flights)
{
    fleet::FleetConfig cfg;
    cfg.topK = kTopK;
    // Open-loop arrivals are sparse: without the time close-out a
    // tail batch would wait for the final drain.
    cfg.server.batch.maxLingerSeconds = 0.05;
    if (flights) {
        cfg.flight.mode = obs::FlightConfig::Mode::On;
        cfg.server.flight.mode = obs::FlightConfig::Mode::On;
    }
    return cfg;
}

/** Every shard server replica in the fleet. */
std::vector<kernels::DeviceServer *>
allServers(fleet::Router &router)
{
    std::vector<kernels::DeviceServer *> v;
    for (unsigned d = 0; d < router.devices(); ++d)
        for (unsigned s = 0; s < router.shards(); ++s)
            if (kernels::DeviceServer *srv = router.server(d, s))
                v.push_back(srv);
    return v;
}

/** One device batch a traced run formed. */
struct FormedBatch
{
    size_t size = 0;
    bool ivf = false;
};

/**
 * The device batches of one traced run, read from the server flight
 * ledgers: the queries of a batch share one device-compute span.
 */
std::vector<FormedBatch>
formedBatches(FleetRun &run)
{
    std::vector<FormedBatch> out;
    for (kernels::DeviceServer *srv : allServers(*run.router)) {
        std::map<double, FormedBatch> by_start;
        for (const obs::QueryFlight &qf :
             srv->flightRecorder().flights()) {
            const obs::QueryFlight::Round *round = qf.finalRound();
            if (qf.state != obs::FlightState::Completed || !round)
                continue;
            uint64_t query = qf.id & 0xffffffffull; // subQueryId
            for (const obs::Span &s : round->spans)
                if (s.stage == obs::Stage::DeviceCompute)
                    by_start[s.startSeconds] = {
                        qf.batchSize,
                        run.params(run.arrival(query)).nprobe > 0};
        }
        for (const auto &[start, b] : by_start)
            out.push_back(b);
    }
    return out;
}

/**
 * Host microseconds per arrival spent in the benchmark's Router
 * calls, minus the formed batches' retrieval time as the direct
 * calls measured it (interpolated by batch size).
 */
double
routerHostUsPerQuery(const std::vector<FleetRun *> &runs,
                     const DirectDrive &direct)
{
    double router_s = 0;
    for (const char *n :
         {"Router::admit", "Router::pumpUntil", "Router::drain",
          "Router::applyMutation", "Router::killDevice"})
        router_s += spans().total(n);
    double batch_s = 0, arrivals = 0;
    for (FleetRun *r : runs) {
        arrivals += static_cast<double>(r->trace.arrivals.size());
        for (const FormedBatch &b : formedBatches(*r))
            batch_s += direct.callMs(b.ivf, b.size) * 1e-3;
    }
    return (router_s - batch_s) / arrivals * 1e6;
}

/**
 * Fleet, serving, rag, dram and apusim numbers of one traced fleet
 * run, with the exact re-add checks: the router ledger (when it
 * records) and every server ledger must reconcile every flight, and
 * every device-compute span is checked against its Table 8 children
 * minus overlap_hidden.
 */
void
fleetLayers(FleetRun &run, Layers &l, Report &rep,
            const DirectDrive &direct,
            const std::function<double(const fleet::FleetOutcome &)>
                &scanned)
{
    fleet::Router &router = *run.router;
    double nq = static_cast<double>(run.outs.size());
    const obs::FlightRecorder &rf = router.flightRecorder();
    if (rf.enabled()) {
        if (rf.reconciledCount() != rf.completedCount() ||
            rf.completedCount() != run.outs.size())
            rep.errors.push_back(
                "router flight ledger: " +
                std::to_string(rf.reconciledCount()) + " of " +
                std::to_string(run.outs.size()) +
                " queries re-add to (wait + gather) + (failover + "
                "merge)");
        auto ra = rf.attribution();
        l["fleet.gather_ms"] = ra["shard_gather"] / nq * 1e3;
        l["fleet.merge_ms"] = ra["topk_merge"] / nq * 1e3;
        l["fleet.failover_ms"] = ra["failover"] / nq * 1e3;
    } else {
        // Without the router ledger, re-add from the outcomes; the
        // merge charge is the configured per-candidate cost.
        double merge = router.shards() * static_cast<double>(kTopK) *
            fleet::FleetConfig{}.mergeSecondsPerCandidate;
        double gather = 0, failover = 0;
        for (const fleet::FleetOutcome &o : run.outs) {
            if ((0.0 + o.gatherSeconds) + o.hostSeconds !=
                o.latencySeconds)
                rep.errors.push_back(
                    "query " + std::to_string(o.id) +
                    ": gather + host does not re-add to its latency");
            gather += o.gatherSeconds;
            failover += o.hostSeconds - merge;
        }
        l["fleet.gather_ms"] = gather / nq * 1e3;
        l["fleet.merge_ms"] = merge * 1e3;
        l["fleet.failover_ms"] = failover / nq * 1e3;
    }
    l["fleet.failovers"] = static_cast<double>(router.failovers());
    l["fleet.evacuated"] =
        static_cast<double>(router.evacuatedQueries());

    double flights = 0, device_flights = 0, batch = 0, fallback = 0;
    double shed = 0, resets = 0, replayed = 0;
    double worst_readd = 0;
    uint64_t inexact = 0;
    std::map<std::string, double> attr;
    for (kernels::DeviceServer *srv : allServers(router)) {
        const obs::FlightRecorder &fr = srv->flightRecorder();
        if (fr.reconciledCount() != fr.completedCount())
            rep.errors.push_back(
                "server flight ledger: " +
                std::to_string(fr.completedCount() -
                               fr.reconciledCount()) +
                " flights do not re-add to wait + host + retrieval");
        for (const auto &[k, v] : fr.attribution())
            attr[k] += v;
        for (const obs::QueryFlight &qf : fr.flights()) {
            shed += qf.sheds;
            const obs::QueryFlight::Round *round = qf.finalRound();
            if (qf.state != obs::FlightState::Completed || !round)
                continue;
            flights += 1;
            batch += static_cast<double>(qf.batchSize);
            fallback += !qf.fromDevice;
            double dc = -1;
            std::map<std::string, double> child;
            for (const obs::Span &s : round->spans) {
                if (s.stage == obs::Stage::DeviceCompute)
                    dc = s.durationSeconds;
                if (s.stage == obs::Stage::ComputeDetail)
                    child[s.detail] = s.durationSeconds;
            }
            if (dc < 0)
                continue;
            device_flights += 1;
            double readd = readdStages(
                child["load_embedding"], child["load_query"],
                child["calc_distance"], child["topk_aggregation"],
                child["return_topk"], child["overlap_hidden"]);
            if (readd != dc) {
                ++inexact;
                worst_readd =
                    std::max(worst_readd, std::fabs(readd - dc) / dc);
            }
        }
        resets += srv->resets();
        replayed += static_cast<double>(srv->replayedQueries());
    }
    // The server records each batch's summed stage shares, so a batch
    // of three or more re-adds only to rounding; more than that is an
    // accounting error.
    if (worst_readd > 1e-12)
        rep.errors.push_back(
            "device compute differs from its Table 8 stages minus "
            "overlap_hidden by " +
            fmt("%.3g", worst_readd) + " (relative)");
    rep.notes.push_back(
        "device compute re-add: " +
        std::to_string(static_cast<uint64_t>(device_flights) - inexact) +
        " of " + std::to_string(static_cast<uint64_t>(device_flights)) +
        " exact, the rest within " + fmt("%.3g", worst_readd) +
        " relative (batch stage shares are summed before re-adding)");
    auto per = [&](const std::string &k, double n) {
        return n > 0 ? attr[k] / n * 1e3 : 0.0;
    };
    l["serving.queue_wait_ms"] = per("queue_wait", flights);
    l["serving.batch_size"] = flights > 0 ? batch / flights : 0;
    l["serving.pcie_ms"] = per("pcie_stage", flights);
    l["serving.device_ms"] = per("device_compute", flights);
    l["serving.fallback_frac"] = flights > 0 ? fallback / flights : 0;
    l["serving.shed"] = shed;
    l["serving.resets"] = resets;
    l["serving.replayed"] = replayed;
    l["mutation.restaged_mb"] = run.restagedBytes / 1e6;
    for (const char *s : kStages)
        l[std::string("rag.") + s + "_ms"] =
            per(std::string("device_compute.") + s, device_flights);

    double scan = 0, delivered = 0;
    for (const fleet::FleetOutcome &o : run.outs)
        if (o.ok) {
            scan += scanned(o);
            delivered += 1;
        }
    l["rag.scanned_chunks"] = delivered > 0 ? scan / delivered : 0;
    double mb = 0;
    for (const FormedBatch &b : formedBatches(run))
        mb += direct.callDramMb(b.ivf, b.size);
    l["dram.mb_per_query"] = delivered > 0 ? mb / delivered : 0;

    // apusim.* stay 0 on the fleet: every retrieval resets its core's
    // counters, so the router's devices hold only their last call's.
}

/**
 * Host cost of what the router's constructor does once per shard
 * replica, driven directly on the same inputs: the CPU golden and,
 * with IVF, the coarse quantizer.
 */
void
replicaSetupHost(const RagCorpusSpec &base, fleet::Router &router,
                 const baseline::IvfBuildConfig *ivf, Layers &l)
{
    double golden = 0, train = 0;
    for (unsigned s = 0; s < router.shards(); ++s) {
        RagCorpusSpec spec = shardSpec(base, router.shards(), s);
        for (size_t rep = 0; rep < router.placement()[s].size(); ++rep) {
            Clock::time_point t = Clock::now();
            {
                SpanLog::Scope sp(spans(), "genEmbeddings");
                auto emb = baseline::genEmbeddings(spec, spec.firstChunk,
                                                   spec.numChunks,
                                                   kCorpusSeed);
                SpanLog::Scope sp2(spans(), "IndexFlatI16");
                baseline::IndexFlatI16 flat(spec.dim);
                flat.add(emb.data(), spec.numChunks);
            }
            golden += secondsSince(t);
            if (ivf) {
                t = Clock::now();
                SpanLog::Scope sp(spans(), "IvfClustering::build");
                baseline::IvfClustering::build(spec, kCorpusSeed, *ivf);
                train += secondsSince(t);
            }
        }
    }
    l["host.setup.golden_s"] = golden;
    l["host.setup.ivf_train_s"] = train;
}

// ---- serve_functional ------------------------------------------------

class ServeFunctional : public Workload
{
  public:
    explicit ServeFunctional(const Options &opt) : Workload(opt) {}

    void
    setup() override
    {
        run_.reset();
        run_ = std::make_unique<FleetRun>();
        FleetRun &r = *run_;
        r.base = RagCorpusSpec{"serve-func", 0,
                               opt_.tiny ? 1024 : kFuncChunks, 368, 0,
                               kFuncTopics};
        load::TrafficConfig tc;
        tc.ratePerSecond = kFuncRateQps;
        tc.seed = opt_.seed;
        tc.tenants = {{"flat", 1.0, 0, 16}, {"ivf", 1.0, 0, 16}};
        r.trace = conditionedPoisson(tc, opt_.tiny ? 12 : kFuncArrivals);
        RagCorpusSpec base = r.base;
        r.query = [base](const load::Arrival &a) {
            return queryFor(base, a);
        };
        r.params = [](const load::Arrival &a) { return paramsFor(a); };
        r.build(config(flights_));
    }

    uint64_t
    session() override
    {
        run_->drive();
        if (first_.empty())
            first_ = run_->outs;
        return run_->trace.arrivals.size();
    }

    bool
    sameAsFirst() override
    {
        return sameOutcomes(run_->outs, first_);
    }

    void
    verify(Report &rep) override
    {
        FleetRun &r = *run_;
        if (std::string v = exactlyOnceViolation(
                r.admitted, r.shed, r.trace.arrivals.size(), r.outs,
                *r.router);
            !v.empty())
            rep.errors.push_back("exactly-once: " + v);
        EpochGolden flat(r.base, kCorpusSeed);
        FleetIvfGolden ivf(r.base, kCorpusSeed, *r.router);
        std::vector<Checked> checked;
        double recall = 0;
        size_t ivf_n = 0;
        for (const fleet::FleetOutcome &o : r.outs) {
            if (!o.ok)
                continue;
            const load::Arrival &a = r.arrival(o.id);
            auto q = queryFor(r.base, a);
            RagSearchParams p = paramsFor(a);
            auto exact = flat.search(q.data(), kTopK, p.filterMask);
            if (p.nprobe == 0) {
                checked.push_back({o.id, o.hits, exact});
                continue;
            }
            checked.push_back(
                {o.id, o.hits,
                 ivf.search(q.data(), kTopK, p.nprobe, p.filterMask)});
            recall += recallOf(o.hits, exact);
            ++ivf_n;
        }
        for (uint64_t id : mismatches(checked))
            rep.errors.push_back("query " + std::to_string(id) +
                                 " differs from its golden");
        FleetRun::Sim s = r.sim(kFuncLimitMs);
        rep.notes.push_back(
            "serve_functional: open loop, Poisson " +
            fmt("%g", kFuncRateQps) + " q/s; " +
            std::to_string(r.trace.arrivals.size()) + " arrivals (" +
            std::to_string(ivf_n) +
            " ivf); generator lateness 0 (admission at the trace "
            "timestamp)");
        addSimMetrics(rep,
                      {s.lat, 0.9, s.qps, s.goodput,
                       r.trace.arrivals.size(), s.lat.size(),
                       ivf_n ? recall / ivf_n : 1.0},
                      "serve_functional");
    }

    void
    layers(Layers &l, Report &rep) override
    {
        FleetRun &r = *run_;
        baseline::IvfBuildConfig build = ivfBuild();
        replicaSetupHost(r.base, *r.router, &build, l);
        RagCorpusSpec s0 = shardSpec(r.base, kFuncShards, 0);
        const baseline::IvfClustering *cl =
            r.router->server(r.router->placement()[0][0], 0)
                ->clustering();
        RagCorpusSpec base = r.base;
        uint64_t seed = opt_.seed;
        DirectDrive d = driveRetriever(
            s0, true, cl, {kFuncNprobe, kFuncFilterMask},
            [base, seed](uint64_t i) {
                load::Arrival a;
                a.querySeed = mix(seed, 900 + i);
                return queryFor(base, a);
            });
        addDirectDrive(d, l);
        l["host.fleet.us_per_query"] = routerHostUsPerQuery({&r}, d);
        fleet::Router &router = *r.router;
        fleetLayers(r, l, rep, d, [&](const fleet::FleetOutcome &o) {
            const load::Arrival &a = r.arrival(o.id);
            RagSearchParams p = paramsFor(a);
            double n = 0;
            auto q = queryFor(r.base, a);
            for (unsigned s = 0; s < router.shards(); ++s) {
                const baseline::IvfClustering *c =
                    router.server(router.placement()[s][0], s)
                        ->clustering();
                if (p.nprobe == 0) {
                    n += static_cast<double>(c->numChunks());
                    continue;
                }
                for (uint32_t list : c->selectProbes(q.data(), p.nprobe))
                    n += static_cast<double>(c->listSize(list));
            }
            return n;
        });
    }

  private:
    static baseline::IvfBuildConfig
    ivfBuild()
    {
        return baseline::IvfBuildConfig{kFuncListsPerShard, 4096, 4};
    }

    fleet::FleetConfig
    config(bool flights) const
    {
        fleet::FleetConfig cfg = baseFleetConfig(flights);
        cfg.devices = kFuncDevices;
        cfg.replicas = kFuncReplicas;
        cfg.shards = kFuncShards;
        cfg.coresPerDevice = kFuncCores;
        cfg.functional = true;
        cfg.server.ivf.enabled = true;
        cfg.server.ivf.build = ivfBuild();
        return cfg;
    }

    /** Topic-centred queries, with every fourth one off-centre. */
    static std::vector<int16_t>
    queryFor(const RagCorpusSpec &base, const load::Arrival &a)
    {
        if (a.querySeed % 4 == 0)
            return baseline::genQuery(base.dim, a.querySeed);
        return baseline::genQueryForTopic(base, a.querySeed % base.topics,
                                          a.querySeed, kCorpusSeed);
    }

    static RagSearchParams
    paramsFor(const load::Arrival &a)
    {
        if (a.tenant == 1)
            return RagSearchParams{kFuncNprobe, kFuncFilterMask};
        return RagSearchParams{};
    }

    std::unique_ptr<FleetRun> run_;
    std::vector<fleet::FleetOutcome> first_;
};

// ---- serve_saturation ------------------------------------------------

class ServeSaturation : public Workload
{
  public:
    explicit ServeSaturation(const Options &opt) : Workload(opt) {}

    void
    setup() override
    {
        runs_.clear();
        const RagCorpusSpec &spec = baseline::ragCorpora()[2];
        size_t i = 0;
        for (double rate : kSatLadderQps) {
            auto r = std::make_unique<FleetRun>();
            r->base = spec;
            load::TrafficConfig tc;
            tc.ratePerSecond = rate;
            tc.seed = mix(opt_.seed, 50 + i++);
            tc.tenants = {{"sat", 1.0, 0, 256}};
            r->trace = conditionedPoisson(
                tc, static_cast<size_t>(
                        rate * (opt_.tiny ? 0.5 : kSatRungSeconds)));
            size_t dim = spec.dim;
            r->query = [dim](const load::Arrival &a) {
                return baseline::genQuery(dim, a.querySeed);
            };
            r->params = [](const load::Arrival &) {
                return RagSearchParams{};
            };
            fleet::FleetConfig cfg = baseFleetConfig(flights_);
            cfg.devices = kSatDevices;
            cfg.shards = kSatShards;
            // One core per co-located shard server, so each server's
            // busy clock is a true timeline.
            cfg.coresPerDevice = kSatShards / kSatDevices;
            r->build(cfg);
            runs_.push_back(std::move(r));
        }
    }

    uint64_t
    session() override
    {
        uint64_t n = 0;
        for (auto &r : runs_) {
            r->drive();
            n += r->trace.arrivals.size();
        }
        if (first_.empty())
            for (auto &r : runs_)
                first_.push_back(r->outs);
        return n;
    }

    bool
    sameAsFirst() override
    {
        for (size_t i = 0; i < runs_.size(); ++i)
            if (!sameOutcomes(runs_[i]->outs, first_[i]))
                return false;
        return true;
    }

    void
    verify(Report &rep) override
    {
        // Latency at the reference rung, throughput at the top rung,
        // goodput at the best rung, delivery over the whole ladder.
        Sim sim;
        sim.tailP = 0.99;
        for (size_t i = 0; i < runs_.size(); ++i) {
            FleetRun &r = *runs_[i];
            if (std::string v = exactlyOnceViolation(
                    r.admitted, r.shed, r.trace.arrivals.size(), r.outs,
                    *r.router);
                !v.empty())
                rep.errors.push_back("exactly-once at " +
                                     fmt("%g", kSatLadderQps[i]) +
                                     " q/s: " + v);
            FleetRun::Sim s = r.sim(kSatLimitMs);
            sim.offered += r.trace.arrivals.size();
            sim.delivered += s.lat.size();
            sim.goodput = std::max(sim.goodput, s.goodput);
            sim.qps = s.qps;
            std::vector<double> sorted = s.lat;
            std::sort(sorted.begin(), sorted.end());
            rep.notes.push_back(
                "  rung " + fmt("%g", kSatLadderQps[i]) +
                " q/s: achieved " + fmt("%.2f", s.qps) +
                " q/s, p50 " +
                fmt("%.3f", percentile(sorted, 0.5).value * 1e3) +
                " ms, p99 " +
                fmt("%.3f", percentile(sorted, 0.99).value * 1e3) +
                " ms, goodput " + fmt("%.2f", s.goodput) + " q/s (" +
                std::to_string(s.lat.size()) + " delivered)");
            if (kSatLadderQps[i] == kSatReferenceQps)
                sim.latencySeconds = s.lat;
        }
        rep.notes.push_back(
            "serve_saturation: open loop, Poisson, TimingOnly 200 GB, "
            "reference rung " +
            fmt("%g", kSatReferenceQps) +
            " q/s; generator lateness 0 (admission at the trace "
            "timestamp)");
        addSimMetrics(rep, sim, "serve_saturation reference rung");
    }

    void
    layers(Layers &l, Report &rep) override
    {
        // TimingOnly servers build no golden and no clustering, so
        // host.setup.* stay 0 here.
        FleetRun &ref = *runs_.front();
        size_t dim = ref.base.dim;
        uint64_t seed = opt_.seed;
        DirectDrive d = driveRetriever(
            shardSpec(ref.base, kSatShards, 0), false, nullptr, {},
            [dim, seed](uint64_t i) {
                return baseline::genQuery(dim, mix(seed, 900 + i));
            });
        addDirectDrive(d, l);
        // Simulated layer numbers are taken at the reference rung;
        // the host bookkeeping cost over the whole ladder.
        for (auto &r : runs_)
            if (r->trace.cfg.ratePerSecond == kSatReferenceQps) {
                double shard_chunks =
                    static_cast<double>(r->base.numChunks);
                fleetLayers(*r, l, rep, d,
                            [&](const fleet::FleetOutcome &) {
                                return shard_chunks;
                            });
            }
        std::vector<FleetRun *> all;
        for (auto &r : runs_)
            all.push_back(r.get());
        l["host.fleet.us_per_query"] = routerHostUsPerQuery(all, d);
    }

  private:
    std::vector<std::unique_ptr<FleetRun>> runs_;
    std::vector<std::vector<fleet::FleetOutcome>> first_;
};

// ---- mutate_failover -------------------------------------------------

class MutateFailover : public Workload
{
  public:
    explicit MutateFailover(const Options &opt) : Workload(opt) {}

    void
    setup() override
    {
        run_.reset();
        run_ = std::make_unique<FleetRun>();
        FleetRun &r = *run_;
        r.base = RagCorpusSpec{"mutate", 0,
                               opt_.tiny ? 1024 : kMutChunks, 368};
        double duration = opt_.tiny ? 0.06 : kMutDurationS;
        load::MutationConfig mc;
        mc.batches = kMutEpochs;
        mc.startSeconds = 0.2 * duration;
        mc.intervalSeconds = 0.2 * duration;
        mc.insertsPerBatch = kMutInserts;
        mc.deletesPerBatch = kMutDeletes;
        mc.seed = mix(opt_.seed, 7);
        {
            SpanLog::Scope s(spans(), "MutationPlan");
            r.plan = std::make_unique<load::MutationPlan>(
                r.base, kMutShards, mc);
        }
        load::TrafficConfig tc;
        tc.shape = load::ArrivalShape::Burst;
        tc.ratePerSecond = kMutRateQps;
        tc.durationSeconds = duration;
        tc.burstFactor = 3.0;
        tc.burstDuty = 0.25;
        tc.burstPeriodSeconds = kMutBurstPeriodS;
        tc.seed = opt_.seed;
        tc.tenants = {{"tenantA", 1.0, 0, 64}, {"tenantB", 1.0, 1, 64}};
        {
            SpanLog::Scope s(spans(), "genArrivalTrace");
            r.trace = load::genArrivalTrace(tc);
        }
        size_t dim = r.base.dim;
        r.query = [dim](const load::Arrival &a) {
            return baseline::genQuery(dim, a.querySeed);
        };
        r.params = [](const load::Arrival &) {
            return RagSearchParams{};
        };
        fleet::FleetConfig cfg = baseFleetConfig(flights_);
        cfg.devices = kMutDevices;
        cfg.replicas = 2;
        cfg.shards = kMutShards;
        // One core per co-located server: on a shared core the
        // device's busy clock sums its servers' clocks, and a kill
        // evacuates to replicas no earlier than that sum.
        cfg.coresPerDevice = 4;
        cfg.functional = true;
        cfg.server.batch.maxLingerSeconds = kMutLingerS;
        // The queue cap sits at the batch scale so it bites; class 1
        // keeps half of it and sheds first.
        cfg.server.admission.maxQueueDepth = 8;
        cfg.server.admission.sloClasses = 2;
        // Admission sheds count as router breaker failures; a
        // sustained overload must not measure the breaker instead.
        cfg.server.breakerThreshold = 64;
        cfg.quotas.push_back({"tenantB", kMutQuotaB});
        // The router's flight recorder stays off: with it on, a query
        // refused mid-dispatch (every replica of one shard full) aborts
        // the program, because the router records it as shed and then
        // opens a service round for it (obs/flight.cc:235). fleetLayers
        // re-adds the router level from the outcomes instead.
        cfg.flight.mode = obs::FlightConfig::Mode::Off;
        r.build(cfg);
        r.killAt = kMutKillAt * duration;
        r.killDevice = r.router->placement()[0][0];
    }

    uint64_t
    session() override
    {
        run_->drive();
        if (first_.empty())
            first_ = run_->outs;
        return run_->trace.arrivals.size();
    }

    bool
    sameAsFirst() override
    {
        return sameOutcomes(run_->outs, first_);
    }

    void
    verify(Report &rep) override
    {
        FleetRun &r = *run_;
        if (std::string v = exactlyOnceViolation(
                r.admitted, r.shed, r.trace.arrivals.size(), r.outs,
                *r.router);
            !v.empty())
            rep.errors.push_back("exactly-once: " + v);
        if (r.epochs != kMutEpochs)
            rep.errors.push_back("mutation epochs applied: " +
                                 std::to_string(r.epochs));
        // One golden per epoch, materialized once.
        std::vector<std::unique_ptr<EpochGolden>> goldens;
        for (uint64_t e = 0; e <= r.plan->epochs(); ++e) {
            SpanLog::Scope s(spans(), "EpochGolden");
            goldens.push_back(std::make_unique<EpochGolden>(
                r.plan->specAt(e), kCorpusSeed));
        }
        std::vector<Checked> checked;
        std::set<uint64_t> epochs;
        double recall = 0;
        for (const fleet::FleetOutcome &o : r.outs) {
            if (!o.ok)
                continue;
            auto q = baseline::genQuery(r.base.dim,
                                        r.arrival(o.id).querySeed);
            checked.push_back(
                {o.id, o.hits, goldens.at(o.epoch)->search(q.data(), kTopK)});
            recall += recallOf(o.hits, checked.back().want);
            epochs.insert(o.epoch);
        }
        for (uint64_t id : mismatches(checked))
            rep.errors.push_back(
                "query " + std::to_string(id) +
                " differs from the golden of its admission epoch");
        if (!opt_.tiny && epochs.size() < 2)
            rep.errors.push_back("answers span fewer than two epochs");
        FleetRun::Sim s = r.sim(kMutLimitMs);
        uint64_t shed0 = r.shedByClass[0], shed1 = r.shedByClass[1];
        rep.notes.push_back(
            "mutate_failover: open loop, bursty " +
            fmt("%g", kMutRateQps) + " q/s mean; " +
            std::to_string(r.trace.arrivals.size()) + " arrivals, " +
            std::to_string(r.admitted.size()) + " journaled, " +
            std::to_string(shed0) + " class0 / " +
            std::to_string(shed1) + " class1 admissions refused, " +
            std::to_string(r.epochs) + " epochs, device " +
            std::to_string(r.killDevice) + " killed at " +
            fmt("%.3f", r.killAt) +
            " s; generator lateness 0 (admission at the trace "
            "timestamp)");
        addSimMetrics(rep,
                      {s.lat, 0.9, s.qps, s.goodput,
                       r.trace.arrivals.size(), s.lat.size(),
                       checked.empty() ? 1.0 : recall / checked.size()},
                      "mutate_failover");
    }

    void
    layers(Layers &l, Report &rep) override
    {
        FleetRun &r = *run_;
        replicaSetupHost(r.base, *r.router, nullptr, l);
        size_t dim = r.base.dim;
        uint64_t seed = opt_.seed;
        DirectDrive d = driveRetriever(
            shardSpec(r.base, kMutShards, 0), true, nullptr, {},
            [dim, seed](uint64_t i) {
                return baseline::genQuery(dim, mix(seed, 900 + i));
            });
        addDirectDrive(d, l);
        l["host.fleet.us_per_query"] = routerHostUsPerQuery({&r}, d);
        size_t n = spans().count("Router::applyMutation");
        l["host.mutation.epoch_s"] =
            n ? spans().total("Router::applyMutation") / n : 0;
        fleetLayers(r, l, rep, d, [&](const fleet::FleetOutcome &o) {
            return static_cast<double>(r.plan->specAt(o.epoch).numChunks);
        });
    }

  private:
    std::unique_ptr<FleetRun> run_;
    std::vector<fleet::FleetOutcome> first_;
};

std::unique_ptr<Workload>
make(const Options &opt)
{
    if (opt.workload == "paper_rag")
        return std::make_unique<PaperRag>(opt);
    if (opt.workload == "serve_functional")
        return std::make_unique<ServeFunctional>(opt);
    if (opt.workload == "serve_saturation")
        return std::make_unique<ServeSaturation>(opt);
    if (opt.workload == "mutate_failover")
        return std::make_unique<MutateFailover>(opt);
    return nullptr;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_rag", "serve_functional", "serve_saturation",
        "mutate_failover"};
    return names;
}

Report
runWorkload(const Options &opt)
{
    Report rep;
    std::unique_ptr<Workload> w = make(opt);
    if (!w) {
        rep.errors.push_back("unknown workload '" + opt.workload + "'");
        return rep;
    }

    if (!opt.trace) {
        // Timed run: two set-ups alone, then {set-up, session} until
        // --seconds of sessions; setup_s is the median of them all.
        // Host times are scaled to the reference host speed (see
        // hostSpeed() and ScaledClock).
        std::vector<double> setups, rates, raw_rates;
        double timed = 0;
        auto timedSetup = [&] {
            double speed = hostSpeed();
            Clock::time_point t = Clock::now();
            w->setup();
            setups.push_back(secondsSince(t) * speed);
        };
        for (int i = 0; i < 2; ++i)
            timedSetup();
        do {
            timedSetup();
            ScaledClock clock;
            g_session = &clock;
            clock.start();
            uint64_t n = w->session();
            clock.stop();
            g_session = nullptr;
            timed += clock.raw();
            raw_rates.push_back(static_cast<double>(n) / clock.raw());
            rates.push_back(static_cast<double>(n) / clock.scaled());
            if (rates.size() > 1 && !w->sameAsFirst())
                rep.errors.push_back(
                    "session " + std::to_string(rates.size()) +
                    " differs from session 1 on the simulated clock");
            // Stop at the session end nearest to --seconds.
        } while (timed + 0.5 * timed / rates.size() < opt.seconds);
        w->verify(rep);
        rep.add("host_qps", median(rates), "1/s", "host");
        rep.add("setup_s", median(setups), "s", "host");
        rep.add("peak_rss_mb", peakRssMb(), "MB", "host");
        std::string each;
        for (double r : raw_rates)
            each += " " + fmt("%.4g", r);
        rep.notes.push_back(
            std::to_string(rates.size()) + " session(s) in " +
            fmt("%.2f", timed) + " s host (unscaled q/s:" + each +
            "), " + std::to_string(setups.size()) + " set-ups");
        return rep;
    }

    // Traced run: an untraced reference session, then the same
    // session with spans, flight recorders and the metrics registry.
    w->setup();
    Clock::time_point t = Clock::now();
    w->session();
    double untraced = secondsSince(t);

    w->recordFlights();
    metrics::setEnabled(true);
    spans().enable();
    Clock::time_point t0 = Clock::now();
    w->setup();
    Layers l;
    l["host.rss_after_setup_mb"] = currentRssMb();
    t = Clock::now();
    w->session();
    double traced = secondsSince(t);
    if (!w->sameAsFirst())
        rep.errors.push_back("the traced session differs from the "
                             "untraced one on the simulated clock");
    t = Clock::now();
    {
        SpanLog::Scope s(spans(), "verify");
        w->verify(rep);
    }
    l["host.verify_s"] = secondsSince(t);
    w->layers(l, rep);
    double total = secondsSince(t0);
    l["host.untracked_frac"] = 1 - spans().topLevelTotal() / total;
    l["trace.overhead_frac"] = traced / untraced - 1;
    metrics::setEnabled(false);
    spans().disable();
    if (!opt.spanPath.empty() && !spans().write(opt.spanPath))
        rep.errors.push_back("cannot write spans to " + opt.spanPath);

    // The traced run reports the per-layer catalogue only.
    rep.metrics.clear();
    for (const LayerDef &d : layerCatalogue()) {
        auto it = l.find(d.name);
        rep.add(d.name, it == l.end() ? 0.0 : it->second, d.unit,
                d.clock);
    }
    return rep;
}

} // namespace repobench
