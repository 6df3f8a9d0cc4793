#include "obs/flight.hh"

#include "common/logging.hh"
#include "common/trace.hh"

namespace cisram::obs {

namespace {

// Serving-layer timestamps are simulated seconds; trace ts fields on
// the "serving" process are simulated microseconds.
constexpr double kSecToUs = 1e6;

const char *
categoryCat(SpanCategory c)
{
    switch (c) {
    case SpanCategory::Wait:
        return "serving.wait";
    case SpanCategory::Host:
        return "serving.host";
    case SpanCategory::Retrieval:
        return "serving.retrieval";
    case SpanCategory::Detail:
        return "serving.detail";
    }
    return "serving";
}

} // namespace

const char *
stageName(Stage s)
{
    switch (s) {
    case Stage::QueueWait:
        return "queue_wait";
    case Stage::DeviceAttempt:
        return "device_attempt";
    case Stage::PcieStage:
        return "pcie_stage";
    case Stage::DeviceCompute:
        return "device_compute";
    case Stage::CpuFallback:
        return "cpu_fallback";
    case Stage::ComputeDetail:
        return "compute_detail";
    case Stage::ShardGather:
        return "shard_gather";
    case Stage::TopkMerge:
        return "topk_merge";
    case Stage::Failover:
        return "failover";
    case Stage::ShardPath:
        return "shard_path";
    }
    return "unknown";
}

SpanCategory
stageCategory(Stage s)
{
    switch (s) {
    case Stage::QueueWait:
        return SpanCategory::Wait;
    case Stage::DeviceAttempt:
    case Stage::PcieStage:
    case Stage::TopkMerge:
    case Stage::Failover:
        return SpanCategory::Host;
    case Stage::DeviceCompute:
    case Stage::CpuFallback:
    case Stage::ShardGather:
        return SpanCategory::Retrieval;
    case Stage::ComputeDetail:
    case Stage::ShardPath:
        return SpanCategory::Detail;
    }
    return SpanCategory::Detail;
}

const char *
flightStateName(FlightState s)
{
    switch (s) {
    case FlightState::Admitted:
        return "admitted";
    case FlightState::Shed:
        return "shed";
    case FlightState::Completed:
        return "completed";
    }
    return "unknown";
}

uint32_t
servingTracePid()
{
    static uint32_t pid = trace::Tracer::get().registerProcess(
        "serving (simulated us)");
    return pid;
}

double
QueryFlight::reconciledSeconds() const
{
    const Round *round = finalRound();
    if (!round)
        return 0.0;
    // Mirror the server's accumulation exactly: queueWaitSeconds and
    // retrievalSeconds are single assignments, hostSeconds is a
    // left-to-right += chain, and servedSeconds() evaluates
    // wait + retrieval + host left-to-right. Re-adding the recorded
    // doubles in the same order reproduces the same rounding.
    double wait = 0.0;
    double host = 0.0;
    double retrieval = 0.0;
    for (const Span &s : round->spans) {
        switch (stageCategory(s.stage)) {
        case SpanCategory::Wait:
            wait += s.durationSeconds;
            break;
        case SpanCategory::Host:
            host += s.durationSeconds;
            break;
        case SpanCategory::Retrieval:
            retrieval += s.durationSeconds;
            break;
        case SpanCategory::Detail:
            break;
        }
    }
    return wait + retrieval + host;
}

const QueryFlight::Round *
QueryFlight::finalRound() const
{
    if (rounds.empty())
        return nullptr;
    return &rounds.back();
}

FlightRecorder::FlightRecorder(unsigned core, FlightConfig cfg)
    : core_(core)
{
    switch (cfg.mode) {
    case FlightConfig::Mode::On:
        enabled_ = true;
        break;
    case FlightConfig::Mode::Off:
        enabled_ = false;
        break;
    case FlightConfig::Mode::Auto:
    default:
        enabled_ = trace::active();
        break;
    }
}

QueryFlight &
FlightRecorder::flightRef(uint64_t id)
{
    auto it = byId_.find(id);
    cisram_assert(it != byId_.end(),
                  "flight recorder: span for unadmitted query ", id,
                  " on core ", core_);
    return flights_[it->second];
}

void
FlightRecorder::recordAdmit(uint64_t id, double t)
{
    if (!enabled_)
        return;
    auto it = byId_.find(id);
    if (it != byId_.end()) {
        // A previously shed query retrying admission on the same
        // core: reopen the existing flight.
        QueryFlight &qf = flights_[it->second];
        cisram_assert(qf.state == FlightState::Shed,
                      "flight recorder: duplicate admission of "
                      "query ",
                      id, " on core ", core_);
        qf.state = FlightState::Admitted;
        qf.admitSeconds = t;
    } else {
        QueryFlight qf;
        qf.id = id;
        qf.core = core_;
        qf.admitSeconds = t;
        qf.state = FlightState::Admitted;
        byId_.emplace(id, flights_.size());
        flights_.push_back(std::move(qf));
    }
    if (trace::active())
        trace::Tracer::get().async('b', servingTracePid(), core_,
                                   "query", "serving.query",
                                   t * kSecToUs, id);
}

void
FlightRecorder::recordShed(uint64_t id, double t, const char *reason)
{
    if (!enabled_)
        return;
    auto it = byId_.find(id);
    if (it != byId_.end()) {
        QueryFlight &qf = flights_[it->second];
        qf.state = FlightState::Shed;
        qf.shedReason = reason;
        qf.sheds++;
    } else {
        QueryFlight qf;
        qf.id = id;
        qf.core = core_;
        qf.admitSeconds = t;
        qf.state = FlightState::Shed;
        qf.shedReason = reason;
        qf.sheds = 1;
        byId_.emplace(id, flights_.size());
        flights_.push_back(std::move(qf));
    }
    if (trace::active())
        trace::Tracer::get().instant(servingTracePid(), core_,
                                     "query.shed", t * kSecToUs);
}

void
FlightRecorder::beginRound(uint64_t id, double start)
{
    if (!enabled_)
        return;
    QueryFlight &qf = flightRef(id);
    cisram_assert(qf.state == FlightState::Admitted,
                  "flight recorder: round for query ", id,
                  " in state ", flightStateName(qf.state));
    qf.rounds.push_back({});
    auto flow = pendingFlow_.find(id);
    if (flow != pendingFlow_.end()) {
        qf.replays++;
        if (trace::active())
            trace::Tracer::get().async(
                'f', servingTracePid(), core_, "reset.replay",
                "serving.flow", start * kSecToUs, flow->second);
        pendingFlow_.erase(flow);
    }
}

void
FlightRecorder::span(uint64_t id, Stage stage, unsigned attempt,
                     double start, double duration,
                     std::string detail)
{
    if (!enabled_)
        return;
    QueryFlight &qf = flightRef(id);
    cisram_assert(!qf.rounds.empty(),
                  "flight recorder: span before beginRound for "
                  "query ",
                  id);
    if (trace::active())
        trace::Tracer::get().complete(
            servingTracePid(), core_,
            detail.empty() ? stageName(stage) : detail.c_str(),
            categoryCat(stageCategory(stage)), start * kSecToUs,
            duration * kSecToUs);
    qf.rounds.back().spans.push_back({stage, attempt, start,
                                      duration, std::move(detail)});
}

void
FlightRecorder::park(uint64_t id, double t)
{
    if (!enabled_)
        return;
    QueryFlight &qf = flightRef(id);
    cisram_assert(!qf.rounds.empty(),
                  "flight recorder: park before beginRound for "
                  "query ",
                  id);
    qf.rounds.back().abandoned = true;
    if (trace::active())
        trace::Tracer::get().instant(servingTracePid(), core_,
                                     "query.parked", t * kSecToUs);
}

void
FlightRecorder::complete(uint64_t id, const FlightCompletion &done)
{
    if (!enabled_)
        return;
    QueryFlight &qf = flightRef(id);
    cisram_assert(qf.state == FlightState::Admitted,
                  "flight recorder: completion of query ", id,
                  " in state ", flightStateName(qf.state));
    cisram_assert(!qf.rounds.empty() && !qf.rounds.back().abandoned,
                  "flight recorder: completion of query ", id,
                  " without a live round");
    qf.state = FlightState::Completed;
    qf.delivered = true;
    qf.ok = done.ok;
    qf.fromDevice = done.fromDevice;
    qf.attempts = done.attempts;
    qf.batchSize = done.batchSize;
    qf.servedSeconds = done.servedSeconds;
    qf.endSeconds = done.endSeconds;
    if (trace::active())
        trace::Tracer::get().async('e', servingTracePid(), core_,
                                   "query", "serving.query",
                                   done.endSeconds * kSecToUs, id);
}

void
FlightRecorder::recordReset(unsigned reset_index, double start,
                            double duration,
                            const std::vector<uint64_t> &replayedIds)
{
    if (!enabled_)
        return;
    // Any live round of a replayed query is now abandoned: the
    // journal replay re-serves it from a fresh outcome.
    for (uint64_t id : replayedIds) {
        auto it = byId_.find(id);
        if (it == byId_.end())
            continue;
        QueryFlight &qf = flights_[it->second];
        if (!qf.rounds.empty())
            qf.rounds.back().abandoned = true;
        // Flow arrow id: unique per (reset, query) pair.
        uint64_t flowId =
            (static_cast<uint64_t>(reset_index + 1) << 48) ^ id;
        pendingFlow_[id] = flowId;
        if (trace::active())
            trace::Tracer::get().async(
                's', servingTracePid(), core_, "reset.replay",
                "serving.flow", (start + duration) * kSecToUs,
                flowId);
    }
    if (trace::active())
        trace::Tracer::get().complete(
            servingTracePid(), core_, "core.reset", "serving.reset",
            start * kSecToUs, duration * kSecToUs);
}

const QueryFlight *
FlightRecorder::flight(uint64_t id) const
{
    auto it = byId_.find(id);
    if (it == byId_.end())
        return nullptr;
    return &flights_[it->second];
}

size_t
FlightRecorder::completedCount() const
{
    size_t n = 0;
    for (const auto &qf : flights_)
        if (qf.state == FlightState::Completed)
            ++n;
    return n;
}

size_t
FlightRecorder::reconciledCount() const
{
    size_t n = 0;
    for (const auto &qf : flights_)
        if (qf.state == FlightState::Completed &&
            qf.reconciledSeconds() == qf.servedSeconds)
            ++n;
    return n;
}

std::map<std::string, double>
FlightRecorder::attribution() const
{
    std::map<std::string, double> out;
    for (const auto &qf : flights_) {
        if (qf.state != FlightState::Completed)
            continue;
        const QueryFlight::Round *round = qf.finalRound();
        if (!round)
            continue;
        for (const Span &s : round->spans) {
            std::string key = stageName(s.stage);
            if (s.stage == Stage::ComputeDetail)
                key = std::string("device_compute.") + s.detail;
            out[key] += s.durationSeconds;
        }
    }
    return out;
}

json::Value
FlightRecorder::ledgerJson() const
{
    json::Value root;
    root["core"] = core_;
    root["completed"] = static_cast<uint64_t>(completedCount());
    root["reconciled"] = static_cast<uint64_t>(reconciledCount());
    json::Array queries;
    for (const auto &qf : flights_) {
        json::Value q;
        q["id"] = qf.id;
        q["state"] = flightStateName(qf.state);
        q["admit_seconds"] = qf.admitSeconds;
        if (qf.sheds > 0) {
            q["sheds"] = qf.sheds;
            q["shed_reason"] = qf.shedReason;
        }
        if (qf.replays > 0)
            q["replays"] = qf.replays;
        if (qf.state == FlightState::Completed) {
            q["end_seconds"] = qf.endSeconds;
            q["served_seconds"] = qf.servedSeconds;
            q["reconciled_seconds"] = qf.reconciledSeconds();
            q["exact"] = qf.reconciledSeconds() == qf.servedSeconds;
            if (!qf.ok)
                q["ok"] = false;
            q["from_device"] = qf.fromDevice;
            q["attempts"] = qf.attempts;
            q["batch"] = static_cast<uint64_t>(qf.batchSize);
        }
        json::Array rounds;
        for (const auto &round : qf.rounds) {
            json::Value r;
            r["abandoned"] = round.abandoned;
            json::Array spans;
            for (const Span &s : round.spans) {
                json::Value sp;
                sp["stage"] = stageName(s.stage);
                if (s.attempt > 0)
                    sp["attempt"] = s.attempt;
                sp["start_seconds"] = s.startSeconds;
                sp["duration_seconds"] = s.durationSeconds;
                if (!s.detail.empty())
                    sp["detail"] = s.detail;
                spans.push_back(std::move(sp));
            }
            r["spans"] = json::Value(std::move(spans));
            rounds.push_back(std::move(r));
        }
        q["rounds"] = json::Value(std::move(rounds));
        queries.push_back(std::move(q));
    }
    root["queries"] = json::Value(std::move(queries));
    return root;
}

} // namespace cisram::obs
