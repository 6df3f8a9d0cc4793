#include <sys/resource.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "bench.hh"
#include "common/json.hh"

namespace repobench {

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
currentRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmRSS:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // KiB
    return 0;
}

SpanLog::Scope::Scope(SpanLog &log, const char *name, uint64_t query)
{
    if (!log.enabled_)
        return;
    log_ = &log;
    index_ = log.spans_.size();
    Span s;
    s.name = name;
    s.query = query;
    s.parent = log.open_.empty()
        ? -1
        : static_cast<int64_t>(log.open_.back());
    s.start = log.now();
    log.spans_.push_back(std::move(s));
    log.open_.push_back(index_);
}

SpanLog::Scope::~Scope()
{
    if (!log_)
        return;
    log_->spans_[index_].end = log_->now();
    log_->open_.pop_back();
}

void
SpanLog::enable()
{
    enabled_ = true;
    origin_ = Clock::now();
    spans_.clear();
    open_.clear();
}

double
SpanLog::now() const
{
    return std::chrono::duration<double>(Clock::now() - origin_)
        .count();
}

double
SpanLog::total(const std::string &name) const
{
    double t = 0;
    for (const Span &s : spans_)
        if (s.name == name)
            t += s.end - s.start;
    return t;
}

size_t
SpanLog::count(const std::string &name) const
{
    size_t n = 0;
    for (const Span &s : spans_)
        n += s.name == name;
    return n;
}

double
SpanLog::topLevelTotal() const
{
    double t = 0;
    for (const Span &s : spans_)
        if (s.parent < 0)
            t += s.end - s.start;
    return t;
}

bool
SpanLog::write(const std::string &path) const
{
    using cisram::json::Value;
    Value doc;
    Value &events = doc["traceEvents"];
    events.makeArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        Value ev;
        ev["name"] = s.name;
        ev["ph"] = "X";
        ev["pid"] = 1;
        ev["tid"] = 1;
        ev["ts"] = s.start * 1e6;
        ev["dur"] = (s.end - s.start) * 1e6;
        ev["args"]["index"] = static_cast<uint64_t>(i);
        ev["args"]["parent"] = static_cast<int64_t>(s.parent);
        ev["args"]["query"] = s.query;
        events.makeArray().push_back(std::move(ev));
    }
    std::ofstream out(path);
    out << doc.dump() << "\n";
    return static_cast<bool>(out);
}

SpanLog &
spans()
{
    static SpanLog log;
    return log;
}

} // namespace repobench
