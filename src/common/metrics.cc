#include "common/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <type_traits>

#include "common/logging.hh"

namespace cisram::metrics {

namespace detail {

std::atomic<bool> g_enabled{false};

} // namespace detail

namespace {

/** Shard redirect installed by ShardScope; see Registry::get(). */
thread_local Registry *t_shard = nullptr;

/** Source of Registry::serial(); 0 is never handed out. */
std::atomic<uint64_t> g_nextSerial{1};

} // namespace

void
setEnabled(bool on)
{
    detail::g_enabled.store(on, std::memory_order_release);
}

void
initFromEnv()
{
    static std::once_flag once;
    std::call_once(once, [] {
        const char *env = std::getenv("CISRAM_METRICS");
        if (env && *env && *env != '0')
            setEnabled(true);
    });
}

void
Histogram::observe(double v)
{
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_)
        min_ = v;
    if (count_ == 1 || v > max_)
        max_ = v;
    int bucket = 0;
    if (v >= std::ldexp(1.0, minExp)) {
        bucket = std::ilogb(v) - minExp + 1;
        if (bucket >= numBuckets)
            bucket = numBuckets - 1;
    }
    ++buckets_[bucket];
}

double
Histogram::quantile(double q) const
{
    if (count_ == 0)
        return 0.0;
    if (q <= 0.0)
        return min_;
    if (q >= 1.0)
        return max_;
    double target = q * static_cast<double>(count_);
    double cum = 0.0;
    for (int i = 0; i < numBuckets; ++i) {
        if (buckets_[i] == 0)
            continue;
        double next = cum + static_cast<double>(buckets_[i]);
        if (target <= next) {
            double frac =
                (target - cum) / static_cast<double>(buckets_[i]);
            // Bucket bounds, tightened by the observed extrema (the
            // edge buckets are open-ended).
            double lo = i == 0 ? min_
                               : std::ldexp(1.0, minExp + i - 1);
            double hi = i == numBuckets - 1
                ? max_
                : std::ldexp(1.0, minExp + i);
            lo = std::max(lo, min_);
            hi = std::min(hi, max_);
            if (hi < lo)
                return lo;
            return lo + (hi - lo) * frac;
        }
        cum = next;
    }
    return max_;
}

void
Histogram::zero()
{
    count_ = 0;
    sum_ = min_ = max_ = 0.0;
    for (auto &b : buckets_)
        b = 0;
}

void
Histogram::mergeFrom(const Histogram &o)
{
    if (o.count_ == 0)
        return;
    if (count_ == 0 || o.min_ < min_)
        min_ = o.min_;
    if (count_ == 0 || o.max_ > max_)
        max_ = o.max_;
    count_ += o.count_;
    sum_ += o.sum_;
    for (int i = 0; i < numBuckets; ++i)
        buckets_[i] += o.buckets_[i];
}

Registry::Registry() : serial_(g_nextSerial.fetch_add(1)) {}

Registry &
Registry::global()
{
    // CISRAM_METRICS is read once, with the first use of the
    // registry, not on every get().
    static Registry instance = [] {
        initFromEnv();
        return Registry();
    }();
    return instance;
}

Registry &
Registry::get()
{
    if (t_shard)
        return *t_shard;
    return global();
}

std::unique_ptr<Registry>
Registry::makeShard()
{
    return std::unique_ptr<Registry>(new Registry());
}

ShardScope::ShardScope(Registry *shard) : prev_(t_shard)
{
    t_shard = shard;
}

ShardScope::~ShardScope()
{
    t_shard = prev_;
}

std::string
Registry::seriesKey(const std::string &name, const Labels &labels)
{
    if (labels.empty())
        return name;
    std::string key = name;
    key += '{';
    bool first = true;
    for (const auto &kv : labels) {
        if (!first)
            key += ',';
        first = false;
        key += kv.first;
        key += '=';
        key += kv.second;
    }
    key += '}';
    return key;
}

template <typename T>
T &
Registry::byKey(const std::string &key)
{
    std::map<std::string, std::unique_ptr<T>> *store;
    if constexpr (std::is_same_v<T, Counter>)
        store = &counters_;
    else if constexpr (std::is_same_v<T, Gauge>)
        store = &gauges_;
    else
        store = &histograms_;
    auto it = store->find(key);
    if (it == store->end())
        it = store->emplace(key, std::make_unique<T>()).first;
    return *it->second;
}

template Counter &Registry::byKey<Counter>(const std::string &);
template Gauge &Registry::byKey<Gauge>(const std::string &);
template Histogram &Registry::byKey<Histogram>(const std::string &);

Counter &
Registry::counter(const std::string &name, const Labels &labels)
{
    return byKey<Counter>(seriesKey(name, labels));
}

Gauge &
Registry::gauge(const std::string &name, const Labels &labels)
{
    return byKey<Gauge>(seriesKey(name, labels));
}

Histogram &
Registry::histogram(const std::string &name, const Labels &labels)
{
    return byKey<Histogram>(seriesKey(name, labels));
}

OpCounters &
Registry::opCounters(const char *op)
{
    auto it = opCache_.find(op);
    if (it != opCache_.end())
        return *it->second;
    Labels labels{{"op", op}};
    auto bundle = std::make_unique<OpCounters>(OpCounters{
        counter("sim.op.issues", labels),
        counter("sim.op.cycles", labels),
        counter("sim.op.bytes", labels)});
    auto *ptr = bundle.get();
    opCache_.emplace(op, std::move(bundle));
    return *ptr;
}

namespace {

template <typename T>
void
mergeStore(std::map<std::string, std::unique_ptr<T>> &into,
           const std::map<std::string, std::unique_ptr<T>> &from)
{
    for (const auto &kv : from) {
        auto it = into.find(kv.first);
        if (it == into.end())
            it = into.emplace(kv.first, std::make_unique<T>()).first;
        it->second->mergeFrom(*kv.second);
    }
}

} // namespace

void
Registry::mergeFrom(const Registry &other)
{
    mergeStore(counters_, other.counters_);
    mergeStore(gauges_, other.gauges_);
    mergeStore(histograms_, other.histograms_);
}

void
Registry::zeroAll()
{
    for (auto &kv : counters_)
        kv.second->zero();
    for (auto &kv : gauges_)
        kv.second->zero();
    for (auto &kv : histograms_)
        kv.second->zero();
}

json::Value
Registry::toJson() const
{
    json::Object root;
    json::Object counters;
    for (const auto &kv : counters_)
        counters[kv.first] = kv.second->value();
    root["counters"] = json::Value{std::move(counters)};

    json::Object gauges;
    for (const auto &kv : gauges_)
        gauges[kv.first] = kv.second->value();
    root["gauges"] = json::Value{std::move(gauges)};

    json::Object histograms;
    for (const auto &kv : histograms_) {
        const Histogram &h = *kv.second;
        json::Object summary;
        summary["count"] = static_cast<double>(h.count());
        summary["sum"] = h.sum();
        summary["min"] = h.min();
        summary["max"] = h.max();
        summary["mean"] = h.mean();
        summary["p50"] = h.quantile(0.50);
        summary["p95"] = h.quantile(0.95);
        summary["p99"] = h.quantile(0.99);
        histograms[kv.first] = json::Value{std::move(summary)};
    }
    root["histograms"] = json::Value{std::move(histograms)};
    return json::Value{std::move(root)};
}

} // namespace cisram::metrics
