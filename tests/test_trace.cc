/**
 * @file
 * Observability layer tests: event tracer (span recording, nesting,
 * disabled no-op, Chrome-trace JSON round-trip), metrics registry
 * (label aggregation, zeroing, JSON snapshot), the JSON
 * reader/writer itself, log-level filtering, and the CycleStats
 * scope-hardening asserts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include <unistd.h>

#include "apusim/apu.hh"
#include "apusim/cycle_stats.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/trace.hh"

using namespace cisram;

namespace {

/** Arm the tracer with a throwaway path and a clean buffer. */
void
armTracer()
{
    trace::Tracer::get().enable("/tmp/cisram_test_trace.json");
}

void
disarmTracer()
{
    trace::Tracer::get().disable();
}

} // namespace

// --------------------------------------------------------------------
// JSON reader/writer
// --------------------------------------------------------------------

TEST(Json, ParseScalars)
{
    EXPECT_TRUE(json::parseOrDie("null").isNull());
    EXPECT_EQ(json::parseOrDie("true").asBool(), true);
    EXPECT_EQ(json::parseOrDie("false").asBool(), false);
    EXPECT_DOUBLE_EQ(json::parseOrDie("42").asNumber(), 42.0);
    EXPECT_DOUBLE_EQ(json::parseOrDie("-2.5e3").asNumber(), -2500.0);
    EXPECT_EQ(json::parseOrDie("\"hi\\nthere\"").asString(),
              "hi\nthere");
}

TEST(Json, ParseNested)
{
    auto v = json::parseOrDie(
        "{\"a\": [1, 2, {\"b\": \"x\"}], \"c\": {} }");
    ASSERT_TRUE(v.isObject());
    const auto &a = v.asObject().find("a")->asArray();
    ASSERT_EQ(a.size(), 3u);
    EXPECT_DOUBLE_EQ(a[1].asNumber(), 2.0);
    EXPECT_EQ(a[2].asObject().find("b")->asString(), "x");
    EXPECT_TRUE(v.asObject().find("c")->asObject().empty());
}

TEST(Json, ParseErrors)
{
    json::Value out;
    std::string err;
    EXPECT_FALSE(json::parse("{\"a\": }", out, &err));
    EXPECT_FALSE(err.empty());
    EXPECT_FALSE(json::parse("[1, 2", out, &err));
    EXPECT_FALSE(json::parse("", out, &err));
    EXPECT_FALSE(json::parse("{} trailing", out, &err));
}

TEST(Json, RoundTrip)
{
    json::Value doc;
    doc["name"] = "bench";
    doc["pi"] = 3.25;
    doc["n"] = 123456789;
    doc["esc"] = "a\"b\\c\t\x01";
    doc["flag"] = true;
    auto &arr = doc["list"].makeArray();
    arr.emplace_back(1);
    arr.emplace_back("two");
    arr.emplace_back(nullptr);

    for (int indent : {-1, 2}) {
        auto back = json::parseOrDie(doc.dump(indent));
        EXPECT_EQ(back.asObject().find("name")->asString(), "bench");
        EXPECT_DOUBLE_EQ(back.asObject().find("pi")->asNumber(),
                         3.25);
        EXPECT_DOUBLE_EQ(back.asObject().find("n")->asNumber(),
                         123456789.0);
        EXPECT_EQ(back.asObject().find("esc")->asString(),
                  "a\"b\\c\t\x01");
        EXPECT_EQ(back.asObject().find("list")->asArray().size(),
                  3u);
        EXPECT_TRUE(
            back.asObject().find("list")->asArray()[2].isNull());
    }
}

TEST(Json, NonFiniteNumbersSerializeAsNull)
{
    // A raw "inf"/"nan" token would corrupt the whole document for
    // any standards-conforming reader (BENCH_*.json consumers,
    // chrome://tracing), so the writer must degrade non-finite
    // numbers to null — and the written document must parse back.
    json::Value doc;
    doc["ok"] = 2.5;
    doc["pos_overflow"] = std::numeric_limits<double>::infinity();
    doc["neg_overflow"] = -std::numeric_limits<double>::infinity();
    doc["undefined"] = std::numeric_limits<double>::quiet_NaN();

    for (int indent : {-1, 2}) {
        std::string text = doc.dump(indent);
        EXPECT_EQ(text.find("inf"), std::string::npos);
        EXPECT_EQ(text.find("nan"), std::string::npos);

        auto back = json::parseOrDie(text);
        EXPECT_DOUBLE_EQ(back.asObject().find("ok")->asNumber(),
                         2.5);
        EXPECT_TRUE(back.asObject().find("pos_overflow")->isNull());
        EXPECT_TRUE(back.asObject().find("neg_overflow")->isNull());
        EXPECT_TRUE(back.asObject().find("undefined")->isNull());
    }
}

TEST(Json, ObjectPreservesInsertionOrder)
{
    json::Value doc;
    doc["z"] = 1;
    doc["a"] = 2;
    doc["m"] = 3;
    std::string s = doc.dump();
    EXPECT_LT(s.find("\"z\""), s.find("\"a\""));
    EXPECT_LT(s.find("\"a\""), s.find("\"m\""));
}

// --------------------------------------------------------------------
// Metrics registry
// --------------------------------------------------------------------

TEST(Metrics, SeriesKeyAndLabelAggregation)
{
    EXPECT_EQ(metrics::Registry::seriesKey("x", {}), "x");
    EXPECT_EQ(metrics::Registry::seriesKey(
                  "x", {{"op", "add"}, {"core", "0"}}),
              "x{op=add,core=0}");

    auto &reg = metrics::Registry::get();
    auto &a = reg.counter("test.hits", {{"op", "add"}});
    auto &b = reg.counter("test.hits", {{"op", "mul"}});
    auto &a2 = reg.counter("test.hits", {{"op", "add"}});
    EXPECT_EQ(&a, &a2); // same labels -> same series
    EXPECT_NE(&a, &b);  // different labels -> distinct series

    a.zero();
    b.zero();
    a.inc(3);
    a2.inc(2);
    b.inc(7);
    EXPECT_DOUBLE_EQ(a.value(), 5.0);
    EXPECT_DOUBLE_EQ(b.value(), 7.0);
}

TEST(Metrics, HistogramSummary)
{
    auto &h = metrics::Registry::get().histogram("test.hist");
    h.zero();
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    for (double v : {1.0, 3.0, 8.0})
        h.observe(v);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 12.0);
    EXPECT_DOUBLE_EQ(h.min(), 1.0);
    EXPECT_DOUBLE_EQ(h.max(), 8.0);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Metrics, HistogramQuantiles)
{
    metrics::Histogram h;
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0); // empty

    // Quantiles are exact at the extremes and bucket-accurate in
    // between; the serving pipeline's latencies (milliseconds) must
    // land in resolved buckets, not a catch-all underflow bucket.
    for (int i = 1; i <= 100; ++i)
        h.observe(i * 1e-3); // 1..100 ms
    EXPECT_DOUBLE_EQ(h.quantile(0.0), 1e-3);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 0.1);

    double p50 = h.quantile(0.50);
    double p95 = h.quantile(0.95);
    double p99 = h.quantile(0.99);
    // Monotone and within the observed range.
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, p99);
    EXPECT_GE(p50, 1e-3);
    EXPECT_LE(p99, 0.1);
    // Factor-of-two bucket accuracy around the true values.
    EXPECT_NEAR(p50, 0.050, 0.032);
    EXPECT_NEAR(p95, 0.095, 0.035);

    // A single observation pins every quantile.
    metrics::Histogram one;
    one.observe(0.007);
    EXPECT_DOUBLE_EQ(one.quantile(0.5), 0.007);
    EXPECT_DOUBLE_EQ(one.quantile(0.99), 0.007);

    // Sub-resolution values (below 2^minExp) fall into bucket 0 and
    // still produce clamped, finite quantiles.
    metrics::Histogram tiny;
    tiny.observe(0.0);
    tiny.observe(1e-12);
    EXPECT_GE(tiny.quantile(0.5), 0.0);
    EXPECT_LE(tiny.quantile(0.5), 1e-12);
}

TEST(Metrics, JsonSnapshot)
{
    auto &reg = metrics::Registry::get();
    reg.counter("test.snap", {{"k", "v"}}).zero();
    reg.counter("test.snap", {{"k", "v"}}).inc(9);
    reg.gauge("test.level").set(0.5);

    auto doc = json::parseOrDie(reg.toJson().dump());
    const auto &counters =
        doc.asObject().find("counters")->asObject();
    ASSERT_NE(counters.find("test.snap{k=v}"), nullptr);
    EXPECT_DOUBLE_EQ(counters.find("test.snap{k=v}")->asNumber(),
                     9.0);
    const auto &gauges = doc.asObject().find("gauges")->asObject();
    EXPECT_DOUBLE_EQ(gauges.find("test.level")->asNumber(), 0.5);
}

TEST(Metrics, SeriesHandleFollowsTheCallersRegistry)
{
    const metrics::Labels labels{{"k", "handle"}};
    metrics::Series<metrics::Counter> c("test.handle", labels);
    metrics::Series<metrics::Histogram> h("test.handle_hist");
    auto &global = metrics::Registry::global();
    auto listed = [](const metrics::Registry &reg,
                     const std::string &key) {
        auto doc = json::parseOrDie(reg.toJson().dump());
        const auto &root = doc.asObject();
        return root.find("counters")->asObject().find(key) !=
            nullptr ||
            root.find("histograms")->asObject().find(key) != nullptr;
    };

    // A handle creates no series before its first bump.
    EXPECT_FALSE(listed(global, "test.handle{k=handle}"));
    EXPECT_FALSE(listed(global, "test.handle_hist"));

    // Global, then a shard while its scope is installed, then global
    // again: each bump lands in the caller's registry.
    c.get().inc(1);
    h.get().observe(2.0);
    EXPECT_EQ(&c.get(), &global.counter("test.handle", labels));
    {
        auto shard = metrics::Registry::makeShard();
        metrics::ShardScope scope(shard.get());
        c.get().inc(10);
        h.get().observe(4.0);
        EXPECT_DOUBLE_EQ(shard->counter("test.handle", labels).value(),
                         10.0);
        EXPECT_EQ(shard->histogram("test.handle_hist").count(), 1u);
    }
    c.get().inc(100);
    EXPECT_DOUBLE_EQ(global.counter("test.handle", labels).value(),
                     101.0);
    EXPECT_EQ(global.histogram("test.handle_hist").count(), 1u);

    // A shard made after another is destroyed may take its address
    // (the allocator decides); it still gets its own series, never
    // the freed shard's.
    uint64_t first_serial = 0;
    {
        auto first = metrics::Registry::makeShard();
        first_serial = first->serial();
        metrics::ShardScope scope(first.get());
        c.get().inc(1000);
    }
    {
        auto second = metrics::Registry::makeShard();
        EXPECT_NE(second->serial(), first_serial);
        metrics::ShardScope scope(second.get());
        c.get().inc(7);
        EXPECT_DOUBLE_EQ(
            second->counter("test.handle", labels).value(), 7.0);
    }

    // zeroAll() keeps every series, so the cached one stays valid.
    global.zeroAll();
    EXPECT_DOUBLE_EQ(c.get().value(), 0.0);
    c.get().inc(3);
    EXPECT_DOUBLE_EQ(global.counter("test.handle", labels).value(),
                     3.0);
    EXPECT_TRUE(listed(global, "test.handle{k=handle}"));
    EXPECT_TRUE(listed(global, "test.handle_hist"));
}

TEST(Metrics, PerOpCountersViaCharge)
{
    metrics::setEnabled(true);
    auto &oc = metrics::Registry::get().opCounters("test.charge.op");
    oc.issues.zero();
    oc.cycles.zero();
    oc.bytes.zero();

    apu::CycleStats stats;
    {
        trace::OpScope op("test.charge.op", 128.0);
        stats.pushRepeat(4.0);
        stats.charge(10);
        stats.popRepeat();
    }
    metrics::setEnabled(false);

    EXPECT_DOUBLE_EQ(oc.issues.value(), 4.0); // repeat-scaled
    EXPECT_DOUBLE_EQ(oc.cycles.value(), 40.0); // repeat-scaled
    EXPECT_DOUBLE_EQ(oc.bytes.value(), 128.0 * 4.0);
}

// --------------------------------------------------------------------
// Tracer
// --------------------------------------------------------------------

TEST(Trace, DisabledModeIsNoOp)
{
    disarmTracer();
    EXPECT_FALSE(trace::active());

    apu::CycleStats stats;
    stats.pushTag("ld_lhs");
    stats.charge(100);
    stats.popTag();
    EXPECT_DOUBLE_EQ(stats.cycles(), 100.0);
    EXPECT_EQ(trace::Tracer::get().eventCount(), 0u);
}

TEST(Trace, ChargesEmitCompleteSpans)
{
    armTracer();
    apu::CycleStats stats;
    stats.setTraceIds(7, 2);

    stats.pushTag("ld_lhs");
    stats.charge(50);
    stats.popTag();
    stats.charge(25); // untagged

    const auto &evs = trace::Tracer::get().events();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].phase, 'X');
    EXPECT_EQ(evs[0].pid, 7u);
    EXPECT_EQ(evs[0].tid, 2u);
    EXPECT_EQ(evs[0].cat, "ld_lhs");
    EXPECT_DOUBLE_EQ(evs[0].ts, 0.0);
    EXPECT_DOUBLE_EQ(evs[0].dur, 50.0);
    EXPECT_EQ(evs[1].cat, "untagged");
    EXPECT_DOUBLE_EQ(evs[1].ts, 50.0); // starts where span 0 ended
    EXPECT_DOUBLE_EQ(evs[1].dur, 25.0);
    disarmTracer();
}

TEST(Trace, OpScopeNestingRestores)
{
    armTracer();
    apu::CycleStats stats;

    EXPECT_EQ(trace::currentOp(), nullptr);
    {
        trace::OpScope outer("outer.op", 64.0, 1);
        EXPECT_STREQ(trace::currentOp(), "outer.op");
        stats.charge(10);
        {
            trace::OpScope inner("inner.op", 32.0, 2);
            EXPECT_STREQ(trace::currentOp(), "inner.op");
            EXPECT_DOUBLE_EQ(trace::currentBytes(), 32.0);
            EXPECT_EQ(trace::currentEngines(), 2);
            stats.charge(20);
        }
        EXPECT_STREQ(trace::currentOp(), "outer.op");
        EXPECT_DOUBLE_EQ(trace::currentBytes(), 64.0);
        stats.charge(30);
    }
    EXPECT_EQ(trace::currentOp(), nullptr);

    const auto &evs = trace::Tracer::get().events();
    ASSERT_EQ(evs.size(), 3u);
    EXPECT_EQ(evs[0].name, "outer.op");
    EXPECT_EQ(evs[1].name, "inner.op");
    EXPECT_DOUBLE_EQ(evs[1].bytes, 32.0);
    EXPECT_EQ(evs[1].engines, 2);
    EXPECT_EQ(evs[2].name, "outer.op");
    disarmTracer();
}

TEST(Trace, SpanTotalsMatchCycleStatsBreakdown)
{
    armTracer();
    apu::ApuDevice dev;
    auto &core = dev.core(0);
    core.setMode(apu::ExecMode::TimingOnly);

    core.stats().pushTag("ld_lhs");
    core.dmaL4ToL2(0, 0, 4096);
    core.stats().popTag();
    core.stats().pushTag("vr_ops");
    core.loadVr(0, 0);
    core.chargeRaw(100);
    core.stats().popTag();

    std::map<std::string, double> spanTotals;
    for (const auto &e : trace::Tracer::get().events())
        if (e.phase == 'X')
            spanTotals[e.cat] += e.dur;

    for (const auto &[tag, cycles] : core.stats().breakdown()) {
        ASSERT_NE(spanTotals.find(tag), spanTotals.end()) << tag;
        EXPECT_DOUBLE_EQ(spanTotals[tag], cycles) << tag;
    }
    disarmTracer();
}

TEST(Trace, RenderedJsonIsValidChromeTrace)
{
    armTracer();
    auto &tracer = trace::Tracer::get();
    uint32_t pid = tracer.registerProcess("apu");

    apu::CycleStats stats;
    stats.setTraceIds(pid, 1);
    {
        trace::OpScope op("apu.dmaL4ToL2", 2048.0, 1);
        stats.pushTag("ld_rhs");
        stats.charge(123);
        stats.popTag();
    }

    auto doc = json::parseOrDie(tracer.renderJson());
    const auto &root = doc.asObject();
    ASSERT_NE(root.find("traceEvents"), nullptr);
    const auto &evs = root.find("traceEvents")->asArray();

    bool sawMeta = false, sawSpan = false;
    for (const auto &ev : evs) {
        const auto &o = ev.asObject();
        const std::string &ph = o.find("ph")->asString();
        if (ph == "M")
            sawMeta = true;
        if (ph == "X" &&
            o.find("name")->asString() == "apu.dmaL4ToL2") {
            sawSpan = true;
            EXPECT_EQ(o.find("cat")->asString(), "ld_rhs");
            EXPECT_DOUBLE_EQ(o.find("dur")->asNumber(), 123.0);
            EXPECT_DOUBLE_EQ(o.find("pid")->asNumber(),
                             static_cast<double>(pid));
            const auto &args = o.find("args")->asObject();
            EXPECT_DOUBLE_EQ(args.find("bytes")->asNumber(), 2048.0);
        }
    }
    EXPECT_TRUE(sawMeta);
    EXPECT_TRUE(sawSpan);
    disarmTracer();
}

TEST(Trace, WriteProducesParsableFile)
{
    // Per-process path: the plain and TSan copies of this suite run
    // concurrently under ctest -j.
    std::string file = "/tmp/cisram_test_trace_write." +
        std::to_string(getpid()) + ".json";
    const char *path = file.c_str();
    auto &tracer = trace::Tracer::get();
    tracer.enable(path);
    apu::CycleStats stats;
    stats.charge(11);
    tracer.write();
    trace::Tracer::get().disable();

    FILE *f = std::fopen(path, "rb");
    ASSERT_NE(f, nullptr);
    std::string text;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        text.append(buf, n);
    std::fclose(f);
    std::remove(path);

    auto doc = json::parseOrDie(text);
    EXPECT_TRUE(doc.asObject().contains("traceEvents"));
}

// --------------------------------------------------------------------
// CycleStats scope hardening
// --------------------------------------------------------------------

TEST(CycleStatsHardening, PopWithoutPushPanics)
{
    apu::CycleStats stats;
    EXPECT_DEATH(stats.popTag(), "popTag without");
    EXPECT_DEATH(stats.popRepeat(), "popRepeat without");
}

TEST(CycleStatsHardening, ResetWithOpenScopesPanics)
{
    apu::CycleStats stats;
    stats.pushTag("ld_lhs");
    EXPECT_DEATH(stats.reset(), "open tag scope");
    stats.popTag();

    stats.pushRepeat(2.0);
    EXPECT_DEATH(stats.reset(), "open repeat scope");
    stats.popRepeat();
    stats.reset(); // balanced scopes: fine
}

// --------------------------------------------------------------------
// Log levels
// --------------------------------------------------------------------

TEST(LogLevels, FilteringFollowsLevel)
{
    LogLevel saved = logLevel();

    setLogLevel(LogLevel::Quiet);
    EXPECT_FALSE(logEnabled(LogLevel::Warn));
    EXPECT_FALSE(logEnabled(LogLevel::Info));
    EXPECT_FALSE(logEnabled(LogLevel::Debug));

    setLogLevel(LogLevel::Warn);
    EXPECT_TRUE(logEnabled(LogLevel::Warn));
    EXPECT_FALSE(logEnabled(LogLevel::Info));

    setLogLevel(LogLevel::Debug);
    EXPECT_TRUE(logEnabled(LogLevel::Info));
    EXPECT_TRUE(logEnabled(LogLevel::Debug));

    setLogLevel(saved);
}
