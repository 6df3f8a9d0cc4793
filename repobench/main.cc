/**
 * @file
 * Repository benchmark entry point.
 *
 *   repobench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
 *             [--spans <path>]
 *
 * Prints the environment, one line per metric (name, value, unit,
 * clock), and as the last line one JSON object with the keys
 * correct, attempted, failed and metrics. --trace 0 reports the
 * end-to-end metrics of a timed run; --trace 1 the per-layer metrics
 * of a separate traced run. Any wrong answer, exactly-once violation
 * or ledger reconciliation miss exits 1 without a result line.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hh"
#include "common/json.hh"
#include "common/threadpool.hh"

extern char **environ;

namespace {

#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kTimingBuild = false;
#else
constexpr bool kTimingBuild = true;
#endif

#ifndef REPOBENCH_BUILD_TYPE
#define REPOBENCH_BUILD_TYPE "unknown"
#endif

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "repobench: %s\nusage: repobench --workload <name> "
                 "[--seed N] [--seconds S] [--trace 0|1] "
                 "[--spans <path>]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    repobench::Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--trace") {
            if (v != "0" && v != "1")
                return usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (a == "--spans") {
            opt.spanPath = v;
        } else {
            return usage(("unknown argument " + a).c_str());
        }
        if (end && *end)
            return usage(("malformed value for " + a).c_str());
    }
    bool known = false;
    for (const std::string &n : repobench::workloadNames())
        known = known || n == opt.workload;
    if (!known)
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!(opt.seconds > 0 && opt.seconds <= 600))
        return usage("--seconds must be in (0, 600]");

    // The environment, recorded with every result.
    std::printf("build: %s, compiler %s, nproc %u\n",
                REPOBENCH_BUILD_TYPE, __VERSION__,
                std::thread::hardware_concurrency());
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "CISRAM_", 7) == 0)
            std::printf("env: %s\n", *e);

    const char *refuse = nullptr;
    if (!kTimingBuild)
        refuse = "this is an unoptimized or sanitizer build";
    else if (std::getenv("CISRAM_TRACE"))
        refuse = "CISRAM_TRACE is set";
    else if (std::getenv("CISRAM_FAULT_SPEC"))
        refuse = "CISRAM_FAULT_SPEC is set";
    else if (std::getenv("CISRAM_METRICS"))
        refuse = "CISRAM_METRICS is set";
    else if (cisram::simThreads() != 1)
        refuse = "CISRAM_SIM_THREADS is not 1";
    if (refuse) {
        std::fprintf(stderr, "repobench: refusing to time: %s\n",
                     refuse);
        return 3;
    }

    std::printf("workload %s, seed %llu (default %llu, held out %llu), "
                "%s run\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(repobench::kDefaultSeed),
                static_cast<unsigned long long>(repobench::kHeldOutSeed),
                opt.trace ? "traced" : "timed");
    repobench::Report rep = repobench::runWorkload(opt);
    for (const std::string &n : rep.notes)
        std::printf("%s\n", n.c_str());
    for (const repobench::Metric &m : rep.metrics)
        std::printf("%-32s %.10g %s%s%s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.clock.empty() ? "" : " · ",
                    m.clock.c_str());
    if (!rep.errors.empty()) {
        for (const std::string &e : rep.errors)
            std::fprintf(stderr, "repobench: FAIL: %s\n", e.c_str());
        return 1;
    }

    cisram::json::Value out;
    out["correct"] = true;
    out["attempted"] = rep.attempted;
    out["failed"] = rep.failed;
    cisram::json::Value &metrics = out["metrics"];
    metrics.makeObject();
    for (const repobench::Metric &m : rep.metrics) {
        metrics[m.name]["value"] = m.value;
        metrics[m.name]["unit"] = m.unit;
    }
    std::printf("%s\n", out.dump().c_str());
    return 0;
}
