/**
 * @file
 * Pins the fault subsystem's zero-cost contract (DESIGN.md "Fault
 * model"): with no plan armed, every injection hook in the stack is
 * one relaxed atomic load, the simulated timing is bit-identical to
 * an armed plan whose probabilities are all zero, and the wall-clock
 * overhead of the hooks on a representative host workload is under
 * 1%.
 *
 * Three measurements:
 *
 *  1. The raw gate: wall time of fault::plan() in a tight loop,
 *     reported in ns/call.
 *  2. Simulated-timing identity: a host workload (PCIe round trips,
 *     task launches, DRAM streams) produces bit-identical
 *     pcieSeconds / invokeSeconds / DRAM seconds unarmed vs armed
 *     with p=0 clauses (the checked code paths run, nothing fires).
 *  3. Unarmed wall-clock overhead: an unarmed run pays exactly one
 *     gate load per hook site reached, so its overhead over a build
 *     without the subsystem is (hook sites reached x gate cost) /
 *     runtime — computed from the measured gate cost and a count of
 *     the hook sites the workload crosses, and required to be under
 *     1% (it lands orders of magnitude under). The armed-p0 wall
 *     time is also reported: that is the price of *turning on*
 *     checked transfers (CRC + staging) and per-burst ECC draws,
 *     which only an armed run pays.
 *
 *  4. The flight recorder's disabled guard (obs/flight.hh): every
 *     recorder entry point bails on one inline bool, and the serving
 *     hot path crosses about three of them per query. Measured the
 *     same way as the fault gate — guard cost x sites / a real
 *     serving pass's wall time — and held to the recorder's own
 *     budget of <= 1e-3 %.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "apusim/apu.hh"
#include "baseline/workloads.hh"
#include "bench_report.hh"
#include "common/table.hh"
#include "dramsim/dram_sim.hh"
#include "fault/fault.hh"
#include "gdl/gdl.hh"
#include "kernels/serving.hh"
#include "obs/flight.hh"

using namespace cisram;
using Clock = std::chrono::steady_clock;

namespace {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Simulated-timing fingerprint of one workload pass. */
struct SimTiming
{
    double pcieSeconds = 0;
    double invokeSeconds = 0;
    double dramSeconds = 0;

    bool
    operator==(const SimTiming &o) const
    {
        return pcieSeconds == o.pcieSeconds &&
            invokeSeconds == o.invokeSeconds &&
            dramSeconds == o.dramSeconds;
    }
};

/**
 * A representative host loop: allocate, copy in, launch, copy out,
 * free, plus a DRAM stream — every operation the fault subsystem
 * hooks.
 */
SimTiming
workload(unsigned reps)
{
    apu::ApuDevice dev;
    gdl::GdlContext ctx(dev);
    dram::DramSystem dram(dram::hbm2eConfig());
    std::vector<uint8_t> buf(64 * 1024, 0x5a);
    std::vector<uint8_t> back(buf.size());

    SimTiming t;
    for (unsigned i = 0; i < reps; ++i) {
        gdl::MemHandle h = ctx.memAllocAligned(buf.size());
        ctx.memCpyToDev(h, buf.data(), buf.size());
        int rc = ctx.runTask([](apu::ApuCore &) { return 0; });
        cisram_assert(rc == 0);
        ctx.memCpyFromDev(back.data(), h, back.size());
        ctx.memFree(h);
        t.dramSeconds += dram.streamReadSeconds(0, 1 << 20);
    }
    t.pcieSeconds = ctx.stats().pcieSeconds;
    t.invokeSeconds = ctx.stats().invokeSeconds;
    return t;
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

} // namespace

int
main()
{
    bench::BenchReport report("fault_overhead");

    // ---- 1. the raw gate ----------------------------------------
    constexpr uint64_t gate_calls = 200'000'000;
    uint64_t armed_seen = 0;
    auto t0 = Clock::now();
    for (uint64_t i = 0; i < gate_calls; ++i)
        armed_seen += fault::plan() != nullptr;
    double gate_ns = secondsSince(t0) / gate_calls * 1e9;
    cisram_assert(armed_seen == 0, "plan armed during gate timing");

    // ---- 2 + 3. workload A/B ------------------------------------
    // Interleave unarmed and armed-p0 passes so thermal/frequency
    // drift hits both alike.
    auto p0 = fault::FaultPlan::parse(
        "pcie_corrupt:p=0;task_hang:p=0;dram_flip:p=0;dev_oom:p=0");
    cisram_assert(p0.ok(), p0.status().toString());

    constexpr unsigned rounds = 9, reps = 40;
    std::vector<double> wall_unarmed, wall_armed;
    SimTiming sim_unarmed, sim_armed;
    workload(2); // warm-up (page faults, allocator pools)
    for (unsigned r = 0; r < rounds; ++r) {
        fault::disarm();
        t0 = Clock::now();
        sim_unarmed = workload(reps);
        wall_unarmed.push_back(secondsSince(t0));

        fault::armPlan(*p0);
        t0 = Clock::now();
        sim_armed = workload(reps);
        wall_armed.push_back(secondsSince(t0));
        fault::disarm();
    }

    bool identical = sim_unarmed == sim_armed;
    double mu = median(wall_unarmed), ma = median(wall_armed);

    // ---- 4. the flight recorder's disabled guard ----------------
    constexpr uint64_t guard_calls = 100'000'000;
    obs::FlightRecorder off(
        0, obs::FlightConfig{obs::FlightConfig::Mode::Off});
    t0 = Clock::now();
    for (uint64_t i = 0; i < guard_calls; ++i)
        off.recordAdmit(i, 0.0);
    double guard_ns = secondsSince(t0) / guard_calls * 1e9;
    cisram_assert(off.flights().empty(),
                  "disabled recorder recorded");

    // A real serving pass with the recorder off: 16 queries through
    // one core's batched pipeline at paper scale. Per query the hot
    // path crosses ~3 guarded entry points (admit, the per-batch
    // enablement check, complete).
    double serving_wall;
    {
        using namespace cisram::kernels;
        const auto &spec = baseline::ragCorpora()[0];
        apu::ApuDevice sdev;
        sdev.core(0).setMode(apu::ExecMode::TimingOnly);
        ServerConfig cfg;
        cfg.batch = BatchPolicy{4, 4};
        cfg.flight.mode = obs::FlightConfig::Mode::Off;
        DeviceServer server(sdev, spec, 0, nullptr, 1, cfg);
        t0 = Clock::now();
        for (uint64_t q = 0; q < 16; ++q)
            server.enqueueAt(q,
                             baseline::genQuery(spec.dim,
                                                static_cast<int>(q)),
                             server.busySeconds());
        server.drain();
        serving_wall = secondsSince(t0);
    }
    double recorder_overhead_pct =
        3.0 * 16 * guard_ns * 1e-9 / serving_wall * 100.0;

    // Hook sites one unarmed workload pass crosses: per rep, one
    // gate each in tryMemAllocAligned, tryMemCpyToDev,
    // tryMemCpyFromDev, and DramSystem::processTrace (runTask and
    // memFree have no environmental-fault hook). Unarmed, each site
    // costs exactly the measured gate load and nothing else.
    double hooks = 4.0 * reps;
    double unarmed_overhead_pct = hooks * gate_ns * 1e-9 / mu * 100.0;

    AsciiTable table({"measurement", "value"});
    table.addRow({"fault::plan() gate",
               detail::concat(gate_ns, " ns/call")});
    table.addRow({"workload unarmed (median)",
               detail::concat(mu * 1e3, " ms")});
    table.addRow({"hook sites crossed per pass",
               detail::concat(static_cast<uint64_t>(hooks))});
    table.addRow({"unarmed overhead (hooks x gate / runtime)",
               detail::concat(unarmed_overhead_pct, " %")});
    table.addRow({"workload armed p=0 (median)",
               detail::concat(ma * 1e3, " ms")});
    table.addRow({"simulated timing bit-identical armed-p0",
               identical ? "yes" : "NO"});
    table.addRow({"flight-recorder disabled guard",
               detail::concat(guard_ns, " ns/call")});
    table.addRow({"recorder-off overhead on a serving pass",
               detail::concat(recorder_overhead_pct, " %")});
    table.print();

    report.scalar("gate_ns_per_call", gate_ns);
    report.scalar("workload_unarmed_ms", mu * 1e3);
    report.scalar("hook_sites_per_pass", hooks);
    report.scalar("unarmed_overhead_percent", unarmed_overhead_pct);
    report.scalar("workload_armed_p0_ms", ma * 1e3);
    report.scalar("sim_timing_identical", identical ? 1 : 0);
    report.scalar("flight_guard_ns_per_call", guard_ns);
    report.scalar("serving_pass_ms", serving_wall * 1e3);
    report.scalar("recorder_disabled_overhead_percent",
                  recorder_overhead_pct);
    report.note("contract",
                "unarmed hooks are one relaxed atomic load each "
                "(overhead must be <1%; it lands orders of magnitude "
                "under), and simulated timing is bit-identical "
                "unarmed vs armed-p=0; armed runs additionally pay "
                "for CRC-checked transfers and per-burst ECC draws");

    if (!identical) {
        std::printf("FAIL: simulated timing diverged\n");
        return 1;
    }
    if (unarmed_overhead_pct >= 1.0) {
        std::printf("FAIL: unarmed overhead %.4f%% >= 1%%\n",
                    unarmed_overhead_pct);
        return 1;
    }
    if (recorder_overhead_pct >= 1e-3) {
        std::printf("FAIL: disabled-recorder overhead %.6f%% >= "
                    "1e-3%%\n",
                    recorder_overhead_pct);
        return 1;
    }
    std::printf("PASS: timing identical, unarmed overhead %.6f%%, "
                "disabled-recorder overhead %.6f%%\n",
                unarmed_overhead_pct, recorder_overhead_pct);
    return 0;
}
