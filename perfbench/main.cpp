/**
 * @file
 * Repository benchmark program.
 *
 * Usage:
 *   perfbench --workload NAME|all --seed N --seconds S
 *                    --trace 0|1 --out-dir DIR [--git REV]
 *   perfbench --selftest sharded-signature --seed N
 *
 * --trace 0 times units of the workload back to back for S seconds
 * and reports the end-to-end metrics (medians over units, or over
 * timing windows for a workload that has them). --trace 1
 * makes the traced run: spans around each layer call, the simulator's
 * own profiler, a steady-state probe, and the per-layer metrics. Both
 * print a context line, a metric table, and as the last line one JSON
 * object {"correct","attempted","failed","metrics"}; "all" runs every
 * workload in turn. Artifacts (profile documents, observer streams,
 * the span file) go to DIR.
 *
 * perfbench/run.py builds this program and forwards its arguments;
 * perfbench/README.md documents the workloads and metrics.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "network/network.hpp"
#include "obs/profiler.hpp"
#include "obs/run_metadata.hpp"
#include "obs/sink.hpp"
#include "topo/topology.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace footprint;

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

/** Units timed at least, however long they take. */
constexpr int kMinUnits = 2;
/**
 * Set-up samples taken before the first unit, and before each timed
 * unit; setup_s is the median of all of them. A set-up sample varies
 * with the moment it is taken (on a shared 4-vCPU VM, samples 250 ms
 * apart in one process ranged over 2.5-4.5 ms for sat8), so the
 * samples are spread over the run.
 */
constexpr int kSetupReps = 21;
constexpr int kSetupRepsPerUnit = 5;
/**
 * Nodes built per set-up sample, at least. An 8x8 network builds in
 * under a millisecond, too short to time steadily on its own, so a
 * sample repeats the set-up until it has built this many nodes.
 */
constexpr int kSetupSampleNodes = 1024;
/** Cycles of the sharded-vs-serial signature self-test. */
constexpr std::int64_t kSignatureTestCycles = 150;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    std::string outDir = ".";
    std::string git = "unknown";
    std::string selftest;
};

bool
parseArgs(int argc, char** argv, Args& a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "--seconds")
            a.seconds = std::strtod(val.c_str(), nullptr);
        else if (key == "--trace")
            a.trace = std::atoi(val.c_str());
        else if (key == "--out-dir")
            a.outDir = val;
        else if (key == "--git")
            a.git = val;
        else if (key == "--selftest")
            a.selftest = val;
        else
            return false;
    }
    return argc % 2 == 1;
}

unsigned
maxThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

std::string
cpuModel()
{
    std::ifstream is("/proc/cpuinfo");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
contextJson(const Args& a, const Workload& w)
{
    return "{\"workload\":\"" + jsonEscape(a.workload)
        + "\",\"seed\":" + std::to_string(a.seed)
        + ",\"nproc\":"
        + std::to_string(std::thread::hardware_concurrency())
        + ",\"cpu_model\":\"" + jsonEscape(cpuModel())
        + "\",\"compiler\":\"" + jsonEscape(kCompiler)
        + "\",\"build_type\":\"" + jsonEscape(RunMetadata::compiledBuildType())
        + "\",\"git\":\"" + jsonEscape(a.git)
        + "\",\"threads_or_jobs\":" + std::to_string(w.workers)
        + ",\"replicas\":" + std::to_string(w.replicas)
        + ",\"seconds\":" + std::to_string(a.seconds)
        + ",\"trace\":" + std::to_string(a.trace) + "}";
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Metric table for people, then the result line for the harness. */
void
report(const std::vector<Metric>& metrics, std::uint64_t attempted,
       const std::vector<std::string>& failures)
{
    for (const std::string& f : failures)
        std::fprintf(stderr, "FAIL: %s\n", f.c_str());
    const double failed_frac = static_cast<double>(failures.size())
        / static_cast<double>(std::max<std::uint64_t>(attempted, 1));
    for (const Metric& m : metrics)
        std::printf("%-44s %20.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("%-44s %20.6f %s\n", "failed_frac", failed_frac,
                "fraction");
    std::string json = "{\"correct\": ";
    json += failures.empty() ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted)
        + ", \"failed\": " + std::to_string(failures.size())
        + ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", metrics[i].value);
        json += (i ? ", \"" : "\"") + metrics[i].name
            + "\": {\"value\": " + buf + ", \"unit\": \""
            + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

/**
 * Peak resident set of this process image (VmHWM). getrusage's
 * ru_maxrss is not used: it carries over the high-water mark of the
 * parent image the process was forked from.
 */
double
peakRssMb()
{
    std::ifstream is("/proc/self/status");
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

/** Set-ups per sample: enough to build kSetupSampleNodes nodes. */
int
setupBatch(const Workload& w)
{
    int nodes = 0;
    for (const SimConfig& cfg : w.runs)
        nodes += nodesOf(cfg);
    return std::max(1, kSetupSampleNodes / std::max(nodes, 1));
}

/**
 * Time @p reps set-up samples. A set-up is the summed Topology +
 * Network construction of every network a unit builds; a sample is the
 * mean over setupBatch() set-ups in a row. With a tracer, each
 * construction is also split into topo / network spans.
 */
std::vector<double>
setupSamples(const Workload& w, Tracer* tracer, int reps)
{
    const int batch = setupBatch(w);
    std::vector<double> out;
    for (int rep = 0; rep < reps; ++rep) {
        SpanScope span(tracer, "setup");
        const std::uint64_t t0 = nowNs();
        for (int b = 0; b < batch; ++b) {
            for (const SimConfig& cfg : w.runs) {
                if (tracer) {
                    SpanScope topo_span(tracer, "topo.build");
                    Topology topo = Topology::fromConfig(cfg);
                    (void)topo;
                }
                SpanScope net_span(tracer, "network.construct");
                Network net(cfg);
            }
        }
        out.push_back(static_cast<double>(nowNs() - t0) * 1e-9 / batch);
    }
    return out;
}

/** Checks a unit's signatures against the reference unit's. */
void
checkSignatures(const UnitResult& ref, const UnitResult& u,
                const std::string& what, std::uint64_t& attempted,
                std::vector<std::string>& failures)
{
    for (std::size_t i = 0; i < ref.runSignatures.size(); ++i) {
        ++attempted;
        if (i >= u.runSignatures.size()
            || u.runSignatures[i] != ref.runSignatures[i])
            failures.push_back(what + ": run " + std::to_string(i)
                               + " signature differs at the same seed");
    }
}

void
absorb(const UnitResult& u, std::uint64_t& attempted,
       std::vector<std::string>& failures)
{
    attempted += u.attempted;
    failures.insert(failures.end(), u.failures.begin(),
                    u.failures.end());
}

/**
 * The deadlock check of an observed workload, one per run of each
 * replica. The stall class TrafficManager reports at the end of a run
 * that is not drained is a verdict on one snapshot of the wait-for
 * graph, and on DBAR's saturated hotspot network it reads "deadlock"
 * at some cycles and "tree_saturation" at the next. So a "deadlock"
 * only fails the check if recheckDeadlock() finds its wait-for cycle
 * still unmoved later; a refuted one is noted on stderr. Every unit
 * repeats the same runs (the signature checks hold them to it), so the
 * reference unit's classes stand for all units.
 */
void
checkDeadlocks(const Workload& w, const UnitResult& ref,
               const std::string& out_dir, std::uint64_t& attempted,
               std::vector<std::string>& failures)
{
    if (!w.observed)
        return;
    for (std::size_t j = 0; j < ref.stallClasses.size(); ++j) {
        ++attempted;
        if (ref.stallClasses[j] != "deadlock")
            continue;
        const auto replica = static_cast<unsigned>(j / w.runs.size());
        const SimConfig cfg = replicaRun(w, j % w.runs.size(), replica);
        const std::string routing = cfg.getStr("routing");
        const DeadlockRecheck r = recheckDeadlock(
            cfg, out_dir + "/deadlock." + w.name + "." + routing + ".r"
                + std::to_string(replica));
        const std::string what = w.name + "/" + routing + " at seed "
            + std::to_string(cfg.getInt("seed"))
            + ": end-of-run stall class is deadlock; " + r.detail;
        if (r.stands)
            failures.push_back(what);
        else
            std::fprintf(stderr, "note: %s, so it is not one\n",
                         what.c_str());
    }
}

/**
 * Run units until @p seconds have passed (at least @p min_units).
 * Every unit's signatures must equal those of @p ref, or of the first
 * unit when @p ref is null. No untimed unit is needed to warm caches:
 * each run warms up before its timed window. With @p setup,
 * kSetupRepsPerUnit set-up samples are also taken before each unit, so
 * the set-up samples span the same stretch of time as the units.
 */
std::vector<UnitResult>
timedUnits(const Workload& w, const UnitOptions& opt,
           const UnitResult* ref, double seconds, int min_units,
           std::uint64_t& attempted, std::vector<std::string>& failures,
           std::vector<double>* setup = nullptr)
{
    std::vector<UnitResult> units;
    const std::uint64_t start = nowNs();
    while (static_cast<int>(units.size()) < min_units
           || static_cast<double>(nowNs() - start) * 1e-9 < seconds) {
        if (setup) {
            const std::vector<double> more =
                setupSamples(w, nullptr, kSetupRepsPerUnit);
            setup->insert(setup->end(), more.begin(), more.end());
        }
        units.push_back(runUnit(w, opt));
        absorb(units.back(), attempted, failures);
        if (ref || units.size() > 1) {
            checkSignatures(ref ? *ref : units.front(), units.back(),
                            w.name, attempted, failures);
        }
    }
    return units;
}

/**
 * Router-cycles per second: the median over units, or over every
 * timing window of every unit when the workload has windows.
 */
double
medianRate(const Workload& w, const std::vector<UnitResult>& units)
{
    std::vector<double> v;
    for (const UnitResult& u : units) {
        if (w.windowCycles > 0)
            v.insert(v.end(), u.windowRates.begin(), u.windowRates.end());
        else
            v.push_back(u.routerCycles / u.wallSeconds);
    }
    return median(v);
}

int
runEndToEnd(const Args& a, const Workload& w)
{
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;
    std::vector<double> setup = setupSamples(w, nullptr, kSetupReps);
    UnitOptions opt;
    opt.replicas = w.replicas;
    const std::vector<UnitResult> units = timedUnits(
        w, opt, nullptr, a.seconds, kMinUnits, attempted, failures, &setup);
    checkDeadlocks(w, units.front(), a.outDir, attempted, failures);

    std::printf("units timed: %zu, router-cycles/s per unit:",
                units.size());
    for (const UnitResult& u : units)
        std::printf(" %.0f", u.routerCycles / u.wallSeconds);
    std::printf("\n");
    // Every unit simulates the same cycles (the signature checks hold
    // them to it), so the flit hops per router-cycle of one unit turn
    // the rate into host ns per flit hop.
    const double rate = medianRate(w, units);
    const double hops_per_router_cycle =
        units.front().flitHops / units.front().routerCycles;
    report({{"router_cycles_per_s", rate, "1/s"},
            {"ns_per_flit_hop", 1e9 / (rate * hops_per_router_cycle), "ns"},
            {"setup_s", median(setup), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"}},
           attempted, failures);
    return 0;
}

/** Sums over the profile rows of one traced run. */
struct PhaseTotals
{
    std::vector<double> phaseSeconds =
        std::vector<double>(static_cast<std::size_t>(ProfPhase::Count));
    double cycles = 0.0;
    double routerCycles = 0.0;
    /**
     * Run time outside every profiled phase, serial rows only: under
     * sharded stepping the router phases run on the crew and are not
     * phases of the profile, so the remainder would be stepping time.
     */
    double unattributedSeconds = 0.0;
    std::vector<double> barrierP50;
    std::vector<double> barrierP99;
    std::vector<double> imbalance;
    std::vector<double> busyFrac;

    bool
    add(const std::string& path, int nodes)
    {
        ProfileRow row;
        if (!readProfileRow(path, row))
            return false;
        double phase_sum = 0.0;
        for (std::size_t p = 0; p < phaseSeconds.size(); ++p) {
            phaseSeconds[p] += row.phaseSeconds[p];
            phase_sum += row.phaseSeconds[p];
        }
        if (!row.sharded)
            unattributedSeconds += row.wallSeconds - phase_sum;
        cycles += static_cast<double>(row.cycles);
        routerCycles += static_cast<double>(row.cycles) * nodes;
        if (row.sharded) {
            barrierP50.push_back(row.barrierP50Ns);
            barrierP99.push_back(row.barrierP99Ns);
            imbalance.push_back(row.imbalance);
            double busy = 0.0;
            for (const double s : row.shardBusySeconds)
                busy += s;
            busyFrac.push_back(busy / (row.threads * row.wallSeconds));
        }
        return true;
    }

    double
    phase(ProfPhase p) const
    {
        return phaseSeconds[static_cast<std::size_t>(p)];
    }
};

int
runTraced(const Args& a, const Workload& w)
{
    std::uint64_t attempted = 0;
    std::vector<std::string> failures;
    Tracer tracer;
    setupSamples(w, &tracer, kSetupReps);
    const auto setupSum = [&](const std::string& name) {
        // Per-rep sums: spans of one name under each "setup" span.
        std::vector<double> sums(kSetupReps, 0.0);
        int rep = -1;
        for (const Tracer::Span& s : tracer.spans()) {
            if (s.name == "setup")
                ++rep;
            else if (s.name == name && rep >= 0)
                sums[static_cast<std::size_t>(rep)] += s.seconds();
        }
        return median(sums) / setupBatch(w);
    };

    // Untraced then traced units, half the time budget each.
    UnitOptions plain;
    const std::vector<UnitResult> untraced = timedUnits(
        w, plain, nullptr, a.seconds / 2, kMinUnits, attempted, failures);
    const UnitResult& ref = untraced.front();
    checkDeadlocks(w, ref, a.outDir, attempted, failures);

    UnitOptions traced = plain;
    traced.tracer = &tracer;
    traced.profile = true;
    traced.profilePrefix = a.outDir + "/profile." + w.name + ".run";
    const std::vector<UnitResult> traced_units = [&] {
        SpanScope span(&tracer, "traced_units");
        return timedUnits(w, traced, &ref, a.seconds / 2, kMinUnits,
                          attempted, failures);
    }();

    PhaseTotals totals;
    for (const UnitResult& u : traced_units) {
        for (std::size_t i = 0; i < u.profilePaths.size(); ++i) {
            ++attempted;
            if (!totals.add(u.profilePaths[i], nodesOf(w.runs[i])))
                failures.push_back("unreadable profile document "
                                   + u.profilePaths[i]);
        }
    }
    const Router::Counters& counters = ref.counters;

    // Steady-state probe: allocations per cycle and the routing
    // snapshot, on the serial 8x8 and the sharded 32x32 networks.
    std::map<std::string, ProbeResult> probes;
    if (w.name == "sat8" || w.name == "sat32_sharded") {
        // Each probe warms its network as long as the workload does.
        SpanScope span(&tracer, "routing.snapshot");
        const bool big = w.name == "sat32_sharded";
        for (const SimConfig& cfg : w.runs) {
            probes[cfg.getStr("routing")] =
                probeSteadyState(cfg, cfg.getInt("warmup_cycles"),
                                 big ? 100 : 500, big ? 5 : 20);
        }
    }

    std::vector<Metric> m;
    m.push_back({"topo.build_s", setupSum("topo.build"), "s"});
    m.push_back({"network.construct_s", setupSum("network.construct"),
                 "s"});
    const double rc = std::max(totals.routerCycles, 1.0);
    const double cyc = std::max(totals.cycles, 1.0);
    m.push_back({"router.receive_ns_per_router_cycle",
                 totals.phase(ProfPhase::Drain) * 1e9 / rc, "ns"});
    m.push_back({"router.compute_ns_per_router_cycle",
                 totals.phase(ProfPhase::Compute) * 1e9 / rc, "ns"});
    m.push_back({"router.transmit_ns_per_router_cycle",
                 totals.phase(ProfPhase::Transmit) * 1e9 / rc, "ns"});
    m.push_back({"network.epilogue_ns_per_cycle",
                 totals.phase(ProfPhase::Epilogue) * 1e9 / cyc, "ns"});
    m.push_back({"network.link_ns_per_cycle",
                 totals.phase(ProfPhase::Link) * 1e9 / cyc, "ns"});
    for (const char* alg : {"dor", "oddeven", "dbar", "footprint"}) {
        const auto it = probes.find(alg);
        const bool have = it != probes.end();
        const std::string pre = std::string("routing.") + alg;
        m.push_back({pre + ".route_ns_p50",
                     have ? percentile(it->second.routeNs, 0.50) : 0.0,
                     "ns"});
        m.push_back({pre + ".route_ns_p99",
                     have ? percentile(it->second.routeNs, 0.99) : 0.0,
                     "ns"});
        m.push_back({pre + ".requests_per_route",
                     have ? it->second.requestsPerRoute : 0.0,
                     "count"});
    }
    const double va_attempts = static_cast<double>(
        counters.vcAllocSuccess + counters.vcAllocFail);
    m.push_back({"router.flit_hops",
                 static_cast<double>(counters.flitsTraversed), "count"});
    m.push_back({"router.va_grants",
                 static_cast<double>(counters.vcAllocSuccess), "count"});
    m.push_back({"router.va_fails",
                 static_cast<double>(counters.vcAllocFail), "count"});
    m.push_back({"router.va_grant_ratio",
                 va_attempts > 0
                     ? static_cast<double>(counters.vcAllocSuccess)
                         / va_attempts
                     : 0.0,
                 "ratio"});
    m.push_back({"traffic.inject_ns_per_cycle",
                 totals.phase(ProfPhase::Inject) * 1e9 / cyc, "ns"});
    m.push_back({"traffic.collect_ns_per_cycle",
                 totals.phase(ProfPhase::Collect) * 1e9 / cyc, "ns"});
    m.push_back({"exec.barrier_wait_ns_p50", median(totals.barrierP50),
                 "ns"});
    m.push_back({"exec.barrier_wait_ns_p99", median(totals.barrierP99),
                 "ns"});
    m.push_back({"exec.shard_imbalance", median(totals.imbalance),
                 "ratio"});
    m.push_back({"exec.shard_busy_frac", median(totals.busyFrac),
                 "fraction"});
    double allocs = 0.0;
    for (const auto& [alg, p] : probes)
        allocs = std::max(allocs, p.allocsPerCycle);
    m.push_back({"network.allocs_per_cycle", allocs, "count"});
    m.push_back({"obs.observer_ns_per_cycle",
                 totals.unattributedSeconds * 1e9 / cyc, "ns"});
    m.push_back({"obs.trace_overhead_frac",
                 1.0 - medianRate(w, traced_units) / medianRate(w, untraced),
                 "fraction"});
    for (const char* alg : {"dor", "oddeven", "dbar", "footprint"}) {
        const auto it = ref.model.find(alg);
        const ModelStats ms =
            it != ref.model.end() ? it->second : ModelStats{};
        const std::string pre = std::string("model.") + alg;
        // 53 bits, so the JSON number is exact.
        m.push_back({pre + ".signature",
                     static_cast<double>(ms.signature >> 11), "hash"});
        m.push_back({pre + ".latency_avg_cycles", ms.latencyAvg,
                     "cycles"});
        m.push_back({pre + ".latency_p99_cycles", ms.latencyP99,
                     "cycles"});
        m.push_back({pre + ".accepted_flits_per_node_cycle",
                     ms.accepted, "flits/node/cyc"});
    }

    const std::string span_path =
        a.outDir + "/spans." + w.name + ".json";
    if (!tracer.write(span_path, contextJson(a, w)))
        failures.push_back("could not write span file " + span_path);
    std::printf("span file: %s\n", span_path.c_str());
    report(m, attempted, failures);
    return 0;
}

int
runSelftest(const Args& a)
{
    if (a.selftest != "sharded-signature") {
        std::fprintf(stderr, "unknown self-test '%s'\n",
                     a.selftest.c_str());
        return 2;
    }
    const auto [sharded, serial] =
        shardedVsSerialSignatures(a.seed, maxThreads(),
                                  kSignatureTestCycles);
    std::printf("sat32_sharded seed %llu, %lld cycles: sharded %016llx "
                "serial %016llx\n",
                static_cast<unsigned long long>(a.seed),
                static_cast<long long>(kSignatureTestCycles),
                static_cast<unsigned long long>(sharded),
                static_cast<unsigned long long>(serial));
    return sharded == serial ? 0 : 1;
}

} // namespace
} // namespace perfbench

int
main(int argc, char** argv)
{
    using namespace perfbench;
    Args a;
    if (!parseArgs(argc, argv, a)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME|all --seed N "
                     "--seconds S --trace 0|1 --out-dir DIR [--git REV]\n"
                     "       perfbench --selftest "
                     "sharded-signature --seed N\n");
        return 2;
    }
    if (!a.selftest.empty())
        return runSelftest(a);
    std::vector<std::string> names = {a.workload};
    if (a.workload == "all")
        names = workloadNames();
    std::filesystem::create_directories(a.outDir);
    int rc = 0;
    for (const std::string& name : names) {
        a.workload = name;
        const std::optional<Workload> w =
            makeWorkload(name, a.seed, maxThreads(), a.outDir);
        if (!w) {
            std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
            return 2;
        }
        std::printf("context: %s\n", contextJson(a, *w).c_str());
        std::fflush(stdout);
        rc = std::max(rc, a.trace ? runTraced(a, *w) : runEndToEnd(a, *w));
    }
    return rc;
}
