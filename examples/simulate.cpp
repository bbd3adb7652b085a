/**
 * @file
 * Full command-line simulator front end (the BookSim-equivalent entry
 * point): load an optional config file, apply key=value overrides, run
 * one experiment, and print a complete statistics report including the
 * latency distribution.
 *
 * `simulate --help` (or -h) prints the usage text, kUsage below.
 */

#include <cstdio>
#include <memory>
#include <string>

#include "exec/exec_context.hpp"
#include "exec/sweep_runner.hpp"
#include "metrics/purity.hpp"
#include "network/traffic_manager.hpp"
#include "obs/console.hpp"
#include "sim/config.hpp"
#include "sim/log.hpp"

namespace {

/** Usage text printed by --help / -h. */
constexpr const char* kUsage = R"(Usage: simulate [config=<file>] [key=value ...] [--key value ...]
  e.g. simulate config=examples/configs/hotspot.cfg routing=dbar
       simulate traffic=shuffle injection_rate=0.42 num_vcs=8

Telemetry flags (sugar over the telemetry_* config keys):
  --telemetry-out FILE    per-interval time series (CSV by default)
  --telemetry-format FMT  csv | jsonl
  --sample-interval N     cycles between samples (default 100)
  --trace-packets N       JSONL lifecycle trace of packets 1..N
  --trace-out FILE        trace path (default trace.jsonl)

Observability flags (take no value; see DESIGN.md):
  --audit                 periodic invariant audits + watchdog
  --dump-on-abort         forensic state dump on abort/violation
  --chrome-trace          chrome://tracing timeline (trace.json)
  --profile               per-phase wall-time self-profile
                          (profile.json, footprint.profile/1)
  --heatmap               windowed spatial heatmaps (heatmap.json,
                          footprint.heatmap/1; render with
                          tools/render_heatmap.py)
  --timeseries            windowed flight-recorder JSONL stream
                          (timeseries.jsonl, footprint.timeseries/1;
                          render with tools/render_timeseries.py)
  --console               live rate-limited status line on stderr

Steady state (DESIGN.md §15): the flight recorder's online detector
reports the convergence cycle and flags measurement windows that
opened too early; warmup=auto ends warmup at convergence (capped by
warmup_max_cycles).

Sweep mode (rate ladder instead of a single run; see DESIGN.md §11):
  --sweep RATES           offered rates, "0.05,0.1,0.2" or lo:hi:n
  --jobs N                worker threads (default: all hardware
                          threads); results are identical for any N
  --bench-out FILE        write a footprint.bench/1 JSON artifact
)";

/** Map "--some-flag" to its config key, e.g. "some_flag". */
std::string
flagToKey(const std::string& flag)
{
    std::string key = flag.substr(2);
    for (char& c : key) {
        if (c == '-')
            c = '_';
    }
    return key;
}

/** Boolean switches that take no value argument. */
bool
isBareFlag(const std::string& key)
{
    return key == "audit" || key == "dump_on_abort"
        || key == "chrome_trace" || key == "profile"
        || key == "heatmap" || key == "timeseries"
        || key == "console";
}

/**
 * Rate-ladder mode: run the configured (routing, traffic, mesh) cell
 * at every rate of --sweep as parallel jobs, print the curve, and
 * optionally export the footprint.bench/1 artifact.
 */
int
runSweepMode(footprint::SimConfig cfg)
{
    using namespace footprint;

    SweepSpec spec;
    spec.rates = parseRateSpec(cfg.getStr("sweep_rates"));
    spec.routings = {cfg.getStr("routing")};
    spec.meshes = {
        {static_cast<int>(cfg.getInt("mesh_width")),
         static_cast<int>(cfg.getInt("mesh_height"))}};
    spec.traffics = {cfg.getStr("traffic")};
    spec.seeds = static_cast<int>(cfg.getInt("sweep_seeds"));

    const auto jobs = static_cast<unsigned>(cfg.getInt("jobs"));
    const std::string out = cfg.getStr("bench_out");
    const bool console = cfg.getBool("console");
    // Execution knobs are not part of the experiment identity: the
    // artifact must not depend on --jobs/--bench-out/--console (the
    // CI determinism gate compares payloads across thread counts).
    cfg.setInt("jobs", 0);
    cfg.set("bench_out", "");
    cfg.setBool("console", false);
    spec.base = cfg;

    ExecContext ctx(jobs);
    SweepRunner runner(ctx);
    std::unique_ptr<RunConsole> progress;
    if (console) {
        progress = std::make_unique<RunConsole>(
            static_cast<int>(cfg.getInt("console_interval_ms")));
        runner.attachConsole(progress.get());
    }
    const SweepResult result = runner.run(spec);
    if (progress)
        progress->close();

    std::vector<CurvePoint> points;
    for (const JobResult& r : result.jobs) {
        if (!r.probe)
            points.push_back(r.point);
    }
    const std::string label =
        cfg.getStr("routing") + "/" + cfg.getStr("traffic");
    std::printf("--- sweep results ---\n%s",
                formatCurve(label, points).c_str());
    for (const SaturationPoint& sp : result.saturation) {
        std::printf("saturation throughput    : %.3f "
                    "(zero-load latency %.2f)\n",
                    sp.throughput, sp.zeroLoadLatency);
    }
    std::printf("wall clock               : %.2f s (%zu jobs, "
                "%.2f jobs/s, --jobs %u)\n",
                result.wallSeconds, result.jobs.size(),
                result.jobsPerSec, ctx.jobs());
    if (!out.empty()) {
        writeBenchResults(out, spec, result);
        std::printf("bench results            : %s "
                    "(schema footprint.bench/1)\n",
                    out.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    using namespace footprint;

    SimConfig cfg = defaultConfig();
    cfg.set("sweep_rates", ""); // non-empty switches to sweep mode
    cfg.setInt("sweep_seeds", 1);
    cfg.setInt("jobs", 0); // 0 = all hardware threads
    cfg.set("bench_out", "");
    // Help wins over everything else on the command line: it must not
    // be read as a "--key value" flag or run a simulation.
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg == "--help" || arg == "-h") {
            std::fputs(kUsage, stdout);
            return 0;
        }
    }
    // A config= argument loads a file first; later key=value overrides
    // win, matching BookSim's "config file then overrides" convention.
    // "--key value" flags are equivalent to "key=value" with dashes
    // mapped to underscores; "--sweep" is sugar for "sweep_rates".
    for (int i = 1; i < argc; ++i) {
        const std::string arg(argv[i]);
        if (arg.rfind("config=", 0) == 0) {
            cfg.loadFile(arg.substr(7));
        } else if (arg.rfind("--", 0) == 0) {
            std::string key = flagToKey(arg);
            if (key == "sweep")
                key = "sweep_rates";
            if (isBareFlag(key)) {
                cfg.set(key, "true");
                continue;
            }
            if (key.empty() || i + 1 >= argc)
                fatal("flag " + arg + " needs a value");
            cfg.set(key, argv[++i]);
        } else if (!cfg.parseAssignment(arg)) {
            fatal("arguments must be key=value or --key value, got: "
                  + arg);
        }
    }
    cfg.warnUnknownKeys();

    std::printf("== footprint-noc simulator ==\n%s\n",
                cfg.toString().c_str());

    if (!cfg.getStr("sweep_rates").empty())
        return runSweepMode(cfg);

    RunStats stats;
    try {
        stats = runExperiment(cfg);
    } catch (const InvariantError& e) {
        std::fprintf(stderr,
                     "simulate: aborted on violated invariant: %s "
                     "(%s:%d)\n",
                     e.what(), e.file(), e.line());
        if (cfg.getBool("dump_on_abort")) {
            std::fprintf(stderr, "simulate: forensic state dump: %s\n",
                         cfg.getStr("dump_path").c_str());
        }
        return 2;
    }

    std::printf("--- results ---\n");
    std::printf("cycles run               : %lld (%lld skipped)\n",
                static_cast<long long>(stats.cyclesRun),
                static_cast<long long>(stats.cyclesSkipped));
    std::printf("measured packets         : %llu created, %llu "
                "ejected\n",
                static_cast<unsigned long long>(stats.measuredCreated),
                static_cast<unsigned long long>(stats.measuredEjected));
    std::printf("status                   : %s\n",
                stats.drained ? "drained" : "SATURATED (not drained)");
    std::printf("offered / accepted load  : %.3f / %.3f "
                "flits/node/cycle\n",
                stats.offeredFlitsPerNodeCycle,
                stats.acceptedFlitsPerNodeCycle);
    std::printf("packet latency           : avg %.2f  min %.0f  "
                "max %.0f  stddev %.2f\n",
                stats.latency.mean(), stats.latency.min(),
                stats.latency.max(), stats.latency.stddev());
    // Every percentile comes from the one HDR histogram: mixing in the
    // 5-cycle linear one could print a p90 above the p99.
    std::printf("latency percentiles      : p50 %llu  p90 %llu  "
                "p99 %llu  p999 %llu\n",
                static_cast<unsigned long long>(
                    stats.latencyHdr.percentile(0.50)),
                static_cast<unsigned long long>(
                    stats.latencyHdr.percentile(0.90)),
                static_cast<unsigned long long>(
                    stats.latencyHdr.percentile(0.99)),
                static_cast<unsigned long long>(
                    stats.latencyHdr.percentile(0.999)));
    std::printf("hops                     : avg %.2f  max %.0f\n",
                stats.hops.mean(), stats.hops.max());
    if (stats.hotspotLatency.count() > 0) {
        std::printf("hotspot-class latency    : avg %.2f over %llu "
                    "packets (p99 %llu, p999 %llu)\n",
                    stats.hotspotLatency.mean(),
                    static_cast<unsigned long long>(
                        stats.hotspotLatency.count()),
                    static_cast<unsigned long long>(
                        stats.hotspotLatencyHdr.percentile(0.99)),
                    static_cast<unsigned long long>(
                        stats.hotspotLatencyHdr.percentile(0.999)));
    }
    std::printf("VC allocation            : %llu grants, %llu "
                "blocking events\n",
                static_cast<unsigned long long>(
                    stats.counters.vcAllocSuccess),
                static_cast<unsigned long long>(
                    stats.counters.vcAllocFail));
    std::printf("purity of blocking       : %.3f (HoL degree %.0f)\n",
                stats.counters.purity(), stats.counters.holDegree());
    const std::string ts_out = cfg.getStr("telemetry_out");
    if (!ts_out.empty()) {
        std::printf("telemetry time series    : %s (every %lld "
                    "cycles)\n",
                    ts_out.c_str(),
                    static_cast<long long>(
                        cfg.getInt("sample_interval")));
    }
    if (cfg.getInt("trace_packets") > 0) {
        const std::string trace_out = cfg.getStr("trace_out");
        std::printf("packet lifecycle trace   : %s (packets 1..%lld)\n",
                    trace_out.empty() ? "trace.jsonl"
                                      : trace_out.c_str(),
                    static_cast<long long>(
                        cfg.getInt("trace_packets")));
    }
    if (cfg.getBool("chrome_trace")) {
        const std::string chrome_out = cfg.getStr("chrome_trace_out");
        std::printf("chrome trace timeline    : %s (load in "
                    "chrome://tracing or ui.perfetto.dev)\n",
                    chrome_out.empty() ? "trace.json"
                                       : chrome_out.c_str());
    }
    if (cfg.getBool("audit")) {
        std::printf("invariant audit          : %llu violations, "
                    "%llu watchdog events\n",
                    static_cast<unsigned long long>(
                        stats.auditViolations),
                    static_cast<unsigned long long>(
                        stats.watchdogEvents));
    }
    if (!stats.drained) {
        std::printf("stall classification     : %s\n",
                    stats.stallClass.c_str());
    }
    // The recorder ran (timeseries stream and/or warmup=auto): report
    // the detector verdict and any tree-saturation onset it saw.
    if (cfg.getBool("timeseries")
        || cfg.getStr("warmup") == "auto") {
        if (stats.steadyStateCycle >= 0) {
            std::printf("steady state             : detected at cycle "
                        "%lld (warmup used %lld%s)\n",
                        static_cast<long long>(stats.steadyStateCycle),
                        static_cast<long long>(stats.warmupUsed),
                        stats.measuredBeforeSteady
                            ? ", MEASURED BEFORE STEADY"
                            : "");
        } else {
            std::printf("steady state             : NOT reached "
                        "(warmup used %lld)\n",
                        static_cast<long long>(stats.warmupUsed));
        }
        if (stats.saturationOnsetCycle >= 0) {
            std::printf("saturation onset         : cycle %lld "
                        "(accepted lagged offered with growing "
                        "backlog)\n",
                        static_cast<long long>(
                            stats.saturationOnsetCycle));
        }
    }
    if (!stats.timeseriesPath.empty()) {
        std::printf("timeseries stream        : %s (schema "
                    "footprint.timeseries/1; "
                    "tools/render_timeseries.py)\n",
                    stats.timeseriesPath.c_str());
    }
    if (!stats.stateDumpPath.empty()) {
        std::printf("forensic state dump      : %s\n",
                    stats.stateDumpPath.c_str());
    }
    if (!stats.profilePath.empty()) {
        std::printf("self-profile             : %s (schema "
                    "footprint.profile/1)\n",
                    stats.profilePath.c_str());
    }
    if (!stats.heatmapPath.empty()) {
        std::printf("spatial heatmap          : %s (schema "
                    "footprint.heatmap/1; tools/render_heatmap.py)\n",
                    stats.heatmapPath.c_str());
    }
    // A run that violated its own invariants must not exit 0, even
    // though it completed enough to print statistics.
    return stats.auditViolations > 0 ? 3 : 0;
}
