#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string_view>

#include "exec/exec_context.hpp"
#include "obs/sink.hpp"
#include "obs/telemetry.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace footprint;

namespace {

const char* const kRoutings[] = {"dor", "oddeven", "dbar", "footprint"};

/**
 * Warm-up and measurement cycles of each workload's runs. The networks
 * start empty; each warm-up outlasts the fill transient measured with
 * the flight recorder at seed 1 (in-flight flits stop growing by cycle
 * ~250 on sat8, ~1600 for footprint and ~2400 for DBAR on hotspot8,
 * ~1150 on sat32_sharded), so the timed window is the saturated regime.
 */
struct Phases
{
    std::int64_t warmup;
    std::int64_t measure;
};
constexpr Phases kSat8{500, 3000};
constexpr Phases kHotspot{2500, 2500};
constexpr Phases kSat32{1201, 2000};
/** sat32_sharded's timing windows; they must divide warmup - 1. */
constexpr std::int64_t kSat32Window = 100;
static_assert((kSat32.warmup - 1) % kSat32Window == 0);
static_assert(kSat32.measure % kSat32Window == 0);
/**
 * Cycles a reported deadlock must hold still to stand. On hotspot8
 * (DBAR, seed 1673460072) the stall class of the end-of-run snapshot
 * reads deadlock at cycle 5000 but tree_saturation at 4999 and 5001,
 * and 2500 cycles later 17 of the 20 VCs on its wait-for cycle hold
 * another head packet.
 */
constexpr std::int64_t kDeadlockHoldCycles = 2500;

class Fnv1a
{
  public:
    void
    mix(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (v >> (8 * i)) & 0xffu;
            hash_ *= 1099511628211ULL;
        }
    }
    void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
    void
    mix(const std::string& s)
    {
        for (const char c : s)
            mix(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    }
    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 14695981039346656037ULL;
};

SimConfig
baseConfig(std::uint64_t seed, int width, int height)
{
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", width);
    cfg.setInt("mesh_height", height);
    cfg.setInt("seed", static_cast<std::int64_t>(seed));
    return cfg;
}

void
setPhases(SimConfig& cfg, Phases p)
{
    cfg.setInt("warmup_cycles", p.warmup);
    cfg.setInt("measure_cycles", p.measure);
    cfg.setInt("drain_cycles", 0);
}

SimConfig
sat32Config(std::uint64_t seed, unsigned threads)
{
    SimConfig cfg = baseConfig(seed, 32, 32);
    cfg.set("routing", "footprint");
    cfg.setDouble("injection_rate", 0.15);
    cfg.set("step_mode", "sharded");
    cfg.setInt("threads", threads);
    setPhases(cfg, kSat32);
    return cfg;
}

/** Time-series sink that only notes the host time of each sample. */
class HostClockSink : public TimeSeriesSink
{
  public:
    struct Stamp
    {
        std::int64_t cycle;
        std::uint64_t ns;
    };

    explicit HostClockSink(std::vector<Stamp>& stamps) : stamps_(stamps) {}
    void writeHeader(const std::vector<std::string>&) override {}
    void
    writeRow(std::int64_t cycle, const std::string&,
             const std::vector<double>&) override
    {
        stamps_.push_back({cycle, nowNs()});
    }
    void flush() override {}

  private:
    std::vector<Stamp>& stamps_;
};

/**
 * Run @p cfg through TrafficManager and time its measurement window:
 * the host seconds go to @p seconds (negative when the run ended
 * early), and with @p window > 0 the router-cycles per second of each
 * @p window cycles go to @p window_rates. A telemetry hub with only
 * aggregate channels samples every @p window (or warmup - 1) cycles,
 * so one sample lands right after the last warm-up cycle is stepped,
 * and TrafficManager takes a final one after the last measured cycle:
 * the time between them covers exactly the cycles RunStats::counters
 * covers.
 */
RunStats
runTimed(const SimConfig& cfg, std::int64_t window, double& seconds,
         std::vector<double>& window_rates)
{
    const std::int64_t warmup = cfg.getInt("warmup_cycles");
    const std::int64_t end = warmup + cfg.getInt("measure_cycles");
    std::vector<HostClockSink::Stamp> stamps;  // outlives the hub
    TelemetryConfig tc;
    tc.sampleInterval = window > 0 ? window : warmup - 1;
    tc.perRouter = false;
    TelemetryHub hub(tc);
    hub.addSink(std::make_unique<HostClockSink>(stamps));
    TrafficManager tm(cfg);
    tm.attachTelemetry(&hub);
    RunStats stats = tm.run();

    seconds = -1.0;
    const auto first = std::find_if(
        stamps.begin(), stamps.end(), [&](const HostClockSink::Stamp& s) {
            return s.cycle == warmup - 1;
        });
    if (first == stamps.end() || stamps.back().cycle != end)
        return stats;
    seconds = static_cast<double>(stamps.back().ns - first->ns) * 1e-9;
    if (window > 0) {
        // The final stamp (cycle end) follows the same step as the grid
        // stamp at end - 1, so only grid stamps bound windows.
        const double nodes = static_cast<double>(nodesOf(cfg));
        for (auto it = first; (it + 1)->cycle < end; ++it) {
            const auto next = it + 1;
            const double s = static_cast<double>(next->ns - it->ns) * 1e-9;
            window_rates.push_back(
                nodes * static_cast<double>(next->cycle - it->cycle) / s);
        }
    }
    return stats;
}

/** Chain @p sig into @p into (order-sensitive). */
void
chain(std::uint64_t& into, std::uint64_t sig)
{
    Fnv1a h;
    h.mix(into);
    h.mix(sig);
    into = h.value();
}

void
check(UnitResult& out, bool ok, const std::string& what)
{
    ++out.attempted;
    if (!ok)
        out.failures.push_back(what);
}

/**
 * Seed of replica @p replica of a run at @p seed; replica 0 keeps it.
 * Replicas differ in seed because on hotspot8 the work per simulated
 * cycle depends on it: flit hops per router-cycle range over 1.86-2.19
 * across seeds 1-10, as DBAR's tree saturation varies.
 */
std::uint64_t
replicaSeed(std::uint64_t seed, unsigned replica)
{
    return seed + 0x9E3779B97F4A7C15ULL * replica;
}

/** "a/b.json" -> "a/b.r2.json": per-replica artifact paths. */
std::string
replicaPath(const std::string& path, unsigned replica)
{
    if (replica == 0)
        return path;
    const auto dot = path.find_last_of('.');
    const std::string tag = ".r" + std::to_string(replica);
    return dot == std::string::npos ? path + tag
                                    : path.substr(0, dot) + tag
            + path.substr(dot);
}

void
runExperiments(const Workload& w, const UnitOptions& opt,
               unsigned replica, UnitResult& out)
{
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        SimConfig cfg = replicaRun(w, i, replica);
        const std::string routing = cfg.getStr("routing");
        if (opt.profile) {
            const std::string path = replicaPath(
                opt.profilePrefix + std::to_string(i) + ".json", replica);
            cfg.setBool("profile", true);
            cfg.set("profile_out", path);
            out.profilePaths.push_back(path);
        }
        double seconds = 0.0;
        RunStats stats;
        {
            SpanScope span(opt.tracer, "network.runExperiment/" + routing);
            stats = runTimed(cfg, w.windowCycles, seconds,
                             out.windowRates);
        }
        out.wallSeconds += seconds;
        out.routerCycles += static_cast<double>(nodesOf(cfg))
            * static_cast<double>(cfg.getInt("measure_cycles"));
        out.flitHops += static_cast<double>(stats.counters.flitsTraversed);
        addCounters(out.counters, stats.counters);

        const std::string tag = w.name + "/" + routing;
        check(out, seconds > 0.0,
              tag + ": run ended before its measurement window did");
        check(out, stats.measuredEjected <= stats.measuredCreated,
              tag + ": more measured packets ejected than created");
        if (w.observed) {
            check(out, stats.auditViolations == 0,
                  tag + ": " + std::to_string(stats.auditViolations)
                      + " auditor violations");
        }
        out.stallClasses.push_back(stats.stallClass);

        const std::uint64_t sig = runSignature(stats);
        out.runSignatures.push_back(sig);
        ModelStats& m = out.model[routing];
        chain(m.signature, sig);
        m.latencyAvg = stats.avgLatency();
        m.latencyP99 = stats.latencyHdr.percentile(0.99);
        m.accepted = stats.acceptedFlitsPerNodeCycle;
    }
}

std::string
readFile(const std::string& path)
{
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

/** An input VC, as a state dump's stall detail names it. */
struct InputVcName
{
    int node;
    std::string port;  ///< "E", "W", ...
    int vc;
};

/**
 * The wait-for cycle of a footprint.state_dump/1 document whose stall
 * class is "deadlock": the detail ends in
 * "cycle: (n24, S, vc1) -> (n32, S, vc1) -> ... -> (n24, S, vc1)".
 * Empty for any other document.
 */
std::vector<InputVcName>
waitCycle(const std::string& doc)
{
    std::vector<InputVcName> out;
    const std::size_t stall = doc.find("\"stall\":{\"class\":\"deadlock\"");
    const std::size_t detail = doc.find("\"detail\":\"", stall);
    if (stall == std::string::npos || detail == std::string::npos)
        return out;
    const std::size_t end = doc.find('"', detail + 10);
    for (std::size_t at = doc.find("cycle: ", detail);
         (at = doc.find("(n", at)) < end; at += 2) {
        int node = 0;
        int vc = 0;
        char port[8] = {};
        if (std::sscanf(doc.c_str() + at, "(n%d, %7[^,], vc%d)", &node,
                        port, &vc)
            != 3)
            break;
        out.push_back({node, port, vc});
    }
    if (!out.empty())
        out.pop_back();  // the detail closes the cycle on its first VC
    return out;
}

/**
 * Packet of the head flit in input VC @p v of a state dump, or -1 when
 * the VC holds no flit.
 */
long long
headPacket(const std::string& doc, const InputVcName& v)
{
    constexpr std::string_view kFlits = "\"flits\":[{\"packet\":";
    std::size_t at = doc.find("\"routers\":[");
    for (const std::string& key :
         {"{\"node\":" + std::to_string(v.node) + ",\"inputs\":[",
          "{\"port\":\"" + v.port + "\",\"vcs\":[",
          "{\"vc\":" + std::to_string(v.vc) + ",\"state\":"}) {
        if (at == std::string::npos)
            return -1;
        at = doc.find(key, at);
    }
    if (at == std::string::npos)
        return -1;
    // Without flits the VC's object closes before any flit list.
    const std::size_t flits = doc.find(kFlits, at);
    if (flits == std::string::npos || flits > doc.find('}', at))
        return -1;
    return std::strtoll(doc.c_str() + flits + kFlits.size(), nullptr, 10);
}

} // namespace

SimConfig
replicaRun(const Workload& w, std::size_t run, unsigned replica)
{
    SimConfig cfg = w.runs.at(run);
    cfg.setInt("seed", static_cast<std::int64_t>(replicaSeed(
                           static_cast<std::uint64_t>(cfg.getInt("seed")),
                           replica)));
    for (const char* key : {"timeseries_out", "heatmap_out"})
        cfg.set(key, replicaPath(cfg.getStr(key), replica));
    return cfg;
}

DeadlockRecheck
recheckDeadlock(const SimConfig& run_cfg, const std::string& dump_prefix)
{
    SimConfig cfg = run_cfg;
    cfg.setBool("timeseries", false);
    cfg.setBool("heatmap", false);
    cfg.setBool("dump_on_abort", true);
    const std::int64_t measure = cfg.getInt("measure_cycles");
    std::string docs[2];
    for (int i = 0; i < 2; ++i) {
        cfg.setInt("measure_cycles", measure + i * kDeadlockHoldCycles);
        cfg.set("dump_path", dump_prefix + (i ? ".later.json" : ".end.json"));
        const RunStats stats = runExperiment(cfg);
        if (!stats.stateDumpPath.empty())
            docs[i] = readFile(stats.stateDumpPath);
    }

    DeadlockRecheck out;
    const std::vector<InputVcName> cycle = waitCycle(docs[0]);
    if (cycle.empty()) {
        out.detail = "the re-run to the same cycle reported no wait-for "
                     "cycle";
        return out;
    }
    std::size_t moved = 0;
    for (const InputVcName& v : cycle) {
        if (headPacket(docs[0], v) != headPacket(docs[1], v))
            ++moved;
    }
    out.stands = moved == 0;
    out.detail = std::to_string(moved) + " of the "
        + std::to_string(cycle.size())
        + " VCs on its wait-for cycle took another head packet within "
        + std::to_string(kDeadlockHoldCycles) + " cycles";
    return out;
}

void
addCounters(Router::Counters& into, const Router::Counters& c)
{
    into.vcAllocSuccess += c.vcAllocSuccess;
    into.vcAllocFail += c.vcAllocFail;
    into.puritySum += c.puritySum;
    into.puritySamples += c.puritySamples;
    into.flitsTraversed += c.flitsTraversed;
    for (std::size_t i = 0; i < c.vaGrantsByPriority.size(); ++i)
        into.vaGrantsByPriority[i] += c.vaGrantsByPriority[i];
}

int
nodesOf(const SimConfig& cfg)
{
    return static_cast<int>(cfg.getInt("mesh_width")
                            * cfg.getInt("mesh_height"));
}

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {"sat8", "hotspot8",
                                                   "sat32_sharded"};
    return names;
}

std::optional<Workload>
makeWorkload(const std::string& name, std::uint64_t seed,
             unsigned max_threads, const std::string& out_dir)
{
    Workload w;
    w.name = name;
    // Serial workloads run concurrent replicas on half the cores: with
    // a replica on every core of a shared 4-vCPU VM, repeated hotspot8
    // runs at one seed spread 0.16 (quartile distance / median), and
    // 0.07 with two replicas.
    const unsigned half = std::max(1u, max_threads / 2);
    if (name == "sat8") {
        w.replicas = half;
        for (const char* routing : kRoutings) {
            SimConfig cfg = baseConfig(seed, 8, 8);
            cfg.set("routing", routing);
            cfg.setDouble("injection_rate", 0.45);
            setPhases(cfg, kSat8);
            w.runs.push_back(cfg);
        }
    } else if (name == "hotspot8") {
        w.replicas = half;
        w.observed = true;
        for (const char* routing : {"footprint", "dbar"}) {
            // examples/configs/hotspot.cfg, with the phases replaced.
            SimConfig cfg = baseConfig(seed, 8, 8);
            cfg.set("routing", routing);
            cfg.set("traffic", "hotspot");
            cfg.setDouble("injection_rate", 0.45);
            cfg.setDouble("background_rate", 0.30);
            setPhases(cfg, kHotspot);
            const std::string stem = out_dir + "/hotspot8." + routing;
            cfg.setBool("timeseries", true);
            cfg.set("timeseries_out", stem + ".timeseries.jsonl");
            cfg.setBool("heatmap", true);
            cfg.set("heatmap_out", stem + ".heatmap.json");
            cfg.setBool("audit", true);
            w.runs.push_back(cfg);
        }
    } else if (name == "sat32_sharded") {
        // Half the cores: every shard waits at each cycle's barriers for
        // the slowest crew thread, so on a shared host a crew on every
        // core stalls whenever anything else runs. On a 4-vCPU VM the
        // median window rate of repeated runs moved by +-35% with 4
        // threads and by +-4% with 2, over the same minutes.
        w.workers = half;
        w.windowCycles = kSat32Window;
        w.runs.push_back(sat32Config(seed, w.workers));
    } else {
        return std::nullopt;
    }
    return w;
}

UnitResult
runUnit(const Workload& w, const UnitOptions& opt)
{
    // One task per replica; a context with one job runs it inline.
    const unsigned replicas = std::max(opt.replicas, 1u);
    std::vector<std::function<UnitResult()>> tasks;
    for (unsigned r = 0; r < replicas; ++r) {
        tasks.push_back([&w, &opt, r]() {
            UnitResult part;
            runExperiments(w, opt, r, part);
            return part;
        });
    }
    ExecContext ctx(replicas);
    UnitResult out;
    for (const UnitResult& part : ctx.map(std::move(tasks))) {
        out.wallSeconds += part.wallSeconds;
        out.routerCycles += part.routerCycles;
        out.flitHops += part.flitHops;
        out.windowRates.insert(out.windowRates.end(),
                               part.windowRates.begin(),
                               part.windowRates.end());
        out.runSignatures.insert(out.runSignatures.end(),
                                 part.runSignatures.begin(),
                                 part.runSignatures.end());
        out.stallClasses.insert(out.stallClasses.end(),
                                part.stallClasses.begin(),
                                part.stallClasses.end());
        if (out.model.empty())
            out.model = part.model;
        addCounters(out.counters, part.counters);
        out.attempted += part.attempted;
        out.failures.insert(out.failures.end(), part.failures.begin(),
                            part.failures.end());
        out.profilePaths.insert(out.profilePaths.end(),
                                part.profilePaths.begin(),
                                part.profilePaths.end());
    }
    return out;
}

std::uint64_t
runSignature(const RunStats& s)
{
    Fnv1a h;
    h.mix(static_cast<std::uint64_t>(s.cyclesRun));
    h.mix(s.measuredCreated);
    h.mix(s.measuredEjected);
    h.mix(static_cast<std::uint64_t>(s.drained));
    h.mix(s.latency.count());
    h.mix(s.latency.sum());
    h.mix(s.latencyHdr.percentile(0.99));
    h.mix(s.hotspotLatency.count());
    h.mix(s.hotspotLatency.sum());
    h.mix(s.hops.sum());
    h.mix(s.acceptedFlitsPerNodeCycle);
    h.mix(s.counters.vcAllocSuccess);
    h.mix(s.counters.vcAllocFail);
    h.mix(s.counters.flitsTraversed);
    h.mix(s.counters.puritySamples);
    h.mix(s.counters.puritySum);
    for (const std::uint64_t g : s.counters.vaGrantsByPriority)
        h.mix(g);
    h.mix(s.stallClass);
    h.mix(s.auditViolations);
    return h.value();
}

std::pair<std::uint64_t, std::uint64_t>
shardedVsSerialSignatures(std::uint64_t seed, unsigned threads,
                          std::int64_t cycles)
{
    SimConfig sharded = sat32Config(seed, threads);
    setPhases(sharded, Phases{0, cycles});
    SimConfig serial = sharded;
    serial.set("step_mode", "activity");
    serial.setInt("threads", 1);
    return {runSignature(runExperiment(sharded)),
            runSignature(runExperiment(serial))};
}

} // namespace perfbench
