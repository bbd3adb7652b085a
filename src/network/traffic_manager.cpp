#include "network/traffic_manager.hpp"

#include <algorithm>
#include <csignal>
#include <memory>
#include <mutex>
#include <optional>
#include <set>

#include "network/network.hpp"
#include "obs/auditor.hpp"
#include "obs/console.hpp"
#include "obs/heatmap.hpp"
#include "obs/profiler.hpp"
#include "obs/run_metadata.hpp"
#include "obs/run_observer.hpp"
#include "obs/state_dump.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "obs/watchdog.hpp"
#include "sim/horizon.hpp"
#include "sim/log.hpp"
#include "sim/rng.hpp"
#include "traffic/injection.hpp"
#include "traffic/pattern.hpp"
#include "traffic/trace.hpp"

namespace footprint {

namespace {

/** Cycles of drain inactivity after which a run is declared saturated. */
constexpr std::int64_t kDrainStallLimit = 2500;

/**
 * Fraction of measured packets that must have ejected by the end of
 * the measurement window for the drain phase to be worth running; a
 * deeply saturated network (huge source backlogs) is reported
 * saturated immediately instead of burning the whole drain budget.
 */
constexpr double kDrainWorthwhileFraction = 0.5;

volatile std::sig_atomic_t g_interrupted = 0;

extern "C" void
sigintFlag(int)
{
    g_interrupted = 1;
}

/**
 * Installs a SIGINT handler that only raises a flag, so a dump-on-abort
 * run can serialize its forensic state before exiting; restores the
 * previous handler once the last concurrent user leaves. Signal
 * dispositions are process-global, so when several sweep jobs run
 * dump_on_abort simultaneously only the first instance installs the
 * handler and only the last restores it (every instance still sees the
 * shared flag fire).
 */
class ScopedSigintFlag
{
  public:
    ScopedSigintFlag()
    {
        std::lock_guard<std::mutex> lock(mutex());
        if (users()++ == 0) {
            g_interrupted = 0;
            savedPrev() = std::signal(SIGINT, sigintFlag);
        }
    }
    ~ScopedSigintFlag()
    {
        std::lock_guard<std::mutex> lock(mutex());
        if (--users() == 0)
            std::signal(SIGINT, savedPrev());
    }

    ScopedSigintFlag(const ScopedSigintFlag&) = delete;
    ScopedSigintFlag& operator=(const ScopedSigintFlag&) = delete;

    static bool fired() { return g_interrupted != 0; }

  private:
    using Handler = void (*)(int);

    static std::mutex&
    mutex()
    {
        static std::mutex m;
        return m;
    }
    static int&
    users()
    {
        static int n = 0;
        return n;
    }
    static Handler&
    savedPrev()
    {
        static Handler h = nullptr;
        return h;
    }
};

} // namespace

TrafficManager::TrafficManager(const SimConfig& cfg) : cfg_(cfg) {}

RunStats
TrafficManager::run()
{
    Network net(cfg_);
    const Topology& topo = net.topology();
    const Mesh& mesh = net.mesh();
    const int n = mesh.numNodes();
    // Synthetic patterns inject per *terminal*: on mesh/torus/ring a
    // terminal is a node, on a cmesh each router hosts `concentration`
    // terminals sharing its endpoint.
    const int num_terminals = topo.numTerminals();

    const RunMetadata meta = RunMetadata::fromConfig(cfg_);

    // Observers (DESIGN.md §20): each is built only when its config
    // key asks for it, and the loop drives them all through one list,
    // in this order. Only reads of network state happen there, so no
    // observer can perturb results. The one order that matters: the
    // watchdog ticks before the recorder, so a window that closes on
    // a detection cycle counts the detection.
    std::vector<std::unique_ptr<RunObserver>> owned;
    std::vector<RunObserver*> observers;
    auto add = [&]<class T>(std::unique_ptr<T> obs) {
        T* raw = obs.get();
        observers.push_back(raw);
        owned.push_back(std::move(obs));
        return raw;
    };

    // Telemetry: an externally attached hub wins; otherwise build one
    // from the config's telemetry_* keys when they enable anything.
    TelemetryHub* hub = externalHub_;
    if (hub) {
        observers.push_back(hub);
    } else if (const TelemetryConfig tc = TelemetryHub::configFromSim(cfg_);
               tc.anyEnabled()) {
        hub = add(std::make_unique<TelemetryHub>(tc));
        hub->setRunMetadata(meta);
    }
    if (hub)
        net.attachTelemetry(*hub);

    // The profiler pointer is the only observer the stepping hot path
    // ever sees; it also times this loop's own phases below.
    Profiler* prof = nullptr;
    if (cfg_.getBool("profile")) {
        prof = add(std::make_unique<Profiler>());
        prof->setReport({cfg_.getStr("profile_out"),
                         cfg_.getStr("traffic") + "/"
                             + cfg_.getStr("routing"),
                         cfg_.getStr("step_mode"),
                         static_cast<int>(cfg_.getInt("threads")), meta});
        net.attachProfiler(prof);
    }
    const HeatmapConfig hm_cfg = HeatmapConfig::fromSim(cfg_);
    if (hm_cfg.enabled)
        add(std::make_unique<HeatmapCollector>(net, hm_cfg, &meta));

    Watchdog* watchdog = nullptr;
    if (cfg_.getBool("audit")) {
        InvariantAuditor::Params ap;
        ap.interval = cfg_.getInt("audit_interval");
        add(std::make_unique<InvariantAuditor>(net, ap));

        Watchdog::Params wp;
        wp.interval = cfg_.getInt("watchdog_interval");
        wp.maxHops = static_cast<int>(cfg_.getInt("watchdog_max_hops"));
        wp.maxAge = cfg_.getInt("watchdog_max_age");
        watchdog = add(std::make_unique<Watchdog>(
            net, hub ? hub->tracer() : nullptr, wp));
    }

    // Flight recorder (DESIGN.md §15): built whenever the stream or
    // warmup=auto needs it.
    const TimeseriesConfig ts_cfg = TimeseriesConfig::fromSim(cfg_);
    FlightRecorder* recorder = nullptr;
    if (ts_cfg.active()) {
        recorder = add(std::make_unique<FlightRecorder>(net, ts_cfg, &meta));
        recorder->setWatchdog(watchdog);
    }

    // Live status line (display-only, rate-limited, off by default).
    std::unique_ptr<RunConsole> console;
    if (cfg_.getBool("console")) {
        console = std::make_unique<RunConsole>(
            static_cast<int>(cfg_.getInt("console_interval_ms")));
    }

    const bool dump_on_abort = cfg_.getBool("dump_on_abort");
    const std::string dump_path = cfg_.getStr("dump_path");
    std::optional<ScopedSigintFlag> sigint_guard;
    if (dump_on_abort)
        sigint_guard.emplace();

    const std::string mode = cfg_.getStr("traffic");
    // Under warmup=auto the warmup length is detector-driven: it
    // starts at the warmup_max_cycles cap and shrinks to the cycle at
    // which the steady-state detector converges. The detector only
    // consumes bit-identical window records, so the chosen warmup —
    // and everything downstream of it — is identical across step
    // modes and thread counts.
    std::int64_t warmup = cfg_.getInt("warmup_cycles");
    if (ts_cfg.warmupAuto)
        warmup = ts_cfg.warmupMax;
    const auto measure = cfg_.getInt("measure_cycles");
    const auto drain_limit = cfg_.getInt("drain_cycles");
    const bool skip_ahead = cfg_.getBool("skip_ahead");
    const double rate = cfg_.getDouble("injection_rate");
    const PacketSizeDist size_dist =
        PacketSizeDist::parse(cfg_.getStr("packet_size"));
    Rng gen(static_cast<std::uint64_t>(cfg_.getInt("seed"))
            ^ 0x7a43f00d5eedULL);

    RunStats stats;
    stats.offeredFlitsPerNodeCycle = rate;

    // --- Per-mode setup. ---
    // Synthetic modes drive injection through an InjectionSchedule:
    // geometric inter-arrival gaps drawn per fire event instead of a
    // Bernoulli trial per node per cycle. Same process in
    // distribution, O(fires) instead of O(nodes × cycles), and —
    // crucially for the skip-ahead fast path — the schedule knows the
    // exact next-arrival cycle, and its RNG consumption is tied to
    // fire events so skipping idle cycles cannot shift any draw.
    std::unique_ptr<TrafficPattern> pattern;
    std::unique_ptr<TrafficPattern> background_pattern;
    std::unique_ptr<InjectionSchedule> sched;
    std::unique_ptr<InjectionSchedule> hs_sched;
    std::unique_ptr<InjectionSchedule> bg_sched;
    std::vector<std::pair<int, int>> hotspot_flows;
    std::set<int> hotspot_sources;
    std::vector<int> bg_nodes;  ///< non-hotspot sources, slot order
    std::unique_ptr<TraceReader> trace;
    std::optional<TraceEvent> pending;

    const bool is_trace = mode == "trace";
    const bool is_hotspot = mode == "hotspot";
    if (is_trace) {
        trace = std::make_unique<TraceReader>(cfg_.getStr("trace_file"));
        pending = trace->next();
    } else if (is_hotspot) {
        hotspot_flows = defaultHotspotFlows(mesh);
        for (const auto& flow : hotspot_flows)
            hotspot_sources.insert(flow.first);
        const double bg_rate = cfg_.contains("background_rate")
            ? cfg_.getDouble("background_rate")
            : 0.3;
        background_pattern = makeTrafficPattern("uniform", mesh);
        for (int node = 0; node < n; ++node) {
            if (hotspot_sources.count(node) == 0)
                bg_nodes.push_back(node);
        }
        if (!hotspot_flows.empty())
            hs_sched = std::make_unique<InjectionSchedule>(
                static_cast<int>(hotspot_flows.size()),
                rate / size_dist.mean(), gen);
        if (!bg_nodes.empty())
            bg_sched = std::make_unique<InjectionSchedule>(
                static_cast<int>(bg_nodes.size()),
                bg_rate / size_dist.mean(), gen);
    } else {
        pattern = makeTrafficPattern(mode, topo);
        sched = std::make_unique<InjectionSchedule>(
            num_terminals, rate / size_dist.mean(), gen);
    }

    std::uint64_t next_packet_id = 1;
    auto make_packet = [&](int src, int dest, int size,
                           std::int64_t cycle, FlowClass fc,
                           bool measured) {
        Packet p;
        p.id = next_packet_id++;
        p.src = src;
        p.dest = dest;
        p.size = size;
        p.createTime = cycle;
        p.flowClass = fc;
        p.measured = measured;
        if (measured)
            ++stats.measuredCreated;
        if (recorder)
            recorder->onOffered(size);
        net.endpoint(src).enqueue(p);
    };

    // --- Main loop. ---
    std::uint64_t flits_at_measure_start = 0;
    std::uint64_t flits_at_measure_end = 0;
    std::int64_t trace_end_cycle = -1;
    std::int64_t last_progress_cycle = 0;
    std::int64_t cycle = 0;
    std::int64_t hard_limit = warmup + measure + drain_limit;
    // Collect-loop scratch; capacity warms up once, then the per-cycle
    // drain is allocation-free.
    std::vector<EjectedPacket> drained;

    const char* abort_reason = nullptr;

    // End of run, the same on a clean exit and on a panic.
    auto finish_observers = [&] {
        if (console)
            console->close();
        stats.cyclesRun = cycle;
        stats.saturated = !stats.drained;
        stats.warmupUsed = warmup;
        for (RunObserver* o : observers)
            o->finish(cycle, stats);
    };
    auto write_dump = [&](std::string reason,
                          const Watchdog::Report* stall) {
        StateDumpContext ctx;
        ctx.cycle = cycle;
        ctx.reason = std::move(reason);
        ctx.meta = &meta;
        ctx.stall = stall;
        for (const RunObserver* o : observers)
            o->annotateDump(ctx);
        return dumpStateToFile(dump_path, net, ctx);
    };

    if (hub)
        hub->beginPhase("warmup", 0);
    if (prof)
        prof->beginRun();
    try {
    for (; cycle < hard_limit; ++cycle) {
        const bool measuring = cycle >= warmup
            && cycle < warmup + measure;
        if (hub) {
            if (cycle == warmup)
                hub->beginPhase("measure", cycle);
            else if (cycle == warmup + measure)
                hub->beginPhase("drain", cycle);
        }

        // Generate traffic.
        const std::uint64_t inject_t0 = prof ? Profiler::nowNs() : 0;
        if (is_trace) {
            while (pending && pending->cycle <= cycle) {
                // Trace events carry their own packet size.
                make_packet(pending->src, pending->dest, pending->size,
                            cycle, FlowClass::Background, true);
                pending = trace->next();
            }
            if (!pending && trace_end_cycle < 0)
                trace_end_cycle = cycle;
        } else if (is_hotspot) {
            // Per fire: draws in a fixed order (dest where applicable,
            // size, next gap), so the RNG sequence depends only on the
            // fire events — never on how many idle cycles elapsed.
            if (hs_sched) {
                for (int slot; (slot = hs_sched->popDue(cycle)) >= 0;) {
                    const auto& flow =
                        hotspot_flows[static_cast<std::size_t>(slot)];
                    const int size = size_dist.sample(gen);
                    hs_sched->scheduleNext(slot, cycle, gen);
                    make_packet(flow.first, flow.second, size, cycle,
                                FlowClass::Hotspot, false);
                }
            }
            if (bg_sched) {
                for (int slot; (slot = bg_sched->popDue(cycle)) >= 0;) {
                    const int node =
                        bg_nodes[static_cast<std::size_t>(slot)];
                    const int dest = background_pattern->dest(node, gen);
                    const int size = size_dist.sample(gen);
                    bg_sched->scheduleNext(slot, cycle, gen);
                    if (dest >= 0) {
                        make_packet(node, dest, size, cycle,
                                    FlowClass::Background, measuring);
                    }
                }
            }
        } else {
            // Slots are terminals; packets travel router-to-router, so
            // map terminal ids down before enqueueing (identity when
            // concentration == 1). Intra-router cmesh traffic injects
            // with src == dest and turns around at the local port.
            for (int slot; (slot = sched->popDue(cycle)) >= 0;) {
                const int dest = pattern->dest(slot, gen);
                const int size = size_dist.sample(gen);
                sched->scheduleNext(slot, cycle, gen);
                if (dest >= 0) {
                    make_packet(topo.terminalRouter(slot),
                                topo.terminalRouter(dest), size, cycle,
                                FlowClass::Background, measuring);
                }
            }
        }
        if (prof) {
            prof->addPhaseNs(ProfPhase::Inject,
                             Profiler::nowNs() - inject_t0);
        }

        if (cycle == warmup) {
            net.resetCounters();
            if (recorder)
                recorder->onCountersReset();
            for (int node = 0; node < n; ++node) {
                flits_at_measure_start +=
                    net.endpoint(node).flitsEjected();
            }
        }

        net.step(cycle);

        // Collect completions.
        const std::uint64_t collect_t0 = prof ? Profiler::nowNs() : 0;
        for (int node = 0; node < n; ++node) {
            if (net.endpoint(node).ejectedCount() == 0)
                continue;
            drained.clear();
            net.endpoint(node).drainEjectedInto(drained);
            for (const EjectedPacket& p : drained) {
                if (recorder)
                    recorder->onEjected(p.latency());
                if (p.flowClass == FlowClass::Hotspot) {
                    stats.hotspotLatency.add(
                        static_cast<double>(p.latency()));
                    stats.hotspotLatencyHdr.add(
                        static_cast<std::uint64_t>(p.latency()));
                }
                if (!p.measured)
                    continue;
                ++stats.measuredEjected;
                last_progress_cycle = cycle;
                stats.latency.add(static_cast<double>(p.latency()));
                stats.latencyHdr.add(
                    static_cast<std::uint64_t>(p.latency()));
                stats.hops.add(static_cast<double>(p.hops));
            }
        }
        if (prof) {
            prof->addPhaseNs(ProfPhase::Collect,
                             Profiler::nowNs() - collect_t0);
        }

        // Observers tick after the collect loop, so a recorder window
        // that closes here sees the cycle's ejections in both its
        // latency histogram and its accepted-flit delta.
        for (RunObserver* o : observers)
            o->tick(cycle);
        if (watchdog && watchdog->deadlockDetected()) {
            // A cyclic wait-for dependency never resolves; abort now
            // so the forensic dump captures the cycle intact.
            abort_reason = "deadlock";
            ++cycle;
            break;
        }
        if (sigint_guard && ScopedSigintFlag::fired()) {
            abort_reason = "sigint";
            ++cycle;
            break;
        }
        // warmup=auto: end warmup at the first steady window.
        if (recorder && ts_cfg.warmupAuto && cycle + 1 < warmup
            && recorder->detector().converged()) {
            warmup = cycle + 1;
            hard_limit = warmup + measure + drain_limit;
        }
        if (console) {
            const char* phase = cycle < warmup ? "warmup"
                : cycle < warmup + measure     ? "measure"
                                               : "drain";
            const WindowRecord* last = recorder
                    && !recorder->windows().empty()
                ? &recorder->windows().back()
                : nullptr;
            console->updateRun(cycle, hard_limit, phase, last, n);
        }

        if (cycle == warmup + measure - 1) {
            stats.counters = net.aggregateCounters();
            flits_at_measure_end = 0;
            for (int node = 0; node < n; ++node) {
                flits_at_measure_end +=
                    net.endpoint(node).flitsEjected();
            }
            // Deeply saturated (most measured packets still stuck in
            // source queues): draining would take unbounded time, so
            // report saturation right away.
            if (!is_trace
                && static_cast<double>(stats.measuredEjected)
                    < kDrainWorthwhileFraction
                        * static_cast<double>(stats.measuredCreated)) {
                ++cycle;
                break;
            }
        }

        // Termination: all measured packets drained.
        const bool gen_done = is_trace
            ? (!pending && cycle >= warmup + measure)
            : (cycle >= warmup + measure);
        if (gen_done && stats.measuredEjected >= stats.measuredCreated) {
            stats.drained = true;
            ++cycle;
            break;
        }
        // Saturation heuristic: no measured packet completed for a
        // long stretch of the drain phase.
        if (gen_done && cycle - std::max(last_progress_cycle,
                                         warmup + measure)
                > kDrainStallLimit) {
            break;
        }

        // --- Event-horizon fast path (DESIGN.md §16). ---
        // A fully quiescent network cannot change state until an
        // external event: fold every upcoming event cycle into a
        // horizon and jump the clock there in one step. Every
        // observer's due cycle clamps the horizon, and every observer
        // is then caught up to horizon-1 on the frozen pre-landing
        // state, before the landing cycle steps (DESIGN.md §20). The
        // drain-stall heuristic needs no clamp: idle + generation done
        // implies fully drained, which already broke out above.
        if (skip_ahead) {
            ProfileScope skip_ps(prof, ProfPhase::Skip);
            if (net.idle()) {
                HorizonTracker hz(cycle + 1, hard_limit);
                if (is_trace) {
                    if (pending)
                        hz.clamp(pending->cycle);
                } else {
                    if (sched)
                        hz.clamp(sched->nextFireCycle());
                    if (hs_sched)
                        hz.clamp(hs_sched->nextFireCycle());
                    if (bg_sched)
                        hz.clamp(bg_sched->nextFireCycle());
                }
                hz.clamp(warmup);
                hz.clamp(warmup + measure - 1);
                hz.clamp(warmup + measure);
                for (const RunObserver* o : observers)
                    hz.clamp(o->nextDueCycle());
                if (hz.skips()) {
                    const std::int64_t target = hz.cycle();
                    net.skipTo(target);
                    stats.cyclesSkipped += target - (cycle + 1);
                    for (RunObserver* o : observers)
                        o->tick(target - 1);
                    cycle = target - 1;
                }
            }
        }
    }
    } catch (const InvariantError& e) {
        // A violated runtime invariant: close every observer (each
        // writes its artifact), write the forensic dump, and let the
        // error propagate.
        finish_observers();
        if (dump_on_abort)
            write_dump(std::string("panic: ") + e.what(), nullptr);
        throw;
    }
    finish_observers();

    // Classify any non-drained exit, even when the watchdog was off:
    // the one-shot wait-for-graph pass distinguishes a true deadlock
    // from endpoint tree saturation at negligible cost.
    Watchdog::Report stall;
    if (!stats.drained) {
        stall = Watchdog(net, nullptr, Watchdog::Params{}).classify(cycle);
        stats.stallClass = Watchdog::stallClassName(stall.stallClass);
    }

    // Forensic dump: invariant violation, watchdog detection, SIGINT,
    // or any abort short of a clean drain.
    if (dump_on_abort) {
        std::string reason;
        if (abort_reason)
            reason = abort_reason;
        else if (stats.auditViolations > 0)
            reason = "invariant_violation";
        else if (!stats.drained)
            reason = cycle >= hard_limit ? "hard_limit" : "saturation";
        if (!reason.empty()
            && write_dump(reason, stats.drained ? nullptr : &stall))
            stats.stateDumpPath = dump_path;
    }
    if (measure > 0 && flits_at_measure_end >= flits_at_measure_start) {
        // Normalized per terminal (== per node except on a cmesh), the
        // same basis as the offered rate.
        stats.acceptedFlitsPerNodeCycle =
            static_cast<double>(flits_at_measure_end
                                - flits_at_measure_start)
            / (static_cast<double>(num_terminals)
               * static_cast<double>(measure));
    }

    return stats;
}

RunStats
runExperiment(const SimConfig& cfg)
{
    TrafficManager tm(cfg);
    return tm.run();
}

} // namespace footprint
