/**
 * @file
 * The benchmark's workloads and the unit of work it times.
 *
 * A workload is a fixed list of simulations run through the
 * simulator's public entry point, TrafficManager::run(). One *unit*
 * runs the whole list once; the benchmark times units back to back and
 * reports medians. Inputs depend only on the workload name and the
 * --seed argument.
 */
#ifndef FOOTPRINT_PERFBENCH_WORKLOADS_HPP
#define FOOTPRINT_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "network/traffic_manager.hpp"
#include "sim/config.hpp"

namespace perfbench {

class Tracer;

/** Simulated results of one routing algorithm within one unit. */
struct ModelStats
{
    std::uint64_t signature = 0;     ///< FNV-1a over every result
    double latencyAvg = 0.0;         ///< cycles
    double latencyP99 = 0.0;         ///< cycles
    double accepted = 0.0;           ///< flits/node/cycle
};

/** Everything one timed unit produced. */
struct UnitResult
{
    /**
     * Host seconds of the measurement windows, summed over runs and
     * concurrent replicas. Warm-up cycles are not timed.
     */
    double wallSeconds = 0.0;
    double routerCycles = 0.0;  ///< sum of nodes x measured cycles
    double flitHops = 0.0;      ///< crossbar traversals, same cycles
    /** Router-cycles per second of each timing window (windowed runs). */
    std::vector<double> windowRates;
    /** One signature per run, in workload order. */
    std::vector<std::uint64_t> runSignatures;
    /**
     * End-of-run stall class of each run (RunStats::stallClass), in
     * the order of runSignatures.
     */
    std::vector<std::string> stallClasses;
    std::map<std::string, ModelStats> model;  ///< by routing
    /** Aggregate router counters of the unit's measurement windows. */
    footprint::Router::Counters counters;
    std::uint64_t attempted = 0;  ///< correctness checks made
    std::vector<std::string> failures;
    std::vector<std::string> profilePaths;  ///< profiled runs only
};

struct Workload
{
    std::string name;
    /**
     * runExperiment configurations, run in order. Each starts from an
     * empty network, runs an untimed warm-up until the network is full,
     * then a timed measurement window, and no drain.
     */
    std::vector<footprint::SimConfig> runs;
    /** Stepping threads of each run (sharded workload). */
    unsigned workers = 1;
    /**
     * Cycles per timing window, or 0 to time each measurement window
     * as a whole. With windows, the rate metrics are medians over every
     * window of every unit instead of over units: a workload whose
     * unit is one long run gets many samples per run. Workloads with
     * periodic observer work (the auditor runs every 1000 cycles) or
     * with several routings per unit time whole units instead, since a
     * median over windows would drop the periodic cost or pick one
     * routing's speed.
     */
    std::int64_t windowCycles = 0;
    /**
     * Concurrent copies of the run list in a timed unit (serial
     * workloads). Each copy runs on its own thread and is timed on its
     * own; on a shared host a single serial run tracks one core's
     * speed drift, while the copies average it over several cores.
     * Copy r > 0 runs at a seed derived from the workload's (see
     * replicaSeed() in workloads.cpp), so a unit also averages the
     * simulated work over as many seeds.
     */
    unsigned replicas = 1;
    /**
     * Runs with the auditor and watchdog on, whose findings are
     * checked (see checkDeadlocks() in main.cpp for the deadlock one).
     */
    bool observed = false;
};

/** Names of every workload, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/**
 * Build workload @p name for @p seed, with at most @p max_threads
 * threads and observer artifacts under @p out_dir; nullopt for
 * unknown names.
 */
std::optional<Workload> makeWorkload(const std::string& name,
                                     std::uint64_t seed,
                                     unsigned max_threads,
                                     const std::string& out_dir);

/** Options of one unit. */
struct UnitOptions
{
    /**
     * Run every simulation with profile=true, writing one
     * footprint.profile/1 document per run to profilePrefix + index.
     */
    bool profile = false;
    std::string profilePrefix;
    /**
     * Concurrent copies of the run list (Workload::replicas for timed
     * units; 1 in the traced run, whose spans are single-threaded).
     */
    unsigned replicas = 1;
    /** Optional span recorder. */
    Tracer* tracer = nullptr;
};

/**
 * Configuration of run @p run of @p w as replica @p replica runs it:
 * at the replica's seed, with per-replica observer artifact paths.
 */
footprint::SimConfig replicaRun(const Workload& w, std::size_t run,
                                unsigned replica);

/** Run @p w once and check its outputs. */
UnitResult runUnit(const Workload& w, const UnitOptions& opt);

/** What recheckDeadlock() found. */
struct DeadlockRecheck
{
    /** The reported deadlock could not be refuted. */
    bool stands = true;
    std::string detail;  ///< what was compared, for people
};

/**
 * Re-examine the "deadlock" stall class that TrafficManager reported at
 * the end of @p cfg's run. The class comes from one snapshot of the
 * wait-for graph, taken while the saturated network keeps moving; a
 * real deadlock never moves again. The run is repeated twice with a
 * forensic state dump (written to @p dump_prefix + ".end.json" and
 * ".later.json"): once to the same final cycle, once
 * kDeadlockHoldCycles cycles longer. The deadlock is refuted when a VC
 * on the wait-for cycle the first dump reports holds another head
 * packet in the second; it stands otherwise, also when the first re-run
 * does not report it again.
 */
DeadlockRecheck recheckDeadlock(const footprint::SimConfig& cfg,
                                const std::string& dump_prefix);

/** Fold @p stats into an FNV-1a signature. */
std::uint64_t runSignature(const footprint::RunStats& stats);

/**
 * Signatures of sat32_sharded's network under sharded and under
 * serial activity stepping at the same seed, on a run shortened to
 * @p cycles. Returns {sharded, serial}.
 */
std::pair<std::uint64_t, std::uint64_t>
shardedVsSerialSignatures(std::uint64_t seed, unsigned threads,
                          std::int64_t cycles);

/** Add every counter of @p c into @p into. */
void addCounters(footprint::Router::Counters& into,
                 const footprint::Router::Counters& c);

/** Nodes of the network @p cfg describes. */
int nodesOf(const footprint::SimConfig& cfg);

} // namespace perfbench

#endif // FOOTPRINT_PERFBENCH_WORKLOADS_HPP
