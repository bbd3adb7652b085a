/**
 * @file
 * Deadlock/livelock watchdog.
 *
 * The watchdog periodically checks that the network is making forward
 * progress. When it is not — or when the driver asks for a post-mortem
 * at a saturated exit — it builds a wait-for graph over input virtual
 * channels and classifies the stall:
 *
 *  - Deadlock: a knot — a set of VCs from which no wait path reaches
 *    a draining resource (a routing-protocol failure; Duato-based
 *    algorithms must never produce one). A mere cycle is not enough:
 *    waits have OR semantics, so an adaptive-layer cycle with an
 *    escape path out resolves.
 *  - TreeSaturation: VCs are blocked, but every one has a wait path
 *    to a draining resource (an ejection port or a moving VC) — the
 *    expected shape of endpoint congestion under hotspot traffic.
 *
 * A per-packet livelock detector rides along: head flits whose hop
 * count or age exceeds a bound are reported, with the packet's hop
 * history when a PacketTracer is attached.
 */

#ifndef FOOTPRINT_OBS_WATCHDOG_HPP
#define FOOTPRINT_OBS_WATCHDOG_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/run_observer.hpp"
#include "router/channel.hpp"

namespace footprint {

class Network;
class PacketTracer;

/**
 * A directed graph over dense node ids with cycle detection; the
 * watchdog's wait-for relation, kept separate so tests can exercise
 * cycle detection on hand-built graphs.
 */
class WaitForGraph
{
  public:
    explicit WaitForGraph(int num_nodes)
        : adj_(static_cast<std::size_t>(num_nodes))
    {}

    int numNodes() const { return static_cast<int>(adj_.size()); }

    void
    addEdge(int from, int to)
    {
        adj_[static_cast<std::size_t>(from)].push_back(to);
        ++numEdges_;
    }

    int numEdges() const { return numEdges_; }

    const std::vector<int>& successors(int node) const
    {
        return adj_[static_cast<std::size_t>(node)];
    }

    /**
     * Find a cycle, returned as the node sequence around it (first
     * node not repeated); empty when the graph is acyclic. When
     * @p within is non-null the search is restricted to that node set.
     */
    std::vector<int> findCycle(
        const std::vector<int>* within = nullptr) const;

    /**
     * Nodes from which no path reaches a drain (a node without
     * outgoing edges), sorted. Wait edges have OR semantics — a VC
     * progresses when ANY resource it waits on frees — so a mere
     * cycle is survivable as long as some alternative leads out (the
     * Duato escape-layer argument); a non-empty unsafe set is a true
     * knot: every wait path from it loops forever.
     */
    std::vector<int> unsafeNodes() const;

  private:
    std::vector<std::vector<int>> adj_;
    int numEdges_ = 0;
};

/** Progress watchdog over a Network. */
class Watchdog final : public RunObserver
{
  public:
    struct Params
    {
        /** Cycles between progress checks; <= 0 disables tick(). */
        std::int64_t interval = 5000;
        /** Livelock hop bound; 0 derives 2*(width+height). */
        int maxHops = 0;
        /** Livelock age bound in cycles; 0 disables the age check. */
        std::int64_t maxAge = 0;
    };

    /** How a non-progressing network is classified. */
    enum class StallClass {
        None,            ///< network is empty or progressing
        TreeSaturation,  ///< blocked VCs, all wait chains drain
        Deadlock,        ///< cyclic wait-for dependency
    };

    static const char* stallClassName(StallClass c);

    /** One watchdog detection (progress stall or livelock suspect). */
    struct Event
    {
        std::string kind;  ///< "deadlock", "tree_saturation", "livelock"
        std::int64_t cycle = 0;
        std::string detail;
    };

    /** Result of a wait-for-graph classification pass. */
    struct Report
    {
        StallClass stallClass = StallClass::None;
        int blockedVcs = 0;       ///< input VCs with a wait edge
        /** A wait cycle inside the knot when Deadlock (node ids). */
        std::vector<int> cycle;
        std::string detail;
    };

    Watchdog(const Network& net, PacketTracer* tracer,
             const Params& params);

    /**
     * Per-cycle hook: a single compare until the interval elapses,
     * then a progress check. No forward progress across a whole
     * interval with flits resident triggers classification and (if
     * bounds are set) the livelock scan.
     */
    void
    tick(std::int64_t cycle) override
    {
        if (params_.interval <= 0 || cycle < nextDue_)
            return;
        check(cycle);
    }

    /**
     * Next cycle at which tick() will run a check (kNever when the
     * watchdog is off); skip-ahead horizon clamp, as for the auditor.
     */
    std::int64_t
    nextDueCycle() const override
    {
        return params_.interval <= 0 ? kNever : nextDue_;
    }

    /** Set RunStats::watchdogEvents. */
    void finish(std::int64_t cycle, RunStats& stats) override;

    /** Point the dump at the recorded events. */
    void annotateDump(StateDumpContext& ctx) const override;

    /**
     * Build the wait-for graph over input VCs and classify the current
     * stall state. Safe to call at any cycle boundary.
     */
    Report classify(std::int64_t cycle) const;

    /**
     * Scan buffered head flits for hop-count/age bound violations.
     * @return number of suspect packets found (also recorded).
     */
    std::size_t scanForLivelock(std::int64_t cycle);

    /** True once a cyclic deadlock has been detected. */
    bool deadlockDetected() const { return deadlockDetected_; }

    const std::vector<Event>& events() const { return events_; }

    /** Effective livelock hop bound after auto-derivation. */
    int maxHops() const { return maxHops_; }

    /** Dense wait-for node id of input VC (node, port, vc). */
    int waitNodeId(int node, int port, int vc) const;

    /** Human-readable "(node, port, vc)" name of a wait-for node id. */
    std::string waitNodeName(int id) const;

  private:
    void check(std::int64_t cycle);
    WaitForGraph buildGraph(int* blocked_vcs) const;

    /**
     * Credits for (node, output port, vc) in flight on the link's
     * credit channel: slots the VC is about to regain, so an
     * instantaneous credit shortfall of that size is pipeline latency,
     * not blockage.
     */
    int creditsInFlight(int node, int port, int vc) const;

    const Network* net_;
    PacketTracer* tracer_;
    Params params_;
    /** Credit channel of each (node, output port); indexed densely. */
    std::vector<const CreditChannel*> creditAt_;
    int maxHops_ = 0;
    std::int64_t nextDue_ = 0;
    std::uint64_t lastWork_ = 0;
    bool deadlockDetected_ = false;
    std::vector<Event> events_;
    std::vector<std::uint64_t> livelockReported_;
};

} // namespace footprint

#endif // FOOTPRINT_OBS_WATCHDOG_HPP
