/**
 * @file
 * Full network assembly: routers, endpoints, channels, and the
 * side-band status network, stepped one cycle at a time.
 */

#ifndef FOOTPRINT_NETWORK_NETWORK_HPP
#define FOOTPRINT_NETWORK_NETWORK_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "exec/spin_barrier.hpp"
#include "sim/active_set.hpp"
#include "network/endpoint.hpp"
#include "network/link_fabric.hpp"
#include "router/packet_pool.hpp"
#include "router/router.hpp"
#include "sim/config.hpp"
#include "topo/topology.hpp"

namespace footprint {

class Profiler;
class TelemetryHub;

/**
 * Per-router status table: routers publish idle-VC counts during
 * their transmit phase; neighbors read during the compute phase.
 * Because every compute phase of a cycle completes before any
 * transmit phase begins, a read always observes the previous cycle's
 * publishes — the one-cycle-delayed side-band network DBAR assumes —
 * without double buffering. A router whose state did not change
 * (quiescent under activity-driven stepping) may skip publishing: its
 * stored counts are already current.
 */
class StatusBoard : public StatusProvider
{
  public:
    void init(int num_nodes);

    /** Publish @p count for (node, port); call in the transmit phase. */
    void publish(int node, int port, int count);

    int idleCount(int node, int port) const override;

  private:
    std::vector<std::array<int, kNumPorts>> counts_;
};

/**
 * Flags of Network::step's one phase path (DESIGN.md §12): every mode
 * steps the woken components of each shard through the same phases.
 */
enum class StepMode {
    Full,      ///< wake every router and endpoint every cycle
    Activity,  ///< step only woken components, on one thread
    Verify,    ///< full, asserting no pending component was unwoken
    Sharded,   ///< activity, shards split over a crew of threads
};

/**
 * A 2D-mesh network of routers and endpoints built from a SimConfig.
 *
 * Per cycle (step): routers and endpoints run their receive phase,
 * then their compute phase, then routers transmit into links. The
 * phase structure makes the simulation independent of iteration order
 * and hence deterministic.
 *
 * Only woken components are visited: a component is woken for cycle
 * t+1 when it still has pending work after cycle t (buffered flits,
 * queued packets, or in-flight pipe entries) or when a neighbor sends
 * into one of its incoming pipes. Stepping a quiescent component is
 * observationally a no-op, so results are bit-identical to "full"
 * stepping, which wakes everything every cycle; "verify" does the
 * same while panicking if a component left unwoken reports pending
 * work (see DESIGN.md §12).
 *
 * Every mode runs one step body over a list of node-band shards (one
 * shard outside "sharded"). Under "sharded" a crew of `threads`
 * members steps the shards in parallel: the calling thread is member
 * 0, and the others are threads that live as long as the Network and
 * park on the phase barrier between cycles (DESIGN.md §13).
 */
class Network
{
  public:
    explicit Network(const SimConfig& cfg);
    /** Stops and joins the shard crew. */
    ~Network();

    // The crew holds `this`, so a Network never moves.
    Network(const Network&) = delete;
    Network& operator=(const Network&) = delete;

    /** Advance the whole network by one cycle. */
    void step(std::int64_t cycle);

    /**
     * @return true if the network is fully quiescent: no component has
     * pending work, which (because every pipe feeds some component's
     * pending-work check) implies no flit or credit is in flight and
     * no buffer holds anything. Stepping an idle network any number of
     * cycles is an exact no-op, so the driver may skipTo() an event
     * horizon instead. Meaningful between steps, never during one.
     */
    bool idle() const;

    /**
     * Jump the clock over a quiescent span: record that the network
     * has (conceptually) been stepped through every cycle strictly
     * before @p cycle, so the next step(cycle) is treated as
     * contiguous. Caller must ensure idle() — FP_ASSERTed here —
     * because skipped cycles are replayed as nothing at all.
     */
    void skipTo(std::int64_t cycle);

    /**
     * Earliest arrival cycle over every flit and credit channel, or
     * Pipe::kNoArrival: one branch-light pass over the fabric's flat
     * head-arrival lane. Diagnostic/test aid for the horizon
     * invariant — the skip fast path itself only runs when idle()
     * proves all channels empty.
     */
    std::int64_t nextLinkArrivalCycle() const;

    /** The flat link/credit fabric (DESIGN.md §17). */
    const LinkFabric& linkFabric() const { return fabric_; }

    StepMode stepMode() const { return stepMode_; }

    /** Descriptor pool backing Flit::desc for in-flight packets. */
    PacketPool& packetPool() { return pool_; }
    const PacketPool& packetPool() const { return pool_; }

    /** The topology this network was built from (DESIGN.md §18). */
    const Topology& topology() const { return topo_; }
    /** The topology's coordinate grid (row-major node numbering). */
    const Mesh& mesh() const { return topo_.grid(); }
    const RoutingAlgorithm& routing() const { return *routing_; }
    const RouterParams& routerParams() const { return params_; }

    Router& router(int node) { return *routers_[idx(node)]; }
    const Router& router(int node) const { return *routers_[idx(node)]; }
    Endpoint& endpoint(int node) { return *endpoints_[idx(node)]; }
    const Endpoint& endpoint(int node) const
    {
        return *endpoints_[idx(node)];
    }

    /** Flits anywhere in the system (buffers, FIFOs, links, sinks). */
    std::int64_t totalFlitsInFlight() const;

    /** Sum of all routers' event counters. */
    Router::Counters aggregateCounters() const;

    /** Reset all routers' event counters. */
    void resetCounters();

    /**
     * Register this network's probes with @p hub and wire its packet
     * tracer into every router and endpoint. Registers network-wide
     * aggregate channels always, and per-router / per-endpoint
     * channels when the hub's config asks for them (see DESIGN.md
     * "Observability" for the channel name schema). No-op on a
     * disabled hub.
     */
    void attachTelemetry(TelemetryHub& hub);

    /** Flits ever sent on any flit channel (links + endpoint links). */
    std::uint64_t totalFlitsSent() const;

    /**
     * Attach a self-profiler: subsequent step() calls attribute wall
     * time to the drain/compute/transmit/epilogue phases and, under
     * sharded stepping, to per-shard busy time and barrier waits (see
     * DESIGN.md §14). A null or disabled profiler detaches — the hot
     * path then pays exactly one never-taken branch per phase.
     * Profiling reads the clock but never simulation state, so results
     * are bit-identical with or without it, in every step mode.
     */
    void attachProfiler(Profiler* profiler);

    /** Node-band shards the step body runs over (1 unless sharded). */
    int shardCount() const
    {
        return static_cast<int>(shards_.size());
    }

    /**
     * One directed link: the forward flit channel and its backward
     * credit channel. Port fields are meaningful only on router ends
     * (-1 on endpoint ends). Built once at construction for the
     * auditor's per-link credit-conservation walk and state dumps.
     */
    struct LinkRecord
    {
        enum class Kind {
            RouterToRouter,
            RouterToEndpoint,  ///< ejection link into the sink
            EndpointToRouter,  ///< injection link from the source
        };

        Kind kind = Kind::RouterToRouter;
        int srcNode = -1;
        int srcPort = -1;  ///< output port at src
        int dstNode = -1;
        int dstPort = -1;  ///< input port at dst
        FlitChannel* flit = nullptr;
        CreditChannel* credit = nullptr;
        std::size_t flitId = 0;    ///< fabric flit-channel id
        std::size_t creditId = 0;  ///< fabric credit-channel id
    };

    const std::vector<LinkRecord>& links() const { return links_; }

    /** Flits ever injected across all endpoints. */
    std::uint64_t totalFlitsInjected() const;

    /** Flits ever ejected (drained from sinks) across all endpoints. */
    std::uint64_t totalFlitsEjected() const;

  private:
    static std::size_t idx(int node)
    {
        return static_cast<std::size_t>(node);
    }

    // Component ids on the active list: router of node k is 2k, its
    // endpoint 2k+1 (dense, so the sorted active list reproduces full
    // stepping's node order).
    static int routerComp(int node) { return 2 * node; }
    static int endpointComp(int node) { return 2 * node + 1; }

    void buildWakeGraph();
    void buildShards(int threads, int shards);
    bool componentHasPendingWork(int comp) const;
    void phaseReceive(const std::vector<int>& comps,
                      std::int64_t cycle);
    void phaseCompute(const std::vector<int>& comps,
                      std::int64_t cycle);
    void phaseTransmit(const std::vector<int>& comps,
                       std::int64_t cycle);
    void rescheduleAfterStep(const std::vector<int>& comps);
    void checkWakeups(std::int64_t cycle) const;
    void crewLoop(int member);
    void runMember(int member, std::int64_t cycle);
    template <typename Fn> void forMemberShards(int member, Fn&& fn);
    void barrierArrive(int member, bool timed);
    void finishStep();

    Topology topo_;
    RouterParams params_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    StatusBoard status_;
    PacketPool pool_;
    std::vector<std::unique_ptr<Router>> routers_;
    std::vector<std::unique_ptr<Endpoint>> endpoints_;
    /** Every link pipe + the flat lanes behind the batched queries. */
    LinkFabric fabric_;
    /** Outgoing flit channels per node (router outputs incl. local). */
    std::vector<std::vector<const FlitChannel*>> nodeOutChannels_;
    std::vector<LinkRecord> links_;

    // Activity-driven stepping state. The wake graph maps each
    // component to its outgoing pipes and the component on their far
    // end: after a component's cycle, any non-empty outgoing pipe
    // wakes its receiver (credits flow opposite to their link's flit
    // direction, hence separate lists).
    StepMode stepMode_ = StepMode::Activity;
    ActiveSet active_;
    std::int64_t lastCycle_ = 0;
    bool haveStepped_ = false;

    // Shards and the crew that steps them (DESIGN.md §13). The mesh is
    // partitioned into spatially contiguous node bands; each shard
    // owns the routers *and* endpoints of its band, so a shard id
    // range is a contiguous component id range. Crew member m steps
    // its own contiguous run of shards through barrier-aligned phases.
    struct Shard
    {
        int compBegin = 0;         ///< first component id (inclusive)
        int compEnd = 0;           ///< one past the last component id
        std::vector<int> active;   ///< this cycle's drained wake list
    };

    int threads_ = 1;              ///< config "threads"
    /** Members per step: the barrier's parties, or 1 with a tracer. */
    int members_ = 1;
    std::vector<Shard> shards_;
    SpinBarrier barrier_;
    // Written by member 0 before the start-of-cycle barrier.
    std::int64_t crewCycle_ = 0;
    bool crewStop_ = false;
    std::exception_ptr shardError_;
    std::mutex shardErrMutex_;
    std::atomic<bool> shardFailed_{false};

    /** Self-profiler; null (the common case) skips all timing. */
    Profiler* profiler_ = nullptr;

    /**
     * Members 1.. (member 0 is the thread calling step()). Declared
     * last: the crew uses every member above.
     */
    std::vector<std::thread> crew_;
};

} // namespace footprint

#endif // FOOTPRINT_NETWORK_NETWORK_HPP
