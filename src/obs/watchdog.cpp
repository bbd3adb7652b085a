#include "obs/watchdog.hpp"

#include <algorithm>
#include <sstream>

#include "network/network.hpp"
#include "network/traffic_manager.hpp"
#include "obs/packet_tracer.hpp"
#include "obs/state_dump.hpp"
#include "routing/routing.hpp"
#include "sim/rng.hpp"

namespace footprint {

std::vector<int>
WaitForGraph::findCycle(const std::vector<int>* within) const
{
    // Iterative colored DFS. Gray nodes are on the current stack; an
    // edge into a gray node closes a cycle, which is read back off the
    // explicit stack.
    enum : std::uint8_t { White, Gray, Black };
    const int n = numNodes();
    std::vector<std::uint8_t> color(static_cast<std::size_t>(n), White);
    if (within) {
        // Everything outside the restriction set is pre-visited.
        color.assign(static_cast<std::size_t>(n), Black);
        for (int node : *within)
            color[static_cast<std::size_t>(node)] = White;
    }
    std::vector<int> stack;       // DFS path (gray nodes, in order)
    std::vector<std::size_t> it;  // per-path-node successor cursor

    for (int root = 0; root < n; ++root) {
        if (color[static_cast<std::size_t>(root)] != White)
            continue;
        stack.assign(1, root);
        it.assign(1, 0);
        color[static_cast<std::size_t>(root)] = Gray;
        while (!stack.empty()) {
            const int node = stack.back();
            const auto& succ = successors(node);
            if (it.back() < succ.size()) {
                const int next = succ[it.back()++];
                const auto ni = static_cast<std::size_t>(next);
                if (color[ni] == Gray) {
                    const auto pos = std::find(stack.begin(),
                                               stack.end(), next);
                    return std::vector<int>(pos, stack.end());
                }
                if (color[ni] == White) {
                    color[ni] = Gray;
                    stack.push_back(next);
                    it.push_back(0);
                }
            } else {
                color[static_cast<std::size_t>(node)] = Black;
                stack.pop_back();
                it.pop_back();
            }
        }
    }
    return {};
}

std::vector<int>
WaitForGraph::unsafeNodes() const
{
    // A node is safe when it can reach a drain: seed with every node
    // that has no outgoing wait (draining or untouched), then flood
    // backwards — any-successor-safe makes the predecessor safe, the
    // OR semantics of multi-resource waits.
    const int n = numNodes();
    std::vector<std::vector<int>> radj(static_cast<std::size_t>(n));
    std::vector<char> safe(static_cast<std::size_t>(n), 0);
    std::vector<int> work;
    for (int u = 0; u < n; ++u) {
        for (int v : adj_[static_cast<std::size_t>(u)])
            radj[static_cast<std::size_t>(v)].push_back(u);
        if (adj_[static_cast<std::size_t>(u)].empty()) {
            safe[static_cast<std::size_t>(u)] = 1;
            work.push_back(u);
        }
    }
    while (!work.empty()) {
        const int v = work.back();
        work.pop_back();
        for (int u : radj[static_cast<std::size_t>(v)]) {
            if (!safe[static_cast<std::size_t>(u)]) {
                safe[static_cast<std::size_t>(u)] = 1;
                work.push_back(u);
            }
        }
    }
    std::vector<int> unsafe;
    for (int u = 0; u < n; ++u) {
        if (!safe[static_cast<std::size_t>(u)])
            unsafe.push_back(u);
    }
    return unsafe;
}

const char*
Watchdog::stallClassName(StallClass c)
{
    switch (c) {
    case StallClass::None: return "none";
    case StallClass::TreeSaturation: return "tree_saturation";
    case StallClass::Deadlock: return "deadlock";
    }
    return "?";
}

Watchdog::Watchdog(const Network& net, PacketTracer* tracer,
                   const Params& params)
    : net_(&net), tracer_(tracer), params_(params)
{
    maxHops_ = params_.maxHops > 0
        ? params_.maxHops
        : 2 * (net.mesh().width() + net.mesh().height());

    // Index each output port's credit-return channel so the wait-for
    // graph can tell "credits in flight" from "downstream full".
    creditAt_.assign(
        static_cast<std::size_t>(net.mesh().numNodes() * kNumPorts),
        nullptr);
    for (const Network::LinkRecord& link : net.links()) {
        if (link.srcPort < 0)
            continue;
        creditAt_[static_cast<std::size_t>(
            link.srcNode * kNumPorts + link.srcPort)] = link.credit;
    }
}

int
Watchdog::creditsInFlight(int node, int port, int vc) const
{
    const CreditChannel* chan =
        creditAt_[static_cast<std::size_t>(node * kNumPorts + port)];
    if (!chan)
        return 0;
    int found = 0;
    chan->forEachInFlight([&](const Credit& c) {
        if (c.vc == vc)
            ++found;
    });
    return found;
}

int
Watchdog::waitNodeId(int node, int port, int vc) const
{
    const int num_vcs = net_->routerParams().numVcs;
    return (node * kNumPorts + port) * num_vcs + vc;
}

std::string
Watchdog::waitNodeName(int id) const
{
    const int num_vcs = net_->routerParams().numVcs;
    const int vc = id % num_vcs;
    const int port = (id / num_vcs) % kNumPorts;
    const int node = id / (num_vcs * kNumPorts);
    std::ostringstream os;
    os << "(n" << node << ", " << dirName(dirOf(port)) << ", vc" << vc
       << ')';
    return os.str();
}

WaitForGraph
Watchdog::buildGraph(int* blocked_vcs) const
{
    const Mesh& mesh = net_->mesh();
    const int n = mesh.numNodes();
    const int num_vcs = net_->routerParams().numVcs;
    const bool atomic = net_->routing().atomicVcAlloc();
    const RoutingAlgorithm& routing = net_->routing();

    WaitForGraph graph(n * kNumPorts * num_vcs);
    int blocked = 0;

    // Per-router scratch: which input VC holds each output VC.
    std::vector<int> holder(
        static_cast<std::size_t>(kNumPorts * num_vcs));

    for (int node = 0; node < n; ++node) {
        const Router& r = net_->router(node);

        holder.assign(holder.size(), -1);
        for (int port = 0; port < kNumPorts; ++port) {
            for (int vc = 0; vc < num_vcs; ++vc) {
                const InputVc& ivc = r.inputVc(port, vc);
                if (ivc.state == InputVc::State::Active
                    && ivc.outPort >= 0) {
                    holder[static_cast<std::size_t>(
                        ivc.outPort * num_vcs + ivc.outVc)] =
                        waitNodeId(node, port, vc);
                }
            }
        }

        for (int port = 0; port < kNumPorts; ++port) {
            for (int vc = 0; vc < num_vcs; ++vc) {
                const InputVc& ivc = r.inputVc(port, vc);
                if (ivc.empty())
                    continue;
                const int self = waitNodeId(node, port, vc);
                const int edges_before = graph.numEdges();

                if (ivc.state == InputVc::State::Active) {
                    // Blocked only when the granted output VC has no
                    // credits AND none are in flight back on the link
                    // (credit-pipeline latency makes a saturated but
                    // flowing stream read credits==0 every cycle); the
                    // output FIFO drains one flit per cycle and is
                    // never a permanent blocker. The wait is on the
                    // downstream input VC freeing a slot. Local-port
                    // ejection sinks always drain, so an ejecting VC
                    // is a chain terminal.
                    if (r.outVcCredits(ivc.outPort, ivc.outVc) == 0
                        && ivc.outPort != portOf(Dir::Local)
                        && creditsInFlight(node, ivc.outPort,
                                           ivc.outVc) == 0) {
                        const int nbr = r.neighborAt(ivc.outPort);
                        const int opp =
                            portOf(opposite(dirOf(ivc.outPort)));
                        graph.addEdge(
                            self, waitNodeId(nbr, opp, ivc.outVc));
                    }
                } else {
                    // Waiting in VC allocation: re-run the (stateless)
                    // routing function to recover the request set,
                    // restoring the router's RNG so the post-mortem
                    // does not perturb tie-break determinism.
                    Rng saved = r.rng();
                    OutputSet set;
                    routing.route(r, ivc.front(), set);
                    r.rng() = saved;

                    const int buf_size =
                        net_->routerParams().vcBufSize;
                    // Under atomic reallocation a free output VC is
                    // grantable once its downstream buffer is empty:
                    // credits held plus credits already on their way
                    // back make up the whole buffer.
                    bool grantable = false;
                    for (const VcRequest& req : set.requests()) {
                        for (int ov = 0; ov < num_vcs; ++ov) {
                            if (((req.vcs >> ov) & 1) == 0)
                                continue;
                            if (!r.outVcBusy(req.port, ov)
                                && (!atomic
                                    || r.outVcCredits(req.port, ov)
                                            + creditsInFlight(
                                                node, req.port, ov)
                                        == buf_size)) {
                                grantable = true;
                            }
                        }
                    }
                    if (!grantable) {
                        for (const VcRequest& req : set.requests()) {
                            for (int ov = 0; ov < num_vcs; ++ov) {
                                if (((req.vcs >> ov) & 1) == 0)
                                    continue;
                                const int h = holder
                                    [static_cast<std::size_t>(
                                        req.port * num_vcs + ov)];
                                if (h >= 0)
                                    graph.addEdge(self, h);
                                else if (atomic
                                         && req.port
                                             != portOf(Dir::Local)
                                         && r.outVcCredits(req.port,
                                                           ov)
                                             < buf_size
                                         && creditsInFlight(node,
                                                            req.port,
                                                            ov)
                                             == 0) {
                                    // Draining VC: atomic realloc
                                    // waits on the downstream buffer
                                    // emptying.
                                    const int nbr =
                                        r.neighborAt(req.port);
                                    const int opp = portOf(opposite(
                                        dirOf(req.port)));
                                    graph.addEdge(
                                        self,
                                        waitNodeId(nbr, opp, ov));
                                }
                            }
                        }
                    }
                }

                if (graph.numEdges() > edges_before)
                    ++blocked;
            }
        }
    }

    if (blocked_vcs)
        *blocked_vcs = blocked;
    return graph;
}

Watchdog::Report
Watchdog::classify(std::int64_t cycle) const
{
    (void)cycle;
    Report rep;
    WaitForGraph graph = buildGraph(&rep.blockedVcs);
    // Deadlock is a knot, not a mere cycle: waits have OR semantics
    // (any granted alternative unblocks a VC), so adaptive-layer
    // cycles with an escape path out are survivable. Only a node set
    // with no wait path to any draining resource can never resolve.
    const std::vector<int> unsafe = graph.unsafeNodes();
    if (!unsafe.empty())
        rep.cycle = graph.findCycle(&unsafe);

    std::ostringstream os;
    if (!unsafe.empty()) {
        rep.stallClass = StallClass::Deadlock;
        os << unsafe.size() << " VCs in a closed wait-for knot (no "
           << "path to a draining resource); cycle: ";
        for (std::size_t i = 0; i < rep.cycle.size(); ++i) {
            if (i > 0)
                os << " -> ";
            os << waitNodeName(rep.cycle[i]);
        }
        os << " -> " << waitNodeName(rep.cycle.front());
    } else if (rep.blockedVcs > 0) {
        rep.stallClass = StallClass::TreeSaturation;
        os << rep.blockedVcs << " blocked input VCs, every wait "
           << "path reaches a draining resource (endpoint congestion, "
           << "not deadlock)";
    } else {
        os << "no blocked input VCs";
    }
    rep.detail = os.str();
    return rep;
}

std::size_t
Watchdog::scanForLivelock(std::int64_t cycle)
{
    const int n = net_->mesh().numNodes();
    const int num_vcs = net_->routerParams().numVcs;
    std::size_t found = 0;

    for (int node = 0; node < n; ++node) {
        const Router& r = net_->router(node);
        for (int port = 0; port < kNumPorts; ++port) {
            for (int vc = 0; vc < num_vcs; ++vc) {
                for (const Flit& f : r.inputVc(port, vc).buffer) {
                    if (!f.head)
                        continue;
                    const std::int64_t age = cycle
                        - net_->packetPool().get(f.desc).createTime;
                    const bool hops_bad = f.hops > maxHops_;
                    const bool age_bad = params_.maxAge > 0
                        && age > params_.maxAge;
                    if (!hops_bad && !age_bad)
                        continue;
                    if (std::find(livelockReported_.begin(),
                                  livelockReported_.end(), f.packetId)
                        != livelockReported_.end())
                        continue;
                    livelockReported_.push_back(f.packetId);
                    ++found;

                    std::ostringstream os;
                    os << "packet " << f.packetId << " (src " << f.src
                       << " dest " << f.dest << ") at node " << node
                       << ": " << f.hops << " hops, age " << age
                       << " cycles (bounds: " << maxHops_ << " hops";
                    if (params_.maxAge > 0)
                        os << ", " << params_.maxAge << " cycles";
                    os << ')';
                    if (tracer_ && tracer_->traced(f.packetId))
                        os << "; history: "
                           << tracer_->describe(f.packetId);
                    events_.push_back(
                        Event{"livelock", cycle, os.str()});
                }
            }
        }
    }
    return found;
}

void
Watchdog::check(std::int64_t cycle)
{
    nextDue_ = cycle + params_.interval;

    const std::uint64_t work =
        net_->totalFlitsSent() + net_->totalFlitsEjected();
    const bool resident = net_->totalFlitsInFlight() > 0;
    if (resident && work == lastWork_) {
        const Report rep = classify(cycle);
        if (rep.stallClass == StallClass::Deadlock)
            deadlockDetected_ = true;
        std::ostringstream os;
        os << "no forward progress for " << params_.interval
           << " cycles; " << rep.detail;
        events_.push_back(Event{stallClassName(rep.stallClass), cycle,
                                os.str()});
    }
    lastWork_ = work;

    if (params_.maxAge > 0 || params_.maxHops > 0)
        scanForLivelock(cycle);
}

void
Watchdog::finish(std::int64_t, RunStats& stats)
{
    stats.watchdogEvents = static_cast<std::uint64_t>(events_.size());
}

void
Watchdog::annotateDump(StateDumpContext& ctx) const
{
    ctx.events = &events_;
}

} // namespace footprint
