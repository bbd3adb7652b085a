/**
 * @file
 * Unit tests for the deadlock/livelock watchdog: wait-for-graph cycle
 * and knot detection on hand-built graphs, stall classification on a
 * live network, and the per-packet livelock scan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>

#include "network/network.hpp"
#include "network/traffic_manager.hpp"
#include "obs/watchdog.hpp"
#include "sim/config.hpp"

namespace footprint {
namespace {

// ------------------------------------------------- WaitForGraph units

TEST(WaitForGraph, EmptyGraphHasNoCycle)
{
    WaitForGraph g(4);
    EXPECT_TRUE(g.findCycle().empty());
    EXPECT_TRUE(g.unsafeNodes().empty());
}

TEST(WaitForGraph, AcyclicChainHasNoCycleAndIsSafe)
{
    WaitForGraph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 3); // 3 has no outgoing edge: a drain
    EXPECT_TRUE(g.findCycle().empty());
    EXPECT_TRUE(g.unsafeNodes().empty());
}

TEST(WaitForGraph, SelfLoopIsACycleAndAKnot)
{
    WaitForGraph g(3);
    g.addEdge(1, 1);
    const auto cycle = g.findCycle();
    ASSERT_EQ(cycle.size(), 1u);
    EXPECT_EQ(cycle[0], 1);
    EXPECT_EQ(g.unsafeNodes(), std::vector<int>{1});
}

TEST(WaitForGraph, ThreeCycleIsFoundInOrder)
{
    WaitForGraph g(5);
    g.addEdge(0, 2);
    g.addEdge(2, 4);
    g.addEdge(4, 0);
    const auto cycle = g.findCycle();
    ASSERT_EQ(cycle.size(), 3u);
    // The sequence walks the cycle: each node's successor is next.
    for (std::size_t i = 0; i < cycle.size(); ++i) {
        const int next = cycle[(i + 1) % cycle.size()];
        const auto& succ = g.successors(cycle[i]);
        EXPECT_NE(std::find(succ.begin(), succ.end(), next),
                  succ.end());
    }
}

TEST(WaitForGraph, CycleWithEscapeEdgeIsNotAKnot)
{
    // 0 <-> 1 cycle, but 1 also waits on 2, which drains. OR
    // semantics: 1 progresses via 2, then 0 via 1 — survivable, the
    // shape an adaptive-layer cycle with a Duato escape path takes.
    WaitForGraph g(3);
    g.addEdge(0, 1);
    g.addEdge(1, 0);
    g.addEdge(1, 2);
    EXPECT_FALSE(g.findCycle().empty()); // a cycle exists...
    EXPECT_TRUE(g.unsafeNodes().empty()); // ...but it is not deadlock
}

TEST(WaitForGraph, ClosedCycleIsAKnot)
{
    WaitForGraph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 0);
    g.addEdge(3, 0); // blocked on the knot, hence unsafe too
    const auto unsafe = g.unsafeNodes();
    EXPECT_EQ(unsafe, (std::vector<int>{0, 1, 2, 3}));
}

TEST(WaitForGraph, KnotFeedingASafeNodeStaysUnsafe)
{
    // The knot 0->1->0 also has an edge arriving FROM safe node 2;
    // inbound edges must not rescue it.
    WaitForGraph g(4);
    g.addEdge(0, 1);
    g.addEdge(1, 0);
    g.addEdge(2, 0);
    g.addEdge(2, 3); // 2 has an alternative that drains
    const auto unsafe = g.unsafeNodes();
    EXPECT_EQ(unsafe, (std::vector<int>{0, 1}));
}

TEST(WaitForGraph, RestrictedCycleSearchStaysInSet)
{
    // Two disjoint cycles; restricting to {3, 4} must find that one.
    WaitForGraph g(5);
    g.addEdge(0, 1);
    g.addEdge(1, 0);
    g.addEdge(3, 4);
    g.addEdge(4, 3);
    const std::vector<int> within{3, 4};
    const auto cycle = g.findCycle(&within);
    ASSERT_EQ(cycle.size(), 2u);
    for (int node : cycle)
        EXPECT_TRUE(node == 3 || node == 4);
}

// --------------------------------------------- Watchdog on a network

SimConfig
smallConfig()
{
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setInt("num_vcs", 4);
    return cfg;
}

TEST(Watchdog, AutoHopBoundDerivesFromMeshSize)
{
    const SimConfig cfg = smallConfig();
    Network net(cfg);
    Watchdog::Params params;
    Watchdog wd(net, nullptr, params);
    EXPECT_EQ(wd.maxHops(), 2 * (4 + 4));
}

TEST(Watchdog, WaitNodeNamesRoundTrip)
{
    const SimConfig cfg = smallConfig();
    Network net(cfg);
    Watchdog::Params params;
    Watchdog wd(net, nullptr, params);
    const int id = wd.waitNodeId(5, portOf(Dir::East), 2);
    EXPECT_EQ(wd.waitNodeName(id), "(n5, E, vc2)");
}

TEST(Watchdog, IdleNetworkClassifiesAsNone)
{
    const SimConfig cfg = smallConfig();
    Network net(cfg);
    Watchdog::Params params;
    Watchdog wd(net, nullptr, params);
    const Watchdog::Report rep = wd.classify(0);
    EXPECT_EQ(rep.stallClass, Watchdog::StallClass::None);
    EXPECT_EQ(rep.blockedVcs, 0);
    EXPECT_FALSE(wd.deadlockDetected());
}

TEST(Watchdog, FlowingTrafficIsNeverDeadlocked)
{
    const SimConfig cfg = smallConfig();
    Network net(cfg);
    Watchdog::Params params;
    Watchdog wd(net, nullptr, params);

    std::uint64_t id = 1;
    for (int node = 0; node < 16; ++node) {
        Packet p;
        p.id = id++;
        p.src = node;
        p.dest = 15 - node;
        p.size = 4;
        p.createTime = 0;
        if (p.src != p.dest)
            net.endpoint(node).enqueue(p);
    }
    for (std::int64_t cycle = 0; cycle < 120; ++cycle) {
        net.step(cycle);
        const Watchdog::Report rep = wd.classify(cycle);
        EXPECT_NE(rep.stallClass, Watchdog::StallClass::Deadlock)
            << "cycle " << cycle << ": " << rep.detail;
    }
}

TEST(Watchdog, LivelockScanFlagsPacketsOverHopBound)
{
    const SimConfig cfg = smallConfig();
    Network net(cfg);
    Watchdog::Params params;
    params.maxHops = 1; // absurdly tight: any multi-hop packet
    Watchdog wd(net, nullptr, params);

    // Converging traffic so head flits sit in buffers mid-journey
    // (hops increments when a flit leaves a router, so a buffered
    // head two routers in carries hops == 2 > 1).
    std::uint64_t id = 1;
    for (int node = 0; node < 15; ++node) {
        Packet p;
        p.id = id++;
        p.src = node;
        p.dest = 15;
        p.size = 5;
        p.createTime = 0;
        net.endpoint(node).enqueue(p);
    }

    std::size_t found = 0;
    for (std::int64_t cycle = 0; cycle < 80 && found == 0; ++cycle) {
        net.step(cycle);
        found = wd.scanForLivelock(cycle);
    }
    ASSERT_GE(found, 1u);
    ASSERT_FALSE(wd.events().empty());
    EXPECT_EQ(wd.events()[0].kind, "livelock");
    EXPECT_NE(wd.events()[0].detail.find("packet "),
              std::string::npos);
    EXPECT_NE(wd.events()[0].detail.find("bounds: 1 hops"),
              std::string::npos);

    // Dedup: keep scanning; each suspect packet is reported once, so
    // events never exceed the number of distinct packets.
    for (std::int64_t cycle = 80; cycle < 120; ++cycle) {
        net.step(cycle);
        wd.scanForLivelock(cycle);
    }
    EXPECT_LE(wd.events().size(), 15u);
    std::set<std::string> details;
    for (const auto& e : wd.events())
        details.insert(e.detail.substr(0, e.detail.find(" at node")));
    EXPECT_EQ(details.size(), wd.events().size())
        << "a packet was reported more than once";
}

TEST(Watchdog, SaturatedHotspotClassifiesAsTreeSaturation)
{
    SimConfig cfg = smallConfig();
    cfg.set("traffic", "hotspot");
    cfg.setDouble("injection_rate", 1.0); // ~2x saturation
    cfg.setDouble("background_rate", 0.9);
    cfg.setInt("warmup_cycles", 300);
    cfg.setInt("measure_cycles", 600);
    cfg.setInt("drain_cycles", 1500);
    cfg.setBool("audit", true);
    cfg.setInt("audit_interval", 500);

    const RunStats stats = runExperiment(cfg);
    EXPECT_FALSE(stats.drained);
    EXPECT_EQ(stats.stallClass, "tree_saturation")
        << "endpoint congestion must not read as deadlock";
    EXPECT_EQ(stats.auditViolations, 0u);
}

TEST(Watchdog, CreditsInFlightMakeAFreeAtomicVcGrantable)
{
    // The Fig. 9 hotspot run under DBAR at this seed ends with a free
    // output VC short of credits while the missing credits are still
    // on the return channel. Counted as not grantable, that request
    // hid a way out of an adaptive wait cycle and the run read as a
    // 2293-VC "deadlock"; every one of those VCs moves on later.
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 8);
    cfg.setInt("mesh_height", 8);
    cfg.set("routing", "dbar");
    cfg.set("traffic", "hotspot");
    cfg.setDouble("injection_rate", 0.45);
    cfg.setDouble("background_rate", 0.30);
    cfg.setInt("warmup_cycles", 2500);
    cfg.setInt("measure_cycles", 2500);
    cfg.setInt("drain_cycles", 0);
    cfg.setInt("seed", 1673460072);

    const RunStats stats = runExperiment(cfg);
    EXPECT_FALSE(stats.drained);
    EXPECT_EQ(stats.stallClass, "tree_saturation");
}

} // namespace
} // namespace footprint
