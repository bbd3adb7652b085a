/**
 * @file
 * Capacity contract of the per-VC request sets: OutputSet holds
 * kMaxRequests requests and panics past that, and no routing
 * algorithm (any base, Footprint variant, VC cap or +xordet wrapper)
 * adds more than that in one invocation over a sweep of router states.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "expect_panic.hpp"
#include "fake_router_view.hpp"
#include "routing/routing.hpp"
#include "sim/config.hpp"
#include "sim/rng.hpp"

namespace footprint {
namespace {

TEST(OutputSet, HoldsKMaxRequestsThenPanics)
{
    OutputSet set;
    for (std::size_t i = 0; i < OutputSet::kMaxRequests; ++i)
        set.add(static_cast<int>(i % kNumPorts), VcMask{1} << i,
                Priority::Low);
    EXPECT_EQ(set.requests().size(), OutputSet::kMaxRequests);
    // Empty masks are dropped before the capacity check.
    set.add(0, 0, Priority::Low);
    EXPECT_PANIC(set.add(0, VcMask{1}, Priority::Low),
                 "exceeded OutputSet capacity");
    set.clear();
    EXPECT_TRUE(set.empty());
}

/** Every (name, config) combination the request-count sweep covers. */
std::vector<std::pair<std::string, SimConfig>>
algorithmConfigs()
{
    std::vector<std::pair<std::string, SimConfig>> out;
    for (const std::string base : {"dor", "oddeven", "dbar"}) {
        for (const std::string suffix : {"", "+xordet"})
            out.emplace_back(base + suffix, defaultConfig());
    }
    for (const std::string variant : {"literal", "wait", "converge"}) {
        for (const int cap : {0, 2}) {
            for (const std::string suffix : {"", "+xordet"}) {
                SimConfig cfg = defaultConfig();
                cfg.set("fp_variant", variant);
                cfg.setInt("fp_vc_cap", cap);
                out.emplace_back("footprint" + suffix, cfg);
            }
        }
    }
    return out;
}

/** Randomise every piece of state a routing algorithm reads. */
void
scramble(FakeRouterView& view, Rng& rng, int num_vcs, int dest,
         int num_nodes)
{
    for (int port = 0; port < kNumPorts; ++port) {
        for (int vc = 0; vc < num_vcs; ++vc) {
            const auto other =
                static_cast<int>(rng.nextBounded(
                    static_cast<std::uint64_t>(num_nodes)));
            switch (rng.nextBounded(4)) {
              case 0: break; // idle, owner unchanged
              case 1: view.occupy(port, vc, dest); break;
              case 2: view.occupy(port, vc, other); break;
              default: view.drainedOwner(port, vc, dest); break;
            }
        }
        for (int p2 = 0; p2 < kNumPorts; ++p2)
            view.setRemoteIdle(port, p2,
                               static_cast<int>(rng.nextBounded(
                                   static_cast<std::uint64_t>(num_vcs
                                                              + 1))));
    }
    view.setConvergence(dest, static_cast<int>(rng.nextBounded(4)));
}

TEST(OutputSet, NoAlgorithmExceedsCapacityOverStateSweep)
{
    const Mesh mesh(5, 4);
    Rng rng(2024);
    std::size_t most = 0;
    for (const auto& [name, cfg] : algorithmConfigs()) {
        SCOPED_TRACE(name);
        const auto algo = makeRoutingAlgorithm(name, cfg);
        for (const int num_vcs : {2, 4, 10}) {
            for (int node = 0; node < mesh.numNodes(); node += 3) {
                for (int dest = 0; dest < mesh.numNodes(); ++dest) {
                    FakeRouterView view(mesh, node, num_vcs);
                    for (int trial = 0; trial < 4; ++trial) {
                        scramble(view, rng, num_vcs, dest,
                                 mesh.numNodes());
                        OutputSet out;
                        algo->route(view, headFlit(node, dest), out);
                        ASSERT_FALSE(out.empty());
                        most = std::max(most, out.requests().size());
                    }
                }
            }
        }
    }
    // Footprint's Algorithm 1 peaks at four prioritized entries plus
    // the escape request; the sweep must reach that peak.
    EXPECT_EQ(most, 5u);
    EXPECT_LE(most, OutputSet::kMaxRequests);
}

} // namespace
} // namespace footprint
