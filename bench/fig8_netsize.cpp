/**
 * @file
 * Figure 8 — scalability with network size: DBAR's saturation
 * throughput normalized to Footprint's on 4x4 through 32x32 meshes
 * (10 VCs, single-flit). The paper reports Footprint's edge growing
 * with network size (uniform: 11% -> 13%, shuffle: 25% -> 46% between
 * 4x4 and 16x16); the 32x32 extension runs under sharded stepping
 * (bit-identical to serial, see DESIGN.md §13) to keep the 1024-node
 * sweeps tractable.
 *
 * Each size also reports the simulator's own speed (cycles/sec at a
 * mid-ladder load) so the bench doubles as a size-scaling record of
 * the engine itself.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

int
main(int argc, char** argv)
{
    using namespace footprint;
    using namespace footprint::bench;
    setQuiet(true);
    ExecContext ctx(benchJobs(argc, argv));
    // One thread budget: the 32x32 jobs each step on a crew of
    // kShardThreads, so they run kShardThreads times fewer at once.
    constexpr unsigned kShardThreads = 4;
    ExecContext sharded_ctx(std::max(1u, ctx.jobs() / kShardThreads));

    header("Figure 8: DBAR throughput normalized to Footprint, by "
           "mesh size");
    const std::vector<double> rates{0.08, 0.16, 0.24, 0.32, 0.40,
                                    0.48};

    // Meshes of 1024+ nodes run with sharded stepping; thread count
    // changes wall-clock only, never the printed numbers.
    auto sizeConfig = [](int k) {
        SimConfig cfg = benchBaseline();
        cfg.setInt("mesh_width", k);
        cfg.setInt("mesh_height", k);
        if (k >= 32) {
            cfg.set("step_mode", "sharded");
            cfg.setInt("threads", kShardThreads);
        }
        return cfg;
    };

    std::printf("%10s %-12s %12s %14s %18s %14s\n", "mesh", "pattern",
                "dbar_sat", "footprint_sat", "dbar/footprint",
                "cycles/sec");
    for (int k : {4, 8, 16, 32}) {
        // Engine speed at this size: one timed footprint-routing run
        // at a mid-ladder load (printed on the size's first row).
        SimConfig speed_cfg = sizeConfig(k);
        speed_cfg.set("traffic", "uniform");
        speed_cfg.set("routing", "footprint");
        const double cps = measureCyclesPerSec(speed_cfg, rates[1]);
        bool first_row = true;
        for (const char* pattern :
             {"uniform", "transpose", "shuffle"}) {
            double sat[2] = {0.0, 0.0};
            int i = 0;
            for (const char* algo : {"dbar", "footprint"}) {
                SimConfig cfg = sizeConfig(k);
                cfg.set("traffic", pattern);
                cfg.set("routing", algo);
                sat[i++] = ladderSaturation(
                    cfg, rates, k >= 32 ? sharded_ctx : ctx);
            }
            std::printf("%7dx%-2d %-12s %12.3f %14.3f %17.3f",
                        k, k, pattern, sat[0], sat[1],
                        sat[1] > 0.0 ? sat[0] / sat[1] : 0.0);
            if (first_row) {
                std::printf(" %14.0f", cps);
                first_row = false;
            }
            std::printf("\n");
        }
    }
    return 0;
}
