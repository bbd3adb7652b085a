/**
 * @file
 * Tests for the experiment drivers (latency-throughput curves and
 * ladder saturation) on a small, fast configuration.
 */

#include <gtest/gtest.h>

#include "exec/exec_context.hpp"
#include "network/sweep.hpp"
#include "network/traffic_manager.hpp"
#include "sim/config.hpp"

namespace footprint {
namespace {

SimConfig
tinyConfig()
{
    SimConfig cfg = defaultConfig();
    cfg.setInt("mesh_width", 4);
    cfg.setInt("mesh_height", 4);
    cfg.setInt("num_vcs", 4);
    cfg.set("routing", "dor");
    cfg.set("traffic", "uniform");
    cfg.setInt("warmup_cycles", 200);
    cfg.setInt("measure_cycles", 600);
    cfg.setInt("drain_cycles", 3000);
    return cfg;
}

/**
 * Reference curve: the plain sequential walk. Zero-load probe first,
 * then each rate in order; once two consecutive points are saturated
 * the rest carry the last point forward without running.
 */
std::vector<CurvePoint>
referenceCurve(const SimConfig& base, const std::vector<double>& rates)
{
    const double zero_load = zeroLoadLatency(base);
    std::vector<CurvePoint> points;
    int consecutive_saturated = 0;
    for (double rate : rates) {
        CurvePoint p;
        p.offered = rate;
        if (consecutive_saturated >= 2) {
            p.accepted = points.back().accepted;
            p.latency = points.back().latency;
            p.saturated = true;
            points.push_back(p);
            continue;
        }
        SimConfig cfg = base;
        cfg.setDouble("injection_rate", rate);
        const RunStats stats = runExperiment(cfg);
        p.accepted = stats.acceptedFlitsPerNodeCycle;
        p.latency = stats.avgLatency();
        p.saturated = stats.saturated
            || (zero_load > 0.0 && p.latency > 3.0 * zero_load);
        points.push_back(p);
        consecutive_saturated = p.saturated ? consecutive_saturated + 1 : 0;
    }
    return points;
}

void
expectSameCurve(const std::vector<CurvePoint>& got,
                const std::vector<CurvePoint>& want, unsigned jobs)
{
    ASSERT_EQ(got.size(), want.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_DOUBLE_EQ(got[i].offered, want[i].offered) << i;
        EXPECT_DOUBLE_EQ(got[i].accepted, want[i].accepted) << i;
        EXPECT_DOUBLE_EQ(got[i].latency, want[i].latency) << i;
        EXPECT_EQ(got[i].saturated, want[i].saturated) << i;
    }
}

/** Rates 0.1, 0.15, ..., 1.0: a fine ladder for the 4x4 mesh. */
std::vector<double>
fineLadder()
{
    return linspace(0.1, 1.0, 19);
}

TEST(Linspace, EndpointsAndSpacing)
{
    const auto v = linspace(0.1, 0.5, 5);
    ASSERT_EQ(v.size(), 5u);
    EXPECT_DOUBLE_EQ(v.front(), 0.1);
    EXPECT_DOUBLE_EQ(v.back(), 0.5);
    EXPECT_NEAR(v[1] - v[0], 0.1, 1e-12);
    EXPECT_NEAR(v[3] - v[2], 0.1, 1e-12);
}

TEST(ZeroLoadLatency, IsSmallAndPositive)
{
    const double l0 = zeroLoadLatency(tinyConfig());
    EXPECT_GT(l0, 3.0);
    EXPECT_LT(l0, 15.0);
}

TEST(LatencyThroughputCurve, LatencyIncreasesWithLoad)
{
    ExecContext ctx(1);
    const auto points =
        latencyThroughputCurve(tinyConfig(), {0.05, 0.2, 0.35}, ctx);
    ASSERT_EQ(points.size(), 3u);
    EXPECT_LT(points[0].latency, points[2].latency);
    for (const auto& p : points) {
        EXPECT_GT(p.latency, 0.0);
        EXPECT_NEAR(p.accepted, p.offered, 0.05);
        EXPECT_FALSE(p.saturated) << "offered " << p.offered;
    }
}

TEST(LatencyThroughputCurve, OverloadedPointIsMarkedSaturated)
{
    SimConfig cfg = tinyConfig();
    cfg.set("traffic", "transpose");
    cfg.setInt("drain_cycles", 1200);
    ExecContext ctx(1);
    const auto points = latencyThroughputCurve(cfg, {0.9}, ctx);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_TRUE(points[0].saturated);
    // Accepted throughput saturates below offered.
    EXPECT_LT(points[0].accepted, 0.6);
}

TEST(SaturationThroughput, LiesInPlausibleRange)
{
    ExecContext ctx(4);
    const double sat = ladderSaturation(tinyConfig(), fineLadder(), ctx);
    // 4x4 uniform with DOR: saturation well above 0.2 and below 1.0.
    EXPECT_GT(sat, 0.2);
    EXPECT_LT(sat, 1.0);
}

TEST(SaturationThroughput, AdversePatternSaturatesEarlier)
{
    SimConfig uniform = tinyConfig();
    SimConfig transpose = tinyConfig();
    transpose.set("traffic", "transpose");
    transpose.setInt("drain_cycles", 1500);
    ExecContext ctx(4);
    const double s_uniform = ladderSaturation(uniform, fineLadder(), ctx);
    const double s_transpose =
        ladderSaturation(transpose, fineLadder(), ctx);
    EXPECT_LT(s_transpose, s_uniform);
}

TEST(SaturationThroughput, LadderIsJobsInvariant)
{
    SimConfig cfg = tinyConfig();
    cfg.setInt("drain_cycles", 1500);
    const double want = saturationFromLadder(referenceCurve(cfg, fineLadder()));
    for (unsigned jobs : {1u, 4u}) {
        ExecContext ctx(jobs);
        EXPECT_DOUBLE_EQ(ladderSaturation(cfg, fineLadder(), ctx), want)
            << "jobs=" << jobs;
    }
}

TEST(SaturationFromLadder, MidpointOfLastGoodAndFirstSaturated)
{
    const CurvePoint good1{0.1, 0.1, 10.0, false};
    const CurvePoint good2{0.2, 0.2, 12.0, false};
    const CurvePoint bad{0.3, 0.25, 90.0, true};
    EXPECT_DOUBLE_EQ(saturationFromLadder({good1, good2, bad, good1}),
                     0.25);
    // Saturated at the first rung: half of it.
    EXPECT_DOUBLE_EQ(saturationFromLadder({bad, good1}), 0.15);
    // Never saturated: the last rung.
    EXPECT_DOUBLE_EQ(saturationFromLadder({good1, good2}), 0.2);
    EXPECT_DOUBLE_EQ(saturationFromLadder({}), 0.0);
}

TEST(LatencyThroughputCurve, ParallelMatchesSequentialExactly)
{
    const std::vector<double> rates{0.05, 0.2, 0.35};
    const auto want = referenceCurve(tinyConfig(), rates);
    for (unsigned jobs : {1u, 4u}) {
        ExecContext ctx(jobs);
        expectSameCurve(latencyThroughputCurve(tinyConfig(), rates, ctx),
                        want, jobs);
    }
}

TEST(LatencyThroughputCurve, ParallelReplaysSaturationCarryForward)
{
    // Push the ladder deep into saturation so the walk stops after two
    // saturated points and carries the rest forward; every jobs value
    // must reproduce the reference bit for bit.
    SimConfig cfg = tinyConfig();
    cfg.set("traffic", "transpose");
    cfg.setInt("drain_cycles", 1200);
    const std::vector<double> rates{0.1, 0.6, 0.7, 0.8, 0.9};
    const auto want = referenceCurve(cfg, rates);
    ASSERT_TRUE(want[1].saturated && want[2].saturated)
        << "test should cover the carried-forward regime";
    for (unsigned jobs : {1u, 4u}) {
        ExecContext ctx(jobs);
        expectSameCurve(latencyThroughputCurve(cfg, rates, ctx), want,
                        jobs);
    }
}

TEST(FormatCurve, ContainsLabelAndNumbers)
{
    std::vector<CurvePoint> pts{{0.1, 0.1, 12.0, false},
                                {0.5, 0.4, 900.0, true}};
    const std::string s = formatCurve("dor/uniform", pts);
    EXPECT_NE(s.find("dor/uniform"), std::string::npos);
    EXPECT_NE(s.find("offered=0.100"), std::string::npos);
    EXPECT_NE(s.find("[saturated]"), std::string::npos);
}

} // namespace
} // namespace footprint
