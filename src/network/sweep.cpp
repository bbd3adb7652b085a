#include "network/sweep.hpp"

#include <cstdio>
#include <sstream>

#include "exec/exec_context.hpp"
#include "network/traffic_manager.hpp"
#include "sim/log.hpp"

namespace footprint {

bool
runSaturated(const CurvePoint& p, double zero_load, double factor)
{
    // A run that failed to drain its measured packets is saturated by
    // definition; otherwise use the standard latency criterion.
    return p.saturated
        || (zero_load > 0.0 && p.latency > factor * zero_load);
}

namespace {

/**
 * The one curve walk. Task 0 probes the zero-load latency, task k
 * runs rates[k-1]; @p stop_after consecutive saturated points end
 * what the caller reads (2 for a curve, 1 for a ladder). Tasks are
 * claimed in order and none is started once the points known so far
 * hold such a run, so jobs == 1 runs exactly the points the caller
 * reads and more jobs only add speculative runs that the
 * carry-forward pass overwrites. Every point before the first such
 * run is always run, which makes the output bit-identical for any
 * ctx.jobs().
 */
std::vector<CurvePoint>
walkCurve(const SimConfig& base, const std::vector<double>& rates,
          ExecContext& ctx, int stop_after)
{
    std::vector<std::function<CurvePoint()>> tasks;
    tasks.reserve(rates.size() + 1);
    tasks.push_back([&base]() {
        CurvePoint p;
        p.latency = zeroLoadLatency(base);
        return p;
    });
    for (double rate : rates) {
        tasks.push_back([&base, rate]() {
            SimConfig cfg = base;
            cfg.setDouble("injection_rate", rate);
            const RunStats stats = runExperiment(cfg);
            CurvePoint p;
            p.offered = rate;
            p.accepted = stats.acceptedFlitsPerNodeCycle;
            p.latency = stats.avgLatency();
            // Provisional: only a failed drain is known here; the
            // latency criterion needs the probe's zero-load latency.
            p.saturated = stats.saturated;
            return p;
        });
    }

    using Done = std::vector<std::optional<CurvePoint>>;
    auto saturated = [](const Done& done, std::size_t i) {
        return runSaturated(*done[i], done[0] ? done[0]->latency : 0.0);
    };
    const Done done = ctx.map(
        std::move(tasks), [&](std::size_t i, const Done& known) {
            int run = 0;
            for (std::size_t k = 1; k < i && run < stop_after; ++k)
                run = known[k] && saturated(known, k) ? run + 1 : 0;
            return run < stop_after;
        });

    // Carry-forward: past the stop, points repeat the last run point.
    std::vector<CurvePoint> points;
    points.reserve(rates.size());
    int run = 0;
    for (std::size_t k = 1; k < done.size(); ++k) {
        if (run >= stop_after) {
            CurvePoint p = points.back();
            p.offered = rates[k - 1];
            points.push_back(p);
            continue;
        }
        points.push_back(*done[k]);
        points.back().saturated = saturated(done, k);
        run = points.back().saturated ? run + 1 : 0;
    }
    return points;
}

} // namespace

std::vector<CurvePoint>
latencyThroughputCurve(const SimConfig& base,
                       const std::vector<double>& rates,
                       ExecContext& ctx)
{
    return walkCurve(base, rates, ctx, 2);
}

double
saturationFromLadder(const std::vector<CurvePoint>& points)
{
    double last_good = 0.0;
    for (const CurvePoint& p : points) {
        if (p.saturated) {
            // Midpoint between the last good and the first bad rate.
            return last_good > 0.0 ? (last_good + p.offered) / 2.0
                                   : p.offered / 2.0;
        }
        last_good = p.offered;
    }
    return last_good;
}

double
ladderSaturation(const SimConfig& base,
                 const std::vector<double>& rates, ExecContext& ctx)
{
    return saturationFromLadder(walkCurve(base, rates, ctx, 1));
}

double
zeroLoadLatency(const SimConfig& base, double probe_rate)
{
    SimConfig cfg = base;
    cfg.setDouble("injection_rate", probe_rate);
    const RunStats stats = runExperiment(cfg);
    return stats.avgLatency();
}

std::vector<double>
linspace(double lo, double hi, int count)
{
    FP_ASSERT(count >= 2, "linspace needs at least two points");
    std::vector<double> out;
    out.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        out.push_back(lo
                      + (hi - lo) * static_cast<double>(i)
                          / static_cast<double>(count - 1));
    }
    return out;
}

std::string
formatCurve(const std::string& label,
            const std::vector<CurvePoint>& points)
{
    std::ostringstream oss;
    for (const CurvePoint& p : points) {
        char line[160];
        std::snprintf(line, sizeof(line),
                      "%-18s offered=%.3f accepted=%.3f latency=%8.2f%s\n",
                      label.c_str(), p.offered, p.accepted, p.latency,
                      p.saturated ? "  [saturated]" : "");
        oss << line;
    }
    return oss.str();
}

} // namespace footprint
