/**
 * @file
 * Experiment drivers: latency-throughput curves and saturation
 * points read off rate ladders — the measurement procedures behind
 * the paper's Figs. 5-8.
 */

#ifndef FOOTPRINT_NETWORK_SWEEP_HPP
#define FOOTPRINT_NETWORK_SWEEP_HPP

#include <string>
#include <vector>

#include "sim/config.hpp"

namespace footprint {

class ExecContext;

/** One point on a latency-throughput curve. */
struct CurvePoint
{
    double offered = 0.0;   ///< flits/node/cycle offered
    double accepted = 0.0;  ///< flits/node/cycle accepted
    double latency = 0.0;   ///< average packet latency (cycles)
    bool saturated = false;
};

/**
 * Classify one run as saturated: it failed to drain (@p p.saturated
 * as the run left it), or its average latency exceeds @p factor x
 * @p zero_load. (Accepted-vs-offered comparisons are deliberately not
 * used: patterns with fixed points, e.g. transpose, legitimately
 * accept less than the per-node offered rate.) Shared by the curve
 * walk and SweepRunner so every layer applies one definition.
 */
bool runSaturated(const CurvePoint& p, double zero_load,
                  double factor = 3.0);

/**
 * Latency-throughput curve: the zero-load probe, then one run per
 * rate in order, on @p ctx. Once two consecutive points are known to
 * be saturated no later rate is started; those points carry the last
 * run point's accepted throughput and latency forward, marked
 * saturated. Bit-identical for any ctx.jobs().
 */
std::vector<CurvePoint>
latencyThroughputCurve(const SimConfig& base,
                       const std::vector<double>& rates,
                       ExecContext& ctx);

/**
 * Estimated saturation throughput from a rate ladder: the highest
 * offered rate whose run is not saturated, linearly interpolated
 * toward the first saturated rate (their midpoint). Points past the
 * first saturated one are not read.
 */
double saturationFromLadder(const std::vector<CurvePoint>& points);

/**
 * saturationFromLadder over the curve walk of @p rates on @p ctx,
 * which starts no rate past the first known saturated point.
 * Bit-identical for any ctx.jobs().
 */
double ladderSaturation(const SimConfig& base,
                        const std::vector<double>& rates,
                        ExecContext& ctx);

/** Zero-load latency, probed at a very low injection rate. */
double zeroLoadLatency(const SimConfig& base, double probe_rate = 0.02);

/** Evenly spaced rates in [lo, hi] (inclusive), helper for benches. */
std::vector<double> linspace(double lo, double hi, int count);

/** Render curve points as aligned table rows for bench output. */
std::string formatCurve(const std::string& label,
                        const std::vector<CurvePoint>& points);

} // namespace footprint

#endif // FOOTPRINT_NETWORK_SWEEP_HPP
