/**
 * @file
 * Spatial observatory: aggregates per-link utilization, per-router VC
 * occupancy, footprint size (occupied output VCs), escape-VC usage,
 * and injection backlog into windowed 2-D grids over the mesh — the
 * spatial footprint of congestion trees the paper regulates, resolved
 * in time so a congestion tree can be watched growing and draining.
 *
 * Collection cost model: link utilization is computed from flit-channel
 * sent-counter deltas at window boundaries only (exact and nearly
 * free); occupancy-style gauges are sampled every sampleInterval
 * cycles and averaged per window. The collector is strictly read-only
 * over Network state and runs from the serial driver loop, so enabling
 * it cannot change simulation results in any step mode.
 *
 * Export is a schema-versioned footprint.heatmap/1 JSON document with
 * a run-metadata header; tools/render_heatmap.py turns it into ASCII
 * or PNG mesh heatmaps and tools/check_schema.py validates it in CI.
 */

#ifndef FOOTPRINT_OBS_HEATMAP_HPP
#define FOOTPRINT_OBS_HEATMAP_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/run_metadata.hpp"
#include "obs/run_observer.hpp"

namespace footprint {

class Network;
class SimConfig;

/** Heatmap collection parameters (heatmap_* config keys). */
struct HeatmapConfig
{
    bool enabled = false;
    /** Output path of the footprint.heatmap/1 document. */
    std::string outPath = "heatmap.json";
    /** Cycles per aggregation window. */
    std::int64_t window = 1000;
    /** Cycles between occupancy-gauge samples within a window. */
    std::int64_t sampleInterval = 8;

    /** Read the heatmap_* keys of @p cfg. */
    static HeatmapConfig fromSim(const SimConfig& cfg);
};

/**
 * One closed aggregation window: per-node means of the sampled gauges
 * and per-link flits/cycle, all row-major W*H grids.
 */
struct HeatmapWindow
{
    std::int64_t startCycle = 0;
    std::int64_t endCycle = 0;    ///< exclusive
    std::int64_t samples = 0;     ///< gauge samples in this window

    /** Mean flits/cycle leaving each node per direction (E/W/N/S). */
    std::vector<double> linkUtil[4];
    /** Mean flits/cycle node->router (inject) and router->node. */
    std::vector<double> injectUtil;
    std::vector<double> ejectUtil;

    /** Mean flits buffered in each router's input VCs. */
    std::vector<double> vcOcc;
    /** Mean occupied output VCs per router (footprint size). */
    std::vector<double> fpOcc;
    /** Mean occupied escape output VCs per router. */
    std::vector<double> escOcc;
    /** Mean flits backlogged in each endpoint's source queue. */
    std::vector<double> injBacklog;
};

class HeatmapCollector final : public RunObserver
{
  public:
    /**
     * @param net network to observe; must outlive the collector. The
     *        collector holds per-link sent-count baselines, so attach
     *        before the first observed cycle.
     * @param meta optional run metadata (copied) that the two-argument
     *        finish() stamps onto the document it writes.
     */
    HeatmapCollector(const Network& net, const HeatmapConfig& cfg,
                     const RunMetadata* meta = nullptr);

    bool enabled() const { return cfg_.enabled; }
    const HeatmapConfig& config() const { return cfg_; }

    /**
     * Per-cycle hook; call after Network::step. Samples gauges on the
     * sample interval and closes the window on its boundary.
     *
     * Jump-aware: @p cycle may be far past the previous tick (the
     * skip-ahead fast path jumps quiescent spans). The elapsed span is
     * replayed event by event — every sample boundary and window close
     * in order, a sample before a coincident close, exactly as ticking
     * each cycle would have — against the network's current (frozen)
     * state. The driver catches collectors up to horizon-1 *before*
     * stepping the landing cycle, so replayed samples read the same
     * quiescent state the skipped cycles held.
     */
    void
    tick(std::int64_t cycle) override
    {
        if (!cfg_.enabled)
            return;
        std::int64_t x = lastTick_ + 1;
        lastTick_ = cycle;
        while (x <= cycle) {
            const std::int64_t close_at =
                windowStart_ + cfg_.window - 1;
            const std::int64_t rem =
                (x - windowStart_) % cfg_.sampleInterval;
            const std::int64_t next_sample =
                rem == 0 ? x : x + (cfg_.sampleInterval - rem);
            const std::int64_t next =
                next_sample < close_at ? next_sample : close_at;
            if (next > cycle)
                break;
            x = next;
            if (x == next_sample)
                sampleGauges();
            if (x == close_at)
                closeWindow(x + 1);
            ++x;
        }
    }

    /** Close any partial window at end of run. */
    void finish(std::int64_t cycle);

    /** finish(cycle), then write to config().outPath (heatmapPath). */
    void finish(std::int64_t cycle, RunStats& stats) override;

    const std::vector<HeatmapWindow>& windows() const
    {
        return windows_;
    }

    /** Render the footprint.heatmap/1 document. */
    std::string toJson(const RunMetadata* meta) const;

    /** Write toJson to @p path; false on I/O failure. */
    bool writeTo(const std::string& path,
                 const RunMetadata* meta) const;

  private:
    void sampleGauges();
    void closeWindow(std::int64_t end_cycle);

    const Network& net_;
    HeatmapConfig cfg_;
    std::optional<RunMetadata> meta_;
    int width_ = 0;
    int height_ = 0;
    int nodes_ = 0;
    int escapeVcs_ = 0;

    std::int64_t windowStart_ = 0;
    std::int64_t samples_ = 0;
    std::int64_t lastTick_ = -1;  ///< last cycle tick() replayed up to

    // Gauge accumulators (sums over samples, divided at window close).
    std::vector<double> vcOccSum_;
    std::vector<double> fpOccSum_;
    std::vector<double> escOccSum_;
    std::vector<double> injBacklogSum_;

    // Per-link sent-count baselines, index-aligned with
    // Network::links(); deltas at window close give exact counts.
    std::vector<std::uint64_t> linkSentBase_;

    std::vector<HeatmapWindow> windows_;
};

} // namespace footprint

#endif // FOOTPRINT_OBS_HEATMAP_HPP
