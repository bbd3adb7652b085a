/**
 * @file
 * TelemetryHub — the central coordination point of the observability
 * subsystem. A hub owns the probe Sampler (named, typed channels), the
 * structured time-series sinks, and the PacketTracer, and receives
 * per-cycle ticks and phase markers from the simulation driver.
 *
 * Overhead discipline: every per-cycle integration point is guarded by
 * a single branch — TrafficManager checks one pointer, tick() checks
 * one flag, Router/Endpoint hooks check one pointer — so a build with
 * telemetry compiled in but disabled runs the same hot path as before
 * plus predictable never-taken branches.
 */

#ifndef FOOTPRINT_OBS_TELEMETRY_HPP
#define FOOTPRINT_OBS_TELEMETRY_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/packet_tracer.hpp"
#include "obs/run_observer.hpp"
#include "obs/sampler.hpp"
#include "obs/trace_event.hpp"

namespace footprint {

class SimConfig;

/** What a TelemetryHub records and where it writes. */
struct TelemetryConfig
{
    /** Time-series output path; empty disables time-series export. */
    std::string timeSeriesPath;
    /** Time-series format: "csv" or "jsonl". */
    std::string format = "csv";
    /** Cycles between samples. */
    std::int64_t sampleInterval = 100;
    /** Register per-router/per-endpoint channels (else aggregates). */
    bool perRouter = true;
    /** Packet-trace output path; empty with tracePackets=0 disables. */
    std::string tracePath;
    /** Trace packets with id in [1, tracePackets]. */
    std::uint64_t tracePackets = 0;
    /** Retain samples in memory for series() access. */
    bool keepInMemory = false;
    /** Chrome trace-event timeline path; empty disables. */
    std::string chromeTracePath;

    bool
    anyEnabled() const
    {
        return !timeSeriesPath.empty() || !tracePath.empty()
            || tracePackets > 0 || keepInMemory
            || !chromeTracePath.empty();
    }
};

/** A recorded phase transition (warmup / measure / drain markers). */
struct PhaseMark
{
    std::string name;
    std::int64_t cycle;
};

/**
 * Central telemetry coordinator. Construct (optionally from a
 * SimConfig via configFromSim), attach to a Network with
 * Network::attachTelemetry, then drive with beginPhase()/tick() and
 * close with finish().
 *
 * A default-constructed hub is disabled: attach and tick are no-ops
 * beyond a single branch, which is the configuration the overhead
 * micro-benchmarks gate.
 */
class TelemetryHub final : public RunObserver
{
  public:
    /** Disabled hub (no sinks, no tracer, sampling off). */
    TelemetryHub() = default;

    explicit TelemetryHub(const TelemetryConfig& cfg);

    /** Read the telemetry_* / trace_* keys of @p cfg. */
    static TelemetryConfig configFromSim(const SimConfig& cfg);

    bool enabled() const { return enabled_; }
    bool samplingEnabled() const { return sampling_; }
    const TelemetryConfig& config() const { return cfg_; }

    /** Register a channel (forwards to the sampler). */
    std::size_t
    addChannel(const std::string& name, ChannelKind kind,
               std::function<double()> probe)
    {
        return sampler_.addChannel(name, kind, std::move(probe));
    }

    /** Attach an additional time-series sink (tests, benches). */
    void
    addSink(std::unique_ptr<TimeSeriesSink> sink)
    {
        sampler_.addSink(std::move(sink));
        sampling_ = enabled_ = true;
    }

    /** Mark a simulation phase transition at @p cycle. */
    void beginPhase(const std::string& name, std::int64_t cycle);

    /**
     * Per-cycle hook: samples every probe when @p cycle lands on the
     * sampling interval. A single branch when sampling is disabled.
     */
    void
    tick(std::int64_t cycle) override
    {
        if (!sampling_)
            return;
        lastTick_ = cycle;
        if (cycle % cfg_.sampleInterval == 0)
            sampler_.sample(cycle, phase_);
    }

    /**
     * First cycle on the sampling grid after the last tick (kNever
     * when sampling is off): a skip-ahead jump lands on the next
     * sample cycle instead of silently passing it.
     */
    std::int64_t
    nextDueCycle() const override
    {
        if (!sampling_)
            return kNever;
        const std::int64_t from = lastTick_ + 1;
        const std::int64_t rem = from % cfg_.sampleInterval;
        return rem == 0 ? from : from + (cfg_.sampleInterval - rem);
    }

    /** Final sample (if due), tracer + sink flush, trace close. */
    void finish(std::int64_t cycle);

    /** finish(cycle); the hub fills no RunStats field. */
    void
    finish(std::int64_t cycle, RunStats&) override
    {
        finish(cycle);
    }

    /**
     * Stamp run metadata onto every artifact this hub writes (sinks,
     * packet trace, chrome trace). Call before the first sample.
     */
    void setRunMetadata(const RunMetadata& meta);

    /** The packet tracer, or nullptr when tracing is disabled. */
    PacketTracer* tracer() { return tracer_.get(); }

    /** The chrome trace writer, or nullptr when disabled. */
    ChromeTraceWriter* chromeTrace() { return chrome_.get(); }

    Sampler& sampler() { return sampler_; }
    const Sampler& sampler() const { return sampler_; }

    const std::string& phase() const { return phase_; }
    const std::vector<PhaseMark>& phaseMarks() const { return marks_; }

    /** Retained series of a channel (keepInMemory mode). */
    const std::vector<Sample>&
    series(const std::string& name) const
    {
        return sampler_.series(name);
    }

    /**
     * Mean of a retained channel over the cycles a phase was active;
     * 0 when the channel or phase has no retained samples.
     */
    double meanInPhase(const std::string& name,
                       const std::string& phase) const;

  private:
    TelemetryConfig cfg_;
    Sampler sampler_;
    std::unique_ptr<PacketTracer> tracer_;
    std::unique_ptr<ChromeTraceWriter> chrome_;
    std::string phase_ = "init";
    std::vector<PhaseMark> marks_;
    std::int64_t lastTick_ = -1;
    bool enabled_ = false;
    bool sampling_ = false;
};

} // namespace footprint

#endif // FOOTPRINT_OBS_TELEMETRY_HPP
