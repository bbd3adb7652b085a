/**
 * @file
 * Tracing support for the benchmark's traced run: in-memory spans
 * around the benchmark's calls into each layer, a reader for the
 * simulator's own footprint.profile/1 documents, and a steady-state
 * probe that counts heap allocations per cycle and times the routing
 * function on a network the benchmark steps itself.
 */
#ifndef FOOTPRINT_PERFBENCH_TRACE_HPP
#define FOOTPRINT_PERFBENCH_TRACE_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/config.hpp"

namespace perfbench {

/** Monotonic host clock in nanoseconds. */
std::uint64_t nowNs();

/**
 * Span recorder. Spans nest through an explicit stack (the benchmark's
 * own code is single-threaded); each records its parent, so a span's
 * self time is its duration minus its children's.
 */
class Tracer
{
  public:
    struct Span
    {
        int id = 0;
        int parent = -1;
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        double seconds() const
        {
            return static_cast<double>(endNs - startNs) * 1e-9;
        }
    };

    int begin(const std::string& name);
    void end(int id);

    const std::vector<Span>& spans() const { return spans_; }
    /** Durations (s) of every closed span called @p name. */
    std::vector<double> durations(const std::string& name) const;
    /** Write every span as footprint.perfbench.spans/1 JSON. */
    bool write(const std::string& path,
               const std::string& context_json) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span; a null tracer records nothing. */
class SpanScope
{
  public:
    SpanScope(Tracer* tracer, const std::string& name)
        : tracer_(tracer), id_(tracer ? tracer->begin(name) : -1)
    {
    }
    ~SpanScope()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

  private:
    Tracer* tracer_;
    int id_;
};

/** The fields of one footprint.profile/1 row the benchmark uses. */
struct ProfileRow
{
    double wallSeconds = 0.0;
    std::int64_t cycles = 0;
    int threads = 1;
    /** Seconds per phase, in ProfPhase order (inject .. link). */
    std::vector<double> phaseSeconds;
    bool sharded = false;
    std::vector<double> shardBusySeconds;
    double imbalance = 0.0;
    double barrierP50Ns = 0.0;
    double barrierP99Ns = 0.0;
};

/** Read the single row of the profile document at @p path. */
bool readProfileRow(const std::string& path, ProfileRow& row);

/** Result of one steady-state probe. */
struct ProbeResult
{
    double allocsPerCycle = 0.0;
    std::vector<double> routeNs;  ///< one sample per route() call
    double requestsPerRoute = 0.0;
};

/**
 * Build a Network from @p cfg (uniform random single-flit traffic at
 * its injection_rate), step it @p warm_cycles to a steady state, count
 * heap allocations over the next @p count_cycles, then call the
 * routing function on every head flit waiting for VC allocation in
 * @p snapshots snapshots spaced a few cycles apart.
 */
ProbeResult probeSteadyState(const footprint::SimConfig& cfg,
                             std::int64_t warm_cycles,
                             std::int64_t count_cycles, int snapshots);

/** Percentile @p q in [0,1] of @p v (nearest rank); 0 when empty. */
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);

} // namespace perfbench

#endif // FOOTPRINT_PERFBENCH_TRACE_HPP
