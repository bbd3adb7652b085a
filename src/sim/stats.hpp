/**
 * @file
 * Lightweight statistics primitive used throughout the simulator: a
 * scalar accumulator for latency/throughput. Distributions live in
 * obs/hdr_histogram.hpp.
 */

#ifndef FOOTPRINT_SIM_STATS_HPP
#define FOOTPRINT_SIM_STATS_HPP

#include <cstdint>

namespace footprint {

/**
 * Accumulates samples and reports count / mean / min / max / stddev.
 */
class StatAccumulator
{
  public:
    StatAccumulator() { reset(); }

    /** Discard all samples. */
    void reset();

    /** Record one sample. */
    void add(double sample);

    /** Merge another accumulator's samples into this one. */
    void merge(const StatAccumulator& other);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    double min() const;
    double max() const;
    /** Population variance of the recorded samples. */
    double variance() const;
    double stddev() const;

  private:
    std::uint64_t count_;
    double sum_;
    double sumSq_;
    double min_;
    double max_;
};

} // namespace footprint

#endif // FOOTPRINT_SIM_STATS_HPP
