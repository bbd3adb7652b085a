#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace footprint {

void
StatAccumulator::reset()
{
    count_ = 0;
    sum_ = 0.0;
    sumSq_ = 0.0;
    min_ = std::numeric_limits<double>::infinity();
    max_ = -std::numeric_limits<double>::infinity();
}

void
StatAccumulator::add(double sample)
{
    ++count_;
    sum_ += sample;
    sumSq_ += sample * sample;
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
}

void
StatAccumulator::merge(const StatAccumulator& other)
{
    count_ += other.count_;
    sum_ += other.sum_;
    sumSq_ += other.sumSq_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
StatAccumulator::mean() const
{
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double
StatAccumulator::min() const
{
    return count_ == 0 ? 0.0 : min_;
}

double
StatAccumulator::max() const
{
    return count_ == 0 ? 0.0 : max_;
}

double
StatAccumulator::variance() const
{
    if (count_ == 0)
        return 0.0;
    const double m = mean();
    const double v = sumSq_ / static_cast<double>(count_) - m * m;
    return v > 0.0 ? v : 0.0;
}

double
StatAccumulator::stddev() const
{
    return std::sqrt(variance());
}

} // namespace footprint
