/**
 * @file
 * RunObserver — the one interface TrafficManager::run drives every
 * observer through, from one list (DESIGN.md §20). Observers only read
 * network state, so no mix or order of them can change a result.
 */

#ifndef FOOTPRINT_OBS_RUN_OBSERVER_HPP
#define FOOTPRINT_OBS_RUN_OBSERVER_HPP

#include <cstdint>
#include <limits>

namespace footprint {

struct RunStats;
struct StateDumpContext;

class RunObserver
{
  public:
    /** nextDueCycle() of an observer with no periodic work. */
    static constexpr std::int64_t kNever =
        std::numeric_limits<std::int64_t>::max();

    virtual ~RunObserver() = default;

    /**
     * Cycle @p cycle is over: the network stepped and its ejections
     * were collected. Before a skip-ahead jump to h the run loop also
     * calls tick(h - 1) on the frozen pre-jump state.
     */
    virtual void tick(std::int64_t cycle) = 0;

    /**
     * First cycle a skip-ahead jump must land on rather than pass;
     * kNever for observers that replay jumped spans in tick().
     */
    virtual std::int64_t nextDueCycle() const { return kNever; }

    /**
     * The run ended at @p cycle (normally or on an InvariantError):
     * write this observer's artifact and fill its fields of @p stats.
     */
    virtual void finish(std::int64_t cycle, RunStats& stats) = 0;

    /** Add this observer's findings to a forensic state dump. */
    virtual void annotateDump(StateDumpContext&) const {}
};

} // namespace footprint

#endif // FOOTPRINT_OBS_RUN_OBSERVER_HPP
