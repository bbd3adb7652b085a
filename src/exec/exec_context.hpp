/**
 * @file
 * ExecContext — the execution policy handed to experiment drivers.
 *
 * One ordered job runner, map(): run a batch of independent closures
 * on at most jobs() threads and return their results in submission
 * order. The caller is one of the workers, so a context with
 * jobs == 1 runs everything inline and sequential and parallel
 * execution share one code path in the drivers.
 *
 * Determinism contract: map() affects only *when* tasks run, never
 * what they compute or the order results are returned in. Drivers
 * built on it (latencyThroughputCurve, ladderSaturation, SweepRunner)
 * produce bit-identical results for any jobs value as long as each
 * task is itself deterministic — which simulation jobs are, because
 * every one owns its private SimConfig, RNG streams, and telemetry
 * sinks.
 */

#ifndef FOOTPRINT_EXEC_EXEC_CONTEXT_HPP
#define FOOTPRINT_EXEC_EXEC_CONTEXT_HPP

#include <algorithm>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <system_error>
#include <thread>
#include <type_traits>
#include <vector>

namespace footprint {

/**
 * Read rule of an ordered batch: may task @p i still be read, given
 * the results finished so far (nullopt = not finished or not run)?
 * Called under the batch lock; it must not throw.
 */
template <typename T>
using ReadRule = std::function<bool(
    std::size_t i, const std::vector<std::optional<T>>& done)>;

class ExecContext
{
  public:
    /** @param jobs tasks run at once; 0 means hardware concurrency. */
    explicit ExecContext(unsigned jobs = 0)
        : jobs_(jobs != 0 ? jobs
                          : std::max(1u, std::thread::hardware_concurrency()))
    {
    }

    /** Effective parallelism (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Run tasks in submission order, at most jobs() at once, while
     * @p readable allows. The call starts jobs() - 1 threads and the
     * caller is the jobs()-th worker. Each worker claims the next
     * task from one cursor; before claiming task i it asks
     * @p readable, under the batch lock and with the results so far,
     * whether i can still be read. The first index the rule refuses
     * ends the batch: neither it nor any later task is started, and
     * their results stay nullopt. Simulation jobs vary wildly in
     * duration (a saturated point costs many times a zero-load one),
     * so claiming one task at a time balances load by itself.
     *
     * The first exception (in task order) is rethrown after every
     * started task has finished, so no job is abandoned mid-run.
     */
    template <typename T>
    std::vector<std::optional<T>>
    map(std::vector<std::function<T()>> tasks,
        const ReadRule<std::type_identity_t<T>>& readable) const
    {
        const std::size_t n = tasks.size();
        std::mutex mutex; // guards next, results and errors
        std::size_t next = 0;
        std::vector<std::optional<T>> results(n);
        std::vector<std::exception_ptr> errors(n);
        auto worker = [&]() {
            for (;;) {
                std::size_t i = 0;
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    if (next < n && readable && !readable(next, results))
                        next = n;
                    if (next == n)
                        return;
                    i = next++;
                }
                std::optional<T> value;
                std::exception_ptr error;
                try {
                    value.emplace(tasks[i]());
                } catch (...) {
                    error = std::current_exception();
                }
                std::lock_guard<std::mutex> lock(mutex);
                results[i] = std::move(value);
                errors[i] = error;
            }
        };
        const std::size_t extra =
            std::min<std::size_t>(jobs_, std::max<std::size_t>(n, 1)) - 1;
        std::vector<std::thread> crew;
        crew.reserve(extra);
        for (std::size_t t = 0; t < extra; ++t) {
            try {
                crew.emplace_back(worker);
            } catch (const std::system_error&) {
                break; // fewer workers change wall time, not results
            }
        }
        worker();
        for (std::thread& t : crew)
            t.join();
        for (const std::exception_ptr& e : errors) {
            if (e)
                std::rethrow_exception(e);
        }
        return results;
    }

    /** Run every task; results in task order (see the rule overload). */
    template <typename T>
    std::vector<T>
    map(std::vector<std::function<T()>> tasks) const
    {
        std::vector<T> out;
        out.reserve(tasks.size());
        for (std::optional<T>& r : map(std::move(tasks), ReadRule<T>{}))
            out.push_back(std::move(*r));
        return out;
    }

  private:
    unsigned jobs_ = 1;
};

} // namespace footprint

#endif // FOOTPRINT_EXEC_EXEC_CONTEXT_HPP
