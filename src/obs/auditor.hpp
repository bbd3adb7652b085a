/**
 * @file
 * Runtime invariant auditor: a periodic checker that walks the whole
 * network and verifies the structural invariants the simulator's
 * correctness rests on — global flit conservation, per-link credit
 * conservation, VC state-machine legality, and escape-VC routing
 * legality for Duato-based algorithms.
 *
 * The auditor is pull-based and runs entirely off the hot path: the
 * driver calls tick(cycle) once per cycle, which is a single compare
 * until the audit interval elapses; a full audit then inspects router
 * and channel state through const accessors without mutating anything.
 * Violations are recorded (not thrown) so a run can complete, report,
 * and dump forensic state.
 */

#ifndef FOOTPRINT_OBS_AUDITOR_HPP
#define FOOTPRINT_OBS_AUDITOR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "obs/run_observer.hpp"

namespace footprint {

class Network;

/**
 * Periodic whole-network invariant checker.
 *
 * Checks performed per audit (see DESIGN.md "Invariant auditing"):
 *  - flit_conservation: flits injected - flits ejected equals flits
 *    resident in buffers, FIFOs, channels, and sinks.
 *  - credit_conservation: for every link and VC, upstream credits +
 *    upstream output-FIFO flits + in-flight flits + downstream buffer
 *    occupancy + in-flight credits == the VC buffer size.
 *  - vc_legality: input-VC state machine and output-VC allocation
 *    invariants (head flit at front of an idle/routing VC, Active VCs
 *    point at busy output VCs with matching owners, exactly one Active
 *    input VC per busy output VC, credits within bounds, at most one
 *    packet per buffer under atomic reallocation).
 *  - escape_legality: occupied escape VCs (VC 0) sit on the
 *    dimension-order output port toward their owner destination, the
 *    property Duato-based deadlock freedom relies on.
 */
class InvariantAuditor final : public RunObserver
{
  public:
    struct Params
    {
        /** Cycles between audits; <= 0 disables periodic audits. */
        std::int64_t interval = 1000;
        /** Violations retained verbatim (all are still counted). */
        std::size_t maxRecorded = 64;
    };

    /** One failed invariant check. */
    struct Violation
    {
        std::string check;  ///< "flit_conservation", "vc_legality", ...
        int node = -1;      ///< router involved; -1 for global checks
        std::string detail; ///< human-readable specifics
        std::int64_t cycle = 0;

        std::string toString() const;
    };

    InvariantAuditor(const Network& net, const Params& params);

    /**
     * Per-cycle hook: runs a full audit when the interval has elapsed
     * since the previous one; otherwise a single compare.
     */
    void
    tick(std::int64_t cycle) override
    {
        if (params_.interval <= 0 || cycle < nextDue_)
            return;
        auditNow(cycle);
    }

    /**
     * Next cycle at which tick() will audit (kNever when auditing is
     * off). The skip-ahead fast path clamps its horizon here so a
     * jump never overshoots a due audit — re-arming late would shift
     * every subsequent audit cycle.
     */
    std::int64_t
    nextDueCycle() const override
    {
        return params_.interval <= 0 ? kNever : nextDue_;
    }

    /** Set RunStats::auditViolations. */
    void finish(std::int64_t cycle, RunStats& stats) override;

    /** Point the dump at the retained violations. */
    void annotateDump(StateDumpContext& ctx) const override;

    /**
     * Run every check immediately (also re-arms the interval).
     * @return number of new violations found by this audit.
     */
    std::size_t auditNow(std::int64_t cycle);

    /** Total violations across all audits (recorded or not). */
    std::uint64_t violationCount() const { return violationCount_; }

    /** Audits executed so far. */
    std::uint64_t auditsRun() const { return auditsRun_; }

    bool clean() const { return violationCount_ == 0; }

    /** Retained violations, oldest first (capped at maxRecorded). */
    const std::vector<Violation>& violations() const
    {
        return violations_;
    }

  private:
    void checkFlitConservation(std::int64_t cycle);
    void checkCreditConservation(std::int64_t cycle);
    void checkVcLegality(std::int64_t cycle);
    void checkEscapeLegality(std::int64_t cycle);

    void report(const std::string& check, int node, std::string detail,
                std::int64_t cycle);

    const Network* net_;
    Params params_;
    std::int64_t nextDue_ = 0;
    std::uint64_t auditsRun_ = 0;
    std::uint64_t violationCount_ = 0;
    std::vector<Violation> violations_;
};

} // namespace footprint

#endif // FOOTPRINT_OBS_AUDITOR_HPP
