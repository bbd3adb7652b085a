/**
 * @file
 * The per-cycle active set behind activity-driven stepping.
 *
 * Components (routers and endpoints) are identified by a dense integer
 * id. During cycle t anyone may wake() a component for cycle t+1; at
 * the start of cycle t+1 each shard drainRange()s its id range of the
 * pending set into the cycle's active list, ascending by component
 * id, so activity-driven stepping visits components in exactly the
 * order full stepping does.
 * (Within a phase the order is observationally irrelevant — phases are
 * global barriers and channels are latency-gated — but keeping the
 * order identical makes per-component RNG and pool-allocation
 * sequences trivially bit-identical too.)
 *
 * The pending set is a bitmap of atomic words, so wake() is safe from
 * concurrent shard workers: setting a bit is an idempotent,
 * commutative OR, which makes the drained bitmap independent of the
 * order wakes land in — the cornerstone of sharded stepping's
 * determinism. Relaxed ordering suffices because every drain is
 * separated from the wakes it collects by a phase barrier. On the
 * serial hot path wake() stays cheap via test-and-test-and-set: most
 * wakes re-set an already-set bit and skip the RMW entirely.
 *
 * Sharded stepping drains disjoint id ranges concurrently with
 * drainRange(): boundary words shared by two shards are split with
 * per-range bit masks and fetch_and, so each shard extracts exactly
 * its own components.
 */

#ifndef FOOTPRINT_SIM_ACTIVE_SET_HPP
#define FOOTPRINT_SIM_ACTIVE_SET_HPP

#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace footprint {

class ActiveSet
{
  public:
    /** Size for @p num_components ids; clears any pending wakes. */
    void
    init(int num_components)
    {
        n_ = num_components;
        nwords_ = static_cast<std::size_t>((num_components + 63) / 64);
        // Cache-line-aligned word array: shard partition boundaries
        // round to whole words (64 components = 32 nodes), so with
        // the base aligned too, neighboring shards' drainRange
        // exchanges never touch the same cache line.
        words_.reset(new (std::align_val_t{64})
                         std::atomic<std::uint64_t>[nwords_]);
        for (std::size_t i = 0; i < nwords_; ++i)
            words_[i].store(0, std::memory_order_relaxed);
    }

    int size() const { return n_; }

    /** Schedule component @p comp for the next cycle (idempotent). */
    void
    wake(int comp)
    {
        std::atomic<std::uint64_t>& w =
            words_[static_cast<std::size_t>(comp) >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (comp & 63);
        if ((w.load(std::memory_order_relaxed) & bit) == 0)
            w.fetch_or(bit, std::memory_order_relaxed);
    }

    /** Schedule every component (full step / non-contiguous cycle). */
    void
    wakeAll()
    {
        if (nwords_ == 0)
            return;
        for (std::size_t i = 0; i < nwords_; ++i)
            words_[i].store(~std::uint64_t{0},
                            std::memory_order_relaxed);
        if ((n_ & 63) != 0)
            words_[nwords_ - 1].store(
                (std::uint64_t{1} << (n_ & 63)) - 1,
                std::memory_order_relaxed);
    }

    /** @return true if @p comp is scheduled for the next cycle. */
    bool
    pending(int comp) const
    {
        const std::uint64_t w =
            words_[static_cast<std::size_t>(comp) >> 6].load(
                std::memory_order_relaxed);
        return ((w >> (comp & 63)) & 1) != 0;
    }

    /**
     * @return true if no component is scheduled for the next cycle.
     * Relaxed loads are sufficient: callers only consult this from
     * the serial section between steps, after the shard crew's join
     * barrier.
     */
    bool
    pendingEmpty() const
    {
        for (std::size_t i = 0; i < nwords_; ++i)
            if (words_[i].load(std::memory_order_relaxed) != 0)
                return false;
        return true;
    }

    /**
     * Drain pending components with begin <= id < end, appending them
     * to @p out ascending and clearing their bits. Safe to call
     * concurrently for disjoint ranges; wakes raised concurrently for
     * ids inside the range may land in either this cycle's list or the
     * pending set (callers must order wakes vs. drains with barriers
     * when that matters).
     */
    void
    drainRange(int begin, int end, std::vector<int>& out)
    {
        if (begin >= end)
            return;
        const std::size_t w0 = static_cast<std::size_t>(begin) >> 6;
        const std::size_t w1 = static_cast<std::size_t>(end - 1) >> 6;
        for (std::size_t wi = w0; wi <= w1; ++wi) {
            std::uint64_t mask = ~std::uint64_t{0};
            if (wi == w0 && (begin & 63) != 0)
                mask &= ~std::uint64_t{0} << (begin & 63);
            if (wi == w1 && (end & 63) != 0)
                mask &= ~std::uint64_t{0} >> (64 - (end & 63));
            std::uint64_t bits;
            if (mask == ~std::uint64_t{0}) {
                bits = words_[wi].exchange(0,
                                           std::memory_order_relaxed);
            } else {
                bits = words_[wi].fetch_and(
                           ~mask, std::memory_order_relaxed)
                    & mask;
            }
            const int base = static_cast<int>(wi) * 64;
            for (; bits != 0; bits &= bits - 1)
                out.push_back(base + std::countr_zero(bits));
        }
    }

  private:
    /** Deleter matching the over-aligned array new in init(). */
    struct AlignedDelete
    {
        void
        operator()(std::atomic<std::uint64_t>* p) const
        {
            ::operator delete[](p, std::align_val_t{64});
        }
    };

    int n_ = 0;
    std::size_t nwords_ = 0;
    /** Pending bitmap, 64-byte aligned. */
    std::unique_ptr<std::atomic<std::uint64_t>[], AlignedDelete> words_;
};

} // namespace footprint

#endif // FOOTPRINT_SIM_ACTIVE_SET_HPP
