/**
 * @file
 * Unit tests for VC state tracking: masks, input VC lifecycle, and the
 * output-VC owner/credit registers that define footprint VCs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "expect_panic.hpp"
#include "router/vc_state.hpp"

namespace footprint {
namespace {

TEST(VcMaskHelpers, MaskOfFirst)
{
    EXPECT_EQ(maskOfFirst(0), 0u);
    EXPECT_EQ(maskOfFirst(1), 0b1u);
    EXPECT_EQ(maskOfFirst(4), 0b1111u);
    EXPECT_EQ(maskOfFirst(10), 0x3FFu);
    EXPECT_EQ(maskOfFirst(64), ~VcMask{0});
}

TEST(VcMaskHelpers, Popcount)
{
    EXPECT_EQ(popcount(0), 0);
    EXPECT_EQ(popcount(0b1011), 3);
    EXPECT_EQ(popcount(~VcMask{0}), 64);
}

TEST(VcMaskHelpers, PopcountMatchesStdPopcountOnEdgeMasks)
{
    static_assert(popcount(~VcMask{0}) == 64, "usable in constexpr");
    std::vector<VcMask> masks = {
        0x5555555555555555ULL, 0xAAAAAAAAAAAAAAAAULL,
        0x8000000000000001ULL, 0x0F0F0F0F0F0F0F0FULL,
        0xF0F0F0F0F0F0F0F0ULL, 0x00000000FFFFFFFFULL,
        0xFFFFFFFF00000000ULL, 0x0123456789ABCDEFULL,
    };
    for (int n = 0; n <= 64; ++n) {
        masks.push_back(maskOfFirst(n));
        masks.push_back(~maskOfFirst(n));
        if (n < 64) {
            masks.push_back(VcMask{1} << n);
            masks.push_back(~(VcMask{1} << n));
        }
    }
    for (const VcMask m : masks)
        EXPECT_EQ(popcount(m), std::popcount(m)) << std::hex << m;
}

TEST(OutVcState, FreshStateIsIdle)
{
    OutVcState s(4);
    EXPECT_TRUE(s.idle());
    EXPECT_FALSE(s.busy());
    EXPECT_FALSE(s.occupied());
    EXPECT_EQ(s.credits(), 4);
    EXPECT_EQ(s.ownerDest(), -1);
}

TEST(OutVcState, AllocateSetsOwnerAndBusy)
{
    OutVcState s(4);
    s.allocate(13);
    EXPECT_TRUE(s.busy());
    EXPECT_TRUE(s.occupied());
    EXPECT_FALSE(s.idle());
    EXPECT_EQ(s.ownerDest(), 13);
}

TEST(OutVcState, TailSentClearsBusyKeepsOwner)
{
    OutVcState s(4);
    s.allocate(13);
    s.consumeCredit();
    s.tailSent();
    EXPECT_FALSE(s.busy());
    // Flit still downstream (credit outstanding): occupied.
    EXPECT_TRUE(s.occupied());
    EXPECT_EQ(s.ownerDest(), 13);
    s.returnCredit();
    EXPECT_FALSE(s.occupied());
    EXPECT_TRUE(s.idle());
    // Owner register persists after drain (footprint memory).
    EXPECT_EQ(s.ownerDest(), 13);
}

TEST(OutVcState, CreditAccounting)
{
    OutVcState s(2);
    s.allocate(5);
    s.consumeCredit();
    EXPECT_EQ(s.credits(), 1);
    s.consumeCredit();
    EXPECT_EQ(s.credits(), 0);
    s.returnCredit();
    s.returnCredit();
    EXPECT_EQ(s.credits(), 2);
}

TEST(OutVcState, AtomicReallocationWaitsForCredits)
{
    OutVcState s(4);
    s.allocate(9);
    s.consumeCredit();
    s.tailSent();
    // Tail sent but credit outstanding: non-atomic may reallocate,
    // atomic (Duato-based) may not.
    EXPECT_TRUE(s.allocatable(false));
    EXPECT_FALSE(s.allocatable(true));
    s.returnCredit();
    EXPECT_TRUE(s.allocatable(true));
}

TEST(OutVcState, BusyIsNeverAllocatable)
{
    OutVcState s(4);
    s.allocate(9);
    EXPECT_FALSE(s.allocatable(false));
    EXPECT_FALSE(s.allocatable(true));
}

TEST(OutVcState, ReallocationOverwritesOwner)
{
    OutVcState s(4);
    s.allocate(9);
    s.tailSent();
    s.allocate(22);
    EXPECT_EQ(s.ownerDest(), 22);
}

TEST(OutVcStateDeath, DoubleAllocatePanics)
{
    OutVcState s(4);
    s.allocate(1);
    EXPECT_PANIC(s.allocate(2), "busy output VC");
}

TEST(OutVcStateDeath, CreditUnderflowPanics)
{
    OutVcState s(1);
    s.allocate(1);
    s.consumeCredit();
    EXPECT_PANIC(s.consumeCredit(), "credit");
}

TEST(OutVcStateDeath, CreditOverflowPanics)
{
    OutVcState s(1);
    EXPECT_PANIC(s.returnCredit(), "overflow");
}

TEST(InputVc, LifecycleAndRelease)
{
    InputVc vc;
    EXPECT_EQ(vc.state, InputVc::State::Idle);
    EXPECT_TRUE(vc.empty());
    vc.buffer.reset(4); // FIFOs start with zero capacity
    Flit f;
    f.head = true;
    vc.buffer.push_back(f);
    EXPECT_EQ(vc.occupancy(), 1u);
    vc.state = InputVc::State::Active;
    vc.outPort = 2;
    vc.outVc = 3;
    vc.releaseRoute();
    EXPECT_EQ(vc.state, InputVc::State::Idle);
    EXPECT_EQ(vc.outPort, -1);
    EXPECT_EQ(vc.outVc, -1);
}

} // namespace
} // namespace footprint
