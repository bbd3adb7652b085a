/**
 * @file
 * Tests for the execution engine: SpinBarrier, and ExecContext::map's
 * ordered runner — result order, exception propagation, the jobs
 * bound on concurrency and the read rule.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/exec_context.hpp"
#include "exec/spin_barrier.hpp"

namespace footprint {
namespace {

TEST(SpinBarrier, SynchronizesPhasesAcrossThreads)
{
    constexpr int kParties = 4;
    constexpr int kRounds = 50;
    SpinBarrier barrier(kParties);
    std::atomic<int> counter{0};
    std::atomic<bool> failed{false};

    auto body = [&]() {
        for (int r = 0; r < kRounds; ++r) {
            counter.fetch_add(1, std::memory_order_relaxed);
            barrier.arriveAndWait();
            // Between the two barriers nobody increments, so every
            // thread must observe the full round's count.
            if (counter.load(std::memory_order_relaxed)
                != kParties * (r + 1))
                failed.store(true, std::memory_order_relaxed);
            barrier.arriveAndWait();
        }
    };
    std::vector<std::thread> crew;
    for (int t = 0; t < kParties - 1; ++t)
        crew.emplace_back(body);
    body();
    for (auto& th : crew)
        th.join();
    EXPECT_FALSE(failed.load());
    EXPECT_EQ(counter.load(), kParties * kRounds);
}

TEST(SpinBarrier, SinglePartyNeverBlocks)
{
    SpinBarrier barrier(1);
    for (int i = 0; i < 10; ++i)
        barrier.arriveAndWait();
    SUCCEED();
}

TEST(ExecContext, MapReturnsResultsInTaskOrder)
{
    for (unsigned jobs : {1u, 4u}) {
        ExecContext ctx(jobs);
        std::vector<std::function<int()>> tasks;
        for (int i = 0; i < 32; ++i)
            tasks.push_back([i]() { return i * i; });
        const std::vector<int> out = ctx.map(std::move(tasks));
        ASSERT_EQ(out.size(), 32u) << "jobs=" << jobs;
        for (int i = 0; i < 32; ++i)
            EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
    }
}

TEST(ExecContext, MapFinishesAllTasksBeforeRethrowing)
{
    ExecContext ctx(4);
    std::atomic<int> ran{0};
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 16; ++i) {
        tasks.push_back([&ran, i]() -> int {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (i == 3)
                throw std::runtime_error("task 3 failed");
            return i;
        });
    }
    EXPECT_THROW(ctx.map(std::move(tasks)), std::runtime_error);
    // No task is abandoned: every job completed despite the failure.
    EXPECT_EQ(ran.load(), 16);
}

TEST(ExecContext, SequentialContextRunsInline)
{
    // One job: every task runs on the caller, in submission order.
    ExecContext ctx(1);
    EXPECT_EQ(ctx.jobs(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<int> order;
    std::vector<std::function<std::thread::id()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([&order, i]() {
            order.push_back(i);
            return std::this_thread::get_id();
        });
    }
    for (const std::thread::id id : ctx.map(std::move(tasks)))
        EXPECT_EQ(id, caller);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(ExecContext, ZeroJobsMeansHardwareConcurrency)
{
    const unsigned hw = std::thread::hardware_concurrency();
    EXPECT_EQ(ExecContext(0).jobs(), hw > 0 ? hw : 1u);
}

TEST(ExecContext, MapRunsEveryTaskExactlyOnce)
{
    ExecContext ctx(3);
    std::vector<std::atomic<int>> hits(1000);
    std::vector<std::function<int()>> tasks;
    for (std::size_t i = 0; i < hits.size(); ++i) {
        tasks.push_back([&hits, i]() {
            return hits[i].fetch_add(1, std::memory_order_relaxed);
        });
    }
    ctx.map(std::move(tasks));
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ExecContext, MapRethrowsFirstExceptionInTaskOrder)
{
    ExecContext ctx(2);
    std::atomic<int> ran{0};
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 8; ++i) {
        tasks.push_back([&ran, i]() -> int {
            ran.fetch_add(1, std::memory_order_relaxed);
            if (i == 6)
                throw std::logic_error("task 6 failed");
            if (i == 2) {
                // Fails after task 6 has had time to fail first.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                throw std::runtime_error("task 2 failed");
            }
            return i;
        });
    }
    try {
        ctx.map(std::move(tasks));
        ADD_FAILURE() << "map should rethrow";
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "task 2 failed");
    }
    // A failure never strands later tasks.
    EXPECT_EQ(ran.load(), 8);
}

TEST(ExecContext, MapHandlesEmptyAndSingleTaskBatches)
{
    ExecContext ctx(4);
    EXPECT_TRUE(ctx.map(std::vector<std::function<int()>>{}).empty());
    std::vector<std::function<int()>> one;
    one.push_back([]() { return 7; });
    EXPECT_EQ(ctx.map(std::move(one)), std::vector<int>{7});
}

TEST(ExecContext, NeverRunsMoreThanJobsTasksAtOnce)
{
    for (unsigned jobs : {2u, 4u}) {
        ExecContext ctx(jobs);
        std::atomic<int> running{0};
        std::atomic<int> peak{0};
        std::vector<std::function<int()>> tasks;
        for (unsigned i = 0; i < 4 * jobs; ++i) {
            tasks.push_back([&running, &peak]() {
                const int now = running.fetch_add(1) + 1;
                int seen = peak.load();
                while (now > seen && !peak.compare_exchange_weak(seen, now)) {
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                running.fetch_sub(1);
                return 0;
            });
        }
        ctx.map(std::move(tasks));
        EXPECT_EQ(peak.load(), static_cast<int>(jobs)) << "jobs=" << jobs;
    }
}

TEST(ExecContext, ReadRuleStartsOnlyReadableTasks)
{
    // Task i returns i; the rule stops reading once task 5's result is
    // known, so a reader sees exactly tasks 0..5.
    constexpr std::size_t kTasks = 64;
    constexpr std::size_t kLastRead = 5;
    auto run = [&](unsigned jobs, std::set<std::size_t>& started,
                   std::size_t& refused) {
        std::mutex m;
        std::vector<std::function<std::size_t()>> tasks;
        for (std::size_t i = 0; i < kTasks; ++i) {
            tasks.push_back([&m, &started, i]() {
                std::lock_guard<std::mutex> lock(m);
                EXPECT_TRUE(started.insert(i).second) << "rerun " << i;
                return i;
            });
        }
        refused = kTasks;
        ExecContext ctx(jobs);
        return ctx.map(
            std::move(tasks),
            [&](std::size_t i,
                const std::vector<std::optional<std::size_t>>& done) {
                EXPECT_EQ(refused, kTasks) << "asked again after refusing";
                if (done[kLastRead])
                    refused = i;
                return !done[kLastRead];
            });
    };

    std::set<std::size_t> started1;
    std::size_t refused1 = 0;
    const auto one = run(1, started1, refused1);
    // One job: exactly the prefix up to the rule is started.
    EXPECT_EQ(refused1, kLastRead + 1);
    EXPECT_EQ(started1.size(), kLastRead + 1);
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(one[i].has_value(), i <= kLastRead) << i;

    std::set<std::size_t> started4;
    std::size_t refused4 = 0;
    const auto four = run(4, started4, refused4);
    // Four jobs: the read prefix matches one job, and no index at or
    // past the refused one was started.
    ASSERT_GT(refused4, kLastRead);
    for (std::size_t i = 0; i <= kLastRead; ++i)
        EXPECT_EQ(four[i], one[i]) << i;
    EXPECT_EQ(started4.size(), refused4);
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(four[i].has_value(), i < refused4) << i;
}

} // namespace
} // namespace footprint
