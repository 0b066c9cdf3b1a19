/**
 * @file
 * util::ThreadPool / parallelFor: full index coverage, determinism of
 * index-addressed writes at any thread count, exception propagation,
 * and the REBUDGET_JOBS / affinity-mask sizing rules.
 */

#include <gtest/gtest.h>

#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "rebudget/util/thread_pool.h"

using namespace rebudget::util;

TEST(ThreadPool, SizeOneRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1u);
    std::vector<int> hit(17, 0);
    pool.parallelFor(hit.size(), [&](size_t i) { hit[i] = 1; });
    EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), 0), 17);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    for (unsigned threads : {1u, 2u, 3u, 8u}) {
        ThreadPool pool(threads);
        std::vector<std::atomic<int>> hits(101);
        for (auto &h : hits)
            h.store(0);
        pool.parallelFor(hits.size(),
                         [&](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ThreadPool, ZeroCountIsANoop)
{
    ThreadPool pool(4);
    bool touched = false;
    pool.parallelFor(0, [&](size_t) { touched = true; });
    EXPECT_FALSE(touched);
}

TEST(ThreadPool, ReusableAcrossCalls)
{
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::vector<int> out(64, -1);
        pool.parallelFor(out.size(),
                         [&](size_t i) { out[i] = static_cast<int>(i); });
        for (size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], static_cast<int>(i));
    }
}

TEST(ThreadPool, IndexAddressedWritesAreDeterministic)
{
    // The determinism contract: body(i) writing only slot i produces
    // identical results at any thread count.
    auto run = [](unsigned threads) {
        ThreadPool pool(threads);
        std::vector<double> out(200);
        pool.parallelFor(out.size(), [&](size_t i) {
            double v = static_cast<double>(i);
            for (int k = 0; k < 50; ++k)
                v = v * 1.0000001 + 0.5;
            out[i] = v;
        });
        return out;
    };
    const auto serial = run(1);
    EXPECT_EQ(serial, run(2));
    EXPECT_EQ(serial, run(5));
}

TEST(ThreadPool, ExceptionsPropagateToCaller)
{
    for (unsigned threads : {1u, 4u}) {
        ThreadPool pool(threads);
        EXPECT_THROW(
            pool.parallelFor(32,
                             [](size_t i) {
                                 if (i == 7)
                                     throw std::runtime_error("boom");
                             }),
            std::runtime_error);
        // The pool must stay usable after a failed run.
        std::vector<int> out(8, 0);
        pool.parallelFor(out.size(), [&](size_t i) { out[i] = 1; });
        EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 8);
    }
}

TEST(ThreadPool, DefaultThreadCountIsPositive)
{
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1u);
}

namespace {

// Pins the calling thread to its first allowed CPU and clears
// REBUDGET_JOBS; the destructor restores both.
class PinnedToOneCpu
{
  public:
    PinnedToOneCpu()
    {
        if (const char *jobs = std::getenv("REBUDGET_JOBS"))
            savedJobs_ = jobs;
        ::unsetenv("REBUDGET_JOBS");
        CPU_ZERO(&saved_);
        ok_ = ::sched_getaffinity(0, sizeof(saved_), &saved_) == 0;
        for (int cpu = 0; ok_ && cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &saved_)) {
                cpu_set_t one;
                CPU_ZERO(&one);
                CPU_SET(cpu, &one);
                ok_ = ::sched_setaffinity(0, sizeof(one), &one) == 0;
                break;
            }
        }
    }
    ~PinnedToOneCpu()
    {
        ::sched_setaffinity(0, sizeof(saved_), &saved_);
        if (!savedJobs_.empty())
            ::setenv("REBUDGET_JOBS", savedJobs_.c_str(), 1);
    }
    bool ok() const { return ok_; }
    int allowed() const { return CPU_COUNT(&saved_); }

  private:
    cpu_set_t saved_;
    std::string savedJobs_;
    bool ok_ = false;
};

} // namespace

TEST(ThreadPool, DefaultThreadCountFollowsTheAffinityMask)
{
    unsigned allowed = 0;
    {
        PinnedToOneCpu pin;
        ASSERT_TRUE(pin.ok());
        EXPECT_EQ(ThreadPool::defaultThreadCount(), 1u);
        // A pool sized by default on a pinned thread runs inline.
        EXPECT_EQ(ThreadPool().size(), 1u);
        allowed = static_cast<unsigned>(pin.allowed());
    }
    // Unpinned again: one worker per CPU of the original mask.
    if (std::getenv("REBUDGET_JOBS") == nullptr) {
        EXPECT_EQ(ThreadPool::defaultThreadCount(), allowed);
    }
}

TEST(ThreadPool, JobsVariableOverridesTheAffinityMask)
{
    PinnedToOneCpu pin;
    ASSERT_TRUE(pin.ok());
    ::setenv("REBUDGET_JOBS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
    ::unsetenv("REBUDGET_JOBS");
}

TEST(ThreadPool, FreeFunctionParallelFor)
{
    std::vector<int> out(33, 0);
    parallelFor(2, out.size(), [&](size_t i) { out[i] = 1; });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 33);
}

TEST(ThreadPool, SubmitRunsInlineOnSizeOne)
{
    ThreadPool pool(1);
    bool ran = false;
    pool.submit([&] { ran = true; });
    EXPECT_TRUE(ran); // no workers: submit executes in the caller
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    // Teardown contract: every task submitted before destruction RUNS.
    // Queue far more tasks than workers and destroy immediately, so
    // most of the queue is still pending when the destructor begins.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 200; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
    }
    EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, DestructorDrainsThrowingTasksWithoutTerminating)
{
    // A queued task that throws during the drain must be contained
    // (warned about), not std::terminate the join -- and it must not
    // cancel the tasks queued behind it.
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i) {
            pool.submit([&ran, i] {
                if (i % 3 == 0)
                    throw std::runtime_error("background boom");
                ran.fetch_add(1);
            });
        }
    }
    // 64 tasks, every third throws: 64 - 22 = 42 complete normally.
    EXPECT_EQ(ran.load(), 42);
}

TEST(ThreadPool, DestructionStressManyPoolsWithPendingWork)
{
    // Shutdown race stress (run under TSan via eval_determinism):
    // repeatedly build a pool, flood it, and tear it down while the
    // workers are mid-queue.  Any lost wakeup or double-pop shows up
    // as a hang (test timeout) or a miscount.
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> ran{0};
        {
            ThreadPool pool(3);
            for (int i = 0; i < 50; ++i)
                pool.submit([&ran] { ran.fetch_add(1); });
        }
        ASSERT_EQ(ran.load(), 50) << "round " << round;
    }
}

TEST(ThreadPool, SubmitThenParallelForInterleave)
{
    // Fire-and-forget tasks and parallelFor share the queue; a
    // parallelFor issued after submits must still cover every index
    // and the submits must all run by destruction.
    std::atomic<int> background{0};
    std::vector<int> out(64, 0);
    {
        ThreadPool pool(4);
        for (int i = 0; i < 32; ++i)
            pool.submit([&background] { background.fetch_add(1); });
        pool.parallelFor(out.size(), [&](size_t i) { out[i] = 1; });
        EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 64);
    }
    EXPECT_EQ(background.load(), 32);
}
