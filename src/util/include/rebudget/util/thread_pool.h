#ifndef REBUDGET_UTIL_THREAD_POOL_H_
#define REBUDGET_UTIL_THREAD_POOL_H_

/**
 * @file
 * Fixed-size worker pool and a deterministic parallel-for.
 *
 * parallelFor() distributes loop indices over the pool with a shared
 * atomic cursor (dynamic scheduling), so unevenly sized work items load
 * balance.  Determinism contract: body(i) must depend only on i and on
 * state that is read-only during the loop, and must write only to state
 * owned by index i (e.g. results[i]).  Under that contract the results
 * are byte-identical at any thread count -- the property the evaluation
 * engine (eval::BundleRunner) relies on and tests/eval asserts.
 */

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace rebudget::util {

/** Fixed-size worker pool; tasks are arbitrary void() callables. */
class ThreadPool
{
  public:
    /**
     * @param threads  worker count; 0 picks defaultThreadCount().  A
     *                 pool of size 1 spawns no worker threads and runs
     *                 everything inline in the calling thread.
     *
     * If spawning the Nth worker thread fails, the already-running
     * workers are stopped and joined before the error propagates --
     * a half-built pool never leaks joinable threads (which would
     * std::terminate on destruction).
     */
    explicit ThreadPool(unsigned threads = 0);

    /**
     * Drains outstanding tasks, then joins the workers.
     *
     * Teardown contract: every task submitted before destruction RUNS
     * (drain, not cancel -- a parallelFor blocked in another thread
     * must still complete), destruction blocks until the queue is
     * empty and all workers have exited, and a task that throws during
     * the drain is contained (see submit) rather than terminating the
     * process mid-join.  tests/eval/thread_pool_test.cpp destroys
     * pools with queued work (including throwing tasks) under TSan to
     * pin this down.
     */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return the pool's logical size (>= 1; 1 means inline). */
    unsigned size() const { return threads_; }

    /**
     * Resolve the job count used when a caller passes 0: the
     * REBUDGET_JOBS environment variable if set to a positive integer,
     * else the number of CPUs in the calling thread's affinity mask
     * (sched_getaffinity), else std::thread::hardware_concurrency(),
     * else 1.
     */
    static unsigned defaultThreadCount();

    /**
     * Run body(i) for every i in [0, count), then return.  Indices are
     * handed out dynamically; the first exception thrown by any body is
     * rethrown in the caller once the remaining workers have stopped
     * picking up new indices (indices already started still finish).
     *
     * See the file comment for the determinism contract.
     */
    void parallelFor(size_t count,
                     const std::function<void(size_t)> &body);

    /**
     * Queue a fire-and-forget task (run inline when the pool has no
     * workers).  Tasks queued at destruction time are drained, not
     * cancelled.  A task that lets an exception escape does NOT take
     * the process down: the exception is caught in the worker and
     * reported as a warning, because a background task has no caller
     * frame to rethrow into (parallelFor keeps its own rethrow path --
     * its bodies are wrapped before they reach the queue).
     */
    void submit(std::function<void()> task);

  private:
    void post(std::function<void()> task);
    static void runContained(const std::function<void()> &task);
    void workerLoop();

    unsigned threads_;
    std::vector<std::thread> workers_;
    std::queue<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/**
 * One-shot parallelFor on a transient pool.
 *
 * @param jobs   thread count (0 = ThreadPool::defaultThreadCount())
 * @param count  number of loop indices
 * @param body   per-index work; see ThreadPool::parallelFor
 */
void parallelFor(unsigned jobs, size_t count,
                 const std::function<void(size_t)> &body);

} // namespace rebudget::util

#endif // REBUDGET_UTIL_THREAD_POOL_H_
