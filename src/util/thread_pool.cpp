#include "rebudget/util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>

#include "rebudget/util/logging.h"

namespace rebudget::util {

unsigned
ThreadPool::defaultThreadCount()
{
    if (const char *env = std::getenv("REBUDGET_JOBS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1)
            return static_cast<unsigned>(v);
    }
    // The CPUs the calling thread may run on, not the machine's: a
    // thread pinned to one CPU (whose workers inherit its mask) gets one.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        const int n = CPU_COUNT(&allowed);
        if (n >= 1)
            return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1u;
}

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads == 0 ? defaultThreadCount() : threads)
{
    if (threads_ <= 1)
        return; // inline mode: no workers
    workers_.reserve(threads_);
    try {
        for (unsigned t = 0; t < threads_; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (...) {
        // Spawning worker t failed (resource exhaustion).  The t
        // already-running workers are joinable; leaving them behind
        // would std::terminate when the vector destructs.  Stop and
        // join them, then let the spawn error propagate.
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stop_ = true;
        }
        cv_.notify_all();
        for (auto &w : workers_)
            w.join();
        throw;
    }
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    // Workers drain the queue before exiting (workerLoop only returns
    // on stop_ && empty), so join() cannot deadlock on pending work --
    // it blocks exactly until the last queued task has run.
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (workers_.empty()) {
        runContained(task);
        return;
    }
    post(std::move(task));
}

void
ThreadPool::post(std::function<void()> task)
{
    if (workers_.empty()) {
        task();
        return;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::runContained(const std::function<void()> &task)
{
    // Last-resort containment for fire-and-forget tasks: an exception
    // escaping a worker thread would std::terminate the whole process
    // (including during the destructor's drain, where it would strand
    // the remaining join()s).  parallelFor bodies never reach this
    // handler -- they are wrapped with a rethrowing catch before being
    // queued.
    try {
        task();
    } catch (const std::exception &e) {
        warn("thread-pool task threw: %s", e.what());
    } catch (...) {
        warn("thread-pool task threw a non-exception");
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to drain
            task = std::move(queue_.front());
            queue_.pop();
        }
        runContained(task);
    }
}

void
ThreadPool::parallelFor(size_t count,
                        const std::function<void(size_t)> &body)
{
    if (count == 0)
        return;
    if (workers_.empty() || count == 1) {
        for (size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    // Shared loop state: a cursor handing out indices, a completion
    // counter, and the first exception (workers stop taking new indices
    // once one is recorded).
    struct ForState
    {
        std::atomic<size_t> next{0};
        std::atomic<bool> cancelled{false};
        std::exception_ptr error;
        std::mutex mutex;
        std::condition_variable done_cv;
        size_t tasks_finished = 0;
    };
    auto state = std::make_shared<ForState>();
    const size_t tasks =
        std::min<size_t>(static_cast<size_t>(threads_), count);

    for (size_t t = 0; t < tasks; ++t) {
        post([state, count, &body] {
            for (;;) {
                if (state->cancelled.load(std::memory_order_relaxed))
                    break;
                const size_t i =
                    state->next.fetch_add(1, std::memory_order_relaxed);
                if (i >= count)
                    break;
                try {
                    body(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(state->mutex);
                    if (!state->error)
                        state->error = std::current_exception();
                    state->cancelled.store(true,
                                           std::memory_order_relaxed);
                }
            }
            {
                std::lock_guard<std::mutex> lock(state->mutex);
                ++state->tasks_finished;
            }
            state->done_cv.notify_one();
        });
    }

    std::unique_lock<std::mutex> lock(state->mutex);
    state->done_cv.wait(lock,
                        [&] { return state->tasks_finished == tasks; });
    if (state->error)
        std::rethrow_exception(state->error);
}

void
parallelFor(unsigned jobs, size_t count,
            const std::function<void(size_t)> &body)
{
    ThreadPool pool(jobs);
    pool.parallelFor(count, body);
}

} // namespace rebudget::util
