/**
 * @file
 * Fixed-size worker pool draining a shared FIFO work queue.
 *
 * Deliberately minimal: the experiment runner only needs "run these N
 * independent closures on K threads and tell me when they are all
 * done", so there is no futures machinery — tasks communicate through
 * whatever state they capture.
 */

#ifndef DGSIM_RUNNER_THREAD_POOL_HH
#define DGSIM_RUNNER_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dgsim::runner
{

/**
 * A pool of worker threads pulling tasks off a shared queue.
 *
 * Tasks must not throw: the experiment runner wraps every job in its
 * own try/catch so a failing job is recorded, not propagated. The pool
 * itself treats an escaping exception as a bug (std::terminate).
 */
class ThreadPool
{
  public:
    /** Spawn @p threads workers (clamped to at least one). */
    explicit ThreadPool(unsigned threads);

    /** Drains the queue, then joins all workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task; any worker may pick it up. */
    void submit(std::function<void()> task);

    /** Block until the queue is empty and no task is executing. */
    void wait();

    /** Hardware concurrency with a sane fallback for unknown (0). */
    static unsigned hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable allIdle_;
    unsigned running_ = 0; ///< Tasks currently executing.
    bool stopping_ = false;
};

} // namespace dgsim::runner

#endif // DGSIM_RUNNER_THREAD_POOL_HH
