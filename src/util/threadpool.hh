/**
 * @file
 * A pool of parked worker threads that repeatedly runs one job on
 * every worker at once. The replay engine keeps a pool alive for a
 * whole run, so per-block scheduling never pays thread creation; the
 * scheduler itself (atomic claim counters, admission ticket) lives in
 * the job bodies, not here.
 */

#ifndef LP_UTIL_THREADPOOL_HH
#define LP_UTIL_THREADPOOL_HH

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lp
{

class ThreadPool
{
  public:
    /** Spawn @p threads parked workers (at least one). */
    explicit ThreadPool(unsigned threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned size() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Begin invoking body(worker) once on every worker. Returns
     * immediately so the caller can work alongside the pool (the
     * replay engine folds results while workers simulate); @p body
     * must stay alive until the matching wait().
     */
    void start(const std::function<void(unsigned)> &body);

    /**
     * Block until every worker finished the started job; the first
     * exception any worker threw is rethrown here.
     */
    void wait();

    /** start() + wait(). */
    void run(const std::function<void(unsigned)> &body);

  private:
    void workerLoop(unsigned id);

    std::vector<std::thread> threads_;
    std::mutex m_;
    std::condition_variable cvStart_;
    std::condition_variable cvDone_;
    const std::function<void(unsigned)> *job_ = nullptr;
    std::uint64_t generation_ = 0;
    unsigned running_ = 0;
    bool active_ = false;
    bool shutdown_ = false;
    std::exception_ptr error_;
};

} // namespace lp

#endif // LP_UTIL_THREADPOOL_HH
