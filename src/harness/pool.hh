/**
 * @file
 * Work-stealing thread pool for the sweep harness.
 *
 * Sweep runs are embarrassingly parallel — every (config, workload)
 * pair builds its own MemorySystem, streams and golden memory — but
 * their durations vary wildly (fig7 scaling points differ by an order
 * of magnitude), so a static partition leaves workers idle. Each
 * worker therefore owns a deque: submit() distributes jobs round-robin,
 * a worker pops its own deque LIFO (cache-warm), and an empty worker
 * steals FIFO from a sibling (takes the oldest, likely-largest job).
 *
 * The pool runs closures and nothing else: determinism is the jobs'
 * problem (see DESIGN.md §11 for the one-system-per-job contract).
 */

#ifndef D2M_HARNESS_POOL_HH
#define D2M_HARNESS_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace d2m
{

/** Fixed-size work-stealing pool; submit() + wait() barrier. */
class WorkStealingPool
{
  public:
    using Job = std::function<void()>;

    /** Spin up @p workers threads (>= 1; 0 is clamped to 1). */
    explicit WorkStealingPool(unsigned workers);

    /** Drains remaining jobs, then joins all workers. */
    ~WorkStealingPool();

    WorkStealingPool(const WorkStealingPool &) = delete;
    WorkStealingPool &operator=(const WorkStealingPool &) = delete;

    /** Enqueue @p job; runs on some worker thread. */
    void submit(Job job);

    /** Block until every submitted job has finished running. */
    void wait();

    unsigned workers() const { return static_cast<unsigned>(qs_.size()); }

    /**
     * Job count to use when the caller does not specify one:
     * D2M_JOBS if set (>= 1), else std::thread::hardware_concurrency.
     */
    static unsigned defaultJobs();

  private:
    /** One worker's deque. Per-queue mutex: submit and steal contend
     * only pairwise, not on one global lock. */
    struct Queue
    {
        std::mutex mutex;
        std::deque<Job> jobs;
    };

    void workerLoop(unsigned self);
    bool popOwn(unsigned self, Job &out);
    bool stealFrom(unsigned self, Job &out);

    std::vector<std::unique_ptr<Queue>> qs_;
    std::vector<std::thread> threads_;

    // Sleep/wake plumbing. `queued_` counts jobs not yet picked up,
    // `unfinished_` counts jobs not yet completed (>= queued_);
    // wait() sleeps on doneCv_ until unfinished_ hits zero.
    std::mutex sleepMutex_;
    std::condition_variable wakeCv_;
    std::condition_variable doneCv_;
    std::size_t queued_ = 0;
    std::size_t unfinished_ = 0;
    std::size_t submitNext_ = 0;  //!< Round-robin submit cursor.
    bool stopping_ = false;
};

} // namespace d2m

#endif // D2M_HARNESS_POOL_HH
