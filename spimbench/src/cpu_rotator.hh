/**
 * @file
 * CpuRotator: moves one thread round-robin over every CPU the
 * process may use, a few times per iteration.
 *
 * On a shared host some virtual CPUs run much slower than others at
 * any moment (their physical core is busy with another tenant), and
 * the kernel keeps a busy thread on the CPU it started on. A
 * single-threaded run then times whichever CPU it landed on, and
 * runs of the same code differ by that CPU's speed. Rotating the
 * benchmark thread spreads every iteration over all CPUs, so a run
 * times their average instead.
 */

#ifndef SPIMBENCH_CPU_ROTATOR_HH_
#define SPIMBENCH_CPU_ROTATOR_HH_

#include <pthread.h>
#include <sched.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace spimbench
{

class CpuRotator
{
  public:
    /** Rotate the calling thread every @p period. */
    explicit CpuRotator(std::chrono::milliseconds period)
        : target_(pthread_self())
    {
        CPU_ZERO(&original_);
        if (pthread_getaffinity_np(target_, sizeof original_,
                                   &original_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &original_))
                cpus_.push_back(c);
        if (cpus_.size() > 1)
            thread_ = std::thread([this, period] { loop(period); });
    }

    ~CpuRotator()
    {
        {
            std::lock_guard<std::mutex> g(mu_);
            stop_ = true;
        }
        cv_.notify_one();
        if (thread_.joinable())
            thread_.join();
        pthread_setaffinity_np(target_, sizeof original_, &original_);
    }

    CpuRotator(const CpuRotator &) = delete;
    CpuRotator &operator=(const CpuRotator &) = delete;

  private:
    void
    loop(std::chrono::milliseconds period)
    {
        std::unique_lock<std::mutex> lk(mu_);
        for (std::size_t k = 0;; ++k) {
            if (cv_.wait_for(lk, period, [this] { return stop_; }))
                return;
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(cpus_[k % cpus_.size()], &one);
            pthread_setaffinity_np(target_, sizeof one, &one);
        }
    }

    pthread_t target_;
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_; //!< declared last: uses every member above
};

} // namespace spimbench

#endif // SPIMBENCH_CPU_ROTATOR_HH_
