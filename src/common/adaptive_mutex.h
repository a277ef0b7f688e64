// The lock every answer takes: a glibc adaptive pthread mutex, which spins
// briefly before it parks.
//
// An answer's critical sections (the front-end cache lookup, the admission
// gate, the reservation tables, the simulated wire, the server's probe
// totals and its RNG) last about 100 ns. A std::mutex that finds its lock
// taken puts the thread to sleep in the kernel at once (a futex wait), and
// waking it costs microseconds of scheduler latency for a lock that was free
// again after a few nanoseconds. PTHREAD_MUTEX_ADAPTIVE_NP first retries a
// self-tuned number of times (glibc caps it at about 100) and parks only
// then, so a lock another core holds for a moment is taken without a sleep.
// What each lock guards is unchanged: only the way a thread waits differs.
//
// It is Lockable, so std::lock_guard, std::unique_lock and
// std::condition_variable_any take it. Like std::mutex it cannot be copied
// or moved, reports a failed lock as std::system_error, and is 40 bytes, so
// a member swapped for it moves no other member.
#ifndef CLOUDTALK_SRC_COMMON_ADAPTIVE_MUTEX_H_
#define CLOUDTALK_SRC_COMMON_ADAPTIVE_MUTEX_H_

#include <pthread.h>

#include <mutex>
#include <system_error>

namespace cloudtalk {

class AdaptiveMutex {
 public:
  AdaptiveMutex() = default;
  ~AdaptiveMutex() { pthread_mutex_destroy(&mutex_); }
  AdaptiveMutex(const AdaptiveMutex&) = delete;
  AdaptiveMutex& operator=(const AdaptiveMutex&) = delete;

  void lock() {
    if (const int error = pthread_mutex_lock(&mutex_); error != 0) {
      throw std::system_error(error, std::generic_category());
    }
  }
  bool try_lock() noexcept { return pthread_mutex_trylock(&mutex_) == 0; }
  void unlock() noexcept { pthread_mutex_unlock(&mutex_); }

 private:
  pthread_mutex_t mutex_ = PTHREAD_ADAPTIVE_MUTEX_INITIALIZER_NP;
};

static_assert(sizeof(AdaptiveMutex) == sizeof(std::mutex),
              "the servers' cache-line groups are laid out for std::mutex's size");

}  // namespace cloudtalk

#endif  // CLOUDTALK_SRC_COMMON_ADAPTIVE_MUTEX_H_
