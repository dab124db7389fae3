#pragma once
// Reusable worker pool for data-parallel loops (docs/PERFORMANCE.md,
// "Levelized propagation").
//
// TaskPool runs one job at a time: parallel_for(n, grain, fn) splits
// [0, n) into fixed-size chunks, wakes the parked workers, and the
// *calling thread participates* in draining the chunk queue, so a pool
// sized for k-way parallelism carries k-1 worker threads. Chunks are
// claimed with a single atomic fetch_add; there is no per-chunk
// locking. parallel_for returns only after every chunk has executed
// (the between-levels barrier of the levelized STA passes), rethrowing
// the first exception any chunk threw.
//
// Jobs must be write-disjoint across chunks: fn(begin, end) may touch
// shared read-only state freely but must only write state owned by
// indices in [begin, end). The STA relaxation kernels satisfy this by
// construction (each node writes only its own corner lanes).
//
// Tiny loops (n <= grain), pools with no workers, and re-entrant calls
// (fn itself calling parallel_for, or a parallel_for issued from a
// worker thread) all run inline on the caller — same results, no
// deadlock surface.
//
// Lock classes (docs/ANALYSIS.md, "Concurrency invariants"):
//   util.taskpool.job    held by the caller for the whole job — it
//                        serializes concurrent parallel_for calls from
//                        different threads onto the one chunk queue.
//   util.taskpool.queue  the worker wakeup mutex (condition-variable
//                        shape); acquired under util.taskpool.job by
//                        the caller and alone by workers.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace tmm::util {

class TaskPool {
 public:
  /// A pool that offers `threads`-way parallelism: `threads - 1` parked
  /// worker threads plus the calling thread. threads <= 1 starts no
  /// workers (every parallel_for runs inline).
  explicit TaskPool(std::size_t threads);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Maximum parallelism this pool can offer (workers + caller), >= 1.
  std::size_t max_parallelism() const noexcept { return workers_.size() + 1; }

  /// Run fn(begin, end) over disjoint chunks covering [0, n), each at
  /// most `grain` wide, with at most `max_threads` threads touching the
  /// job (capped by max_parallelism; 0 means "use the whole pool").
  /// Blocks until every chunk has run; rethrows the first exception a
  /// chunk threw (remaining chunks are abandoned, already-claimed ones
  /// finish).
  template <typename Fn>
  void parallel_for(std::size_t n, std::size_t grain, std::size_t max_threads,
                    Fn&& fn) {
    static_assert(std::is_invocable_v<Fn&, std::size_t, std::size_t>,
                  "fn must be callable as fn(begin, end)");
    run_job(n, grain, max_threads,
            [](void* ctx, std::size_t begin, std::size_t end) {
              (*static_cast<std::remove_reference_t<Fn>*>(ctx))(begin, end);
            },
            &fn);
  }

  /// The process-wide pool, sized to default_threads() on first use and
  /// leaked (workers park in a condition-variable wait; never joined at
  /// exit, matching the obs registry idiom).
  static TaskPool& shared();

  /// Thread count used when a caller asks for "auto" (0): TMM_THREADS
  /// when set and valid, else std::thread::hardware_concurrency(),
  /// never less than 1.
  static std::size_t default_threads();

  /// Parse TMM_THREADS. Returns 0 when unset or malformed; when
  /// `error` is non-null it receives a diagnostic for malformed values
  /// ("" when unset or valid) so the CLI can reject bad environments
  /// up front (exit 2) while library callers just fall back.
  static std::size_t env_threads(std::string* error = nullptr);

 private:
  using ChunkFn = void (*)(void* ctx, std::size_t begin, std::size_t end);

  void run_job(std::size_t n, std::size_t grain, std::size_t max_threads,
               ChunkFn fn, void* ctx);
  void worker_main();
  /// Claim and execute chunks until the queue is exhausted.
  void drain(ChunkFn fn, void* ctx, std::size_t n, std::size_t grain,
             std::size_t chunks);

  // Serializes whole jobs: held by the caller across run_job so two
  // threads cannot interleave jobs on the one chunk queue.
  Mutex job_mu_;

  // Wakeup mutex for the parked workers (condition-variable shape).
  // Job parameters are published under it before the epoch bump and
  // read back under it by waking workers.
  Mutex mu_;
  std::condition_variable cv_;       // workers wait: epoch bump or stop
  std::condition_variable done_cv_;  // caller waits: all chunks executed
  std::uint64_t epoch_ TMM_GUARDED_BY(mu_) = 0;
  bool stop_ TMM_GUARDED_BY(mu_) = false;
  ChunkFn job_fn_ TMM_GUARDED_BY(mu_) = nullptr;
  void* job_ctx_ TMM_GUARDED_BY(mu_) = nullptr;
  std::size_t job_n_ TMM_GUARDED_BY(mu_) = 0;
  std::size_t job_grain_ TMM_GUARDED_BY(mu_) = 0;
  std::size_t job_chunks_ TMM_GUARDED_BY(mu_) = 0;
  std::size_t job_worker_budget_ TMM_GUARDED_BY(mu_) = 0;
  // Tickets handed to workers for the current job (caps participation
  // at the job's thread budget) and workers currently inside drain().
  // The job counters below are only reset once active_workers_ == 0,
  // so a straggler from the previous epoch can never claim chunks of
  // a new job.
  std::size_t job_tickets_ TMM_GUARDED_BY(mu_) = 0;
  std::size_t active_workers_ TMM_GUARDED_BY(mu_) = 0;
  std::exception_ptr job_error_ TMM_GUARDED_BY(mu_);

  // Next chunk index to claim / chunks finished. Relaxed fetch_add is
  // enough for claiming (chunk payloads are published by the mu_
  // critical section that started the job); completion uses acq_rel so
  // the caller's post-barrier reads happen-after every chunk's writes.
  // abort_ is set on the first exception; remaining chunks are claimed
  // but skipped so the completion count still reaches job_chunks_.
  std::atomic<std::size_t> next_chunk_{0};
  std::atomic<std::size_t> done_chunks_{0};
  std::atomic<bool> abort_{false};

  std::vector<std::thread> workers_;
};

}  // namespace tmm::util
