// A small thread pool for index-space parallelism.
//
// The pool exists for the STCG solve grid: each chunk of a generation
// round's (uncovered goal × state-tree node) scan holds independent
// solver queries of wildly varying cost (a state-folded residual is
// nanoseconds, a hard box query is the full per-query budget), and
// runs as one parallelFor. parallelFor() hands out the index range
// through one atomic cursor: every lane, the calling thread included,
// claims the next unclaimed index until the range is exhausted. An
// expensive cell therefore holds up only its own lane, and cells are
// claimed in index order, which is the order the grid's lowest-SAT
// commit wants them (cells past a known winner are skipped, not solved).
//
// Each batch ends at a barrier: parallelFor returns only after every
// worker that joined the batch has left it, so no lane is still touching
// the cursor or the body when the next batch starts.
//
// Determinism contract: the pool promises only that every index in [0, n)
// is executed exactly once (in some order) before parallelFor returns.
// Callers that need order-independent results must make each task
// self-contained (own RNG stream, no shared mutable state) and reduce the
// results themselves — see Campaign::solveRound for the canonical pattern.
//
// Exceptions thrown by the body are captured; after all indices settle,
// the exception from the lowest-numbered throwing index is rethrown on
// the calling thread (lowest-index, so the choice does not depend on the
// thread schedule).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace stcg {

class ThreadPool {
 public:
  /// A pool with `threads` total lanes of parallelism, *including* the
  /// thread that calls parallelFor (which always participates). Values
  /// <= 1 mean no worker threads are spawned and parallelFor degrades to
  /// an inline sequential loop over 0..n-1.
  explicit ThreadPool(int threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins all workers. Safe to call with no parallelFor in flight.
  ~ThreadPool();

  [[nodiscard]] int threadCount() const { return threads_; }

  /// Execute body(i) for every i in [0, n), across the pool plus the
  /// calling thread. Blocks until all indices settle, then rethrows the
  /// lowest-index captured exception, if any. Not reentrant: do not call
  /// parallelFor from inside a body.
  void parallelFor(std::size_t n, const std::function<void(std::size_t)>& body);

  /// Total lanes the hardware offers (>= 1 even when unknown).
  [[nodiscard]] static int hardwareThreads();

 private:
  using Body = std::function<void(std::size_t)>;

  void workerLoop();
  /// Claim and run indices from the cursor until it passes `n`.
  void runLane(const Body& body, std::size_t n);
  /// Run body(i), recording its exception if it has the lowest index yet.
  void runIndex(const Body& body, std::size_t i);

  const int threads_;
  std::atomic<std::size_t> next_{0};  // the cursor: next unclaimed index

  std::mutex m_;  // guards the batch and error state below
  std::condition_variable cv_;      // workers wait for a new batch
  std::condition_variable doneCv_;  // caller waits for busy_ == 0
  std::uint64_t epoch_ = 0;  // batch number; a worker joins each once
  bool stop_ = false;
  const Body* body_ = nullptr;  // open batch's body; null once it closes
  std::size_t n_ = 0;
  int busy_ = 0;  // workers inside the current batch
  std::size_t errIndex_ = 0;
  std::exception_ptr firstError_;

  std::vector<std::thread> workers_;  // last: threads use the members above
};

}  // namespace stcg
