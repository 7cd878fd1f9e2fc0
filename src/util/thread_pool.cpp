#include "util/thread_pool.h"

#include <algorithm>

namespace stcg {

int ThreadPool::hardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int threads) : threads_(std::max(threads, 1)) {
  // The caller of parallelFor is one lane; only the others get threads.
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int lane = 1; lane < threads_; ++lane) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(m_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::runIndex(const Body& body, std::size_t i) {
  try {
    body(i);
  } catch (...) {
    std::lock_guard<std::mutex> lock(m_);
    if (firstError_ == nullptr || i < errIndex_) {
      firstError_ = std::current_exception();
      errIndex_ = i;
    }
  }
}

void ThreadPool::runLane(const Body& body, std::size_t n) {
  for (std::size_t i = next_.fetch_add(1); i < n; i = next_.fetch_add(1)) {
    runIndex(body, i);
  }
}

void ThreadPool::workerLoop() {
  std::uint64_t seenEpoch = 0;
  for (;;) {
    const Body* body = nullptr;
    std::size_t n = 0;
    {
      std::unique_lock<std::mutex> lock(m_);
      cv_.wait(lock, [&] {
        return stop_ || (body_ != nullptr && epoch_ != seenEpoch);
      });
      if (stop_) return;
      seenEpoch = epoch_;
      body = body_;
      n = n_;
      ++busy_;
    }
    runLane(*body, n);
    {
      std::lock_guard<std::mutex> lock(m_);
      if (--busy_ == 0) doneCv_.notify_one();
    }
  }
}

void ThreadPool::parallelFor(std::size_t n, const Body& body) {
  if (n == 0) return;
  if (workers_.empty()) {
    // One lane runs inline and in order without the cursor, whose atomic
    // read-modify-write per index costs more than a skipped grid cell.
    for (std::size_t i = 0; i < n; ++i) runIndex(body, i);
  } else {
    {
      // No worker is inside a batch here (the previous call's barrier saw
      // busy_ == 0), so resetting the cursor races with nothing.
      std::lock_guard<std::mutex> lock(m_);
      next_.store(0);
      body_ = &body;
      n_ = n;
      ++epoch_;
    }
    cv_.notify_all();
    runLane(body, n);
    // Close the batch so a worker that has not woken yet skips it, then
    // wait for the ones that joined to leave before `body` goes away.
    std::unique_lock<std::mutex> lock(m_);
    body_ = nullptr;
    doneCv_.wait(lock, [&] { return busy_ == 0; });
  }
  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> lock(m_);
    err = firstError_;
    firstError_ = nullptr;
    errIndex_ = 0;
  }
  if (err) std::rethrow_exception(err);
}

}  // namespace stcg
