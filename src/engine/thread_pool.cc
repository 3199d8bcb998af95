#include "engine/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>

#include "audit/audit.h"
#include "audit/invariants.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace cardir {

ThreadPool::ThreadPool(int threads) {
  const int total = std::max(1, threads);
  workers_.reserve(static_cast<size_t>(total - 1));
  for (int i = 1; i < total; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  job_ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

int ThreadPool::ResolveThreadCount(int requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) {
    // hardware_concurrency() is allowed to return 0 ("unknown") and
    // containerised hosts with restricted cpusets often pin it at 1 — an
    // earlier bench host reported hardware_concurrency=1, and the parallel
    // rows it wrote to BENCH_engine.json sat at ~1.0x.
    // CARDIR_THREADS lets such hosts opt parallel runs back in without
    // threading --threads flags through every caller.
    // Reading the environment is not reentrancy-safe in general, but this
    // runs before any pool thread exists.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("CARDIR_THREADS")) {
      char* end = nullptr;
      const long parsed = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && parsed > 0 && parsed <= 4096) {
        return static_cast<int>(parsed);
      }
    }
  }
  return hw == 0 ? 1 : static_cast<int>(hw);
}

void ThreadPool::ParallelFor(size_t count, size_t chunk_size,
                             const std::function<void(size_t, size_t)>& body) {
  ParallelFor(count, chunk_size,
              std::function<void(size_t, size_t, size_t)>(
                  [&body](size_t begin, size_t end, size_t) {
                    body(begin, end);
                  }));
}

void ThreadPool::ParallelFor(
    size_t count, size_t chunk_size,
    const std::function<void(size_t, size_t, size_t)>& body) {
  if (count == 0) return;
  CARDIR_METRIC_COUNT("engine.pool.parallel_for_calls", 1);
  CARDIR_METRIC_OBSERVE("engine.pool.items", count);
  const size_t participants = static_cast<size_t>(thread_count());
  if (participants == 1) {
    CARDIR_METRIC_COUNT("engine.pool.chunks_executed", 1);
    body(0, count, 0);
    return;
  }

  // Audit seam: the chunks claimed by the participants must cover
  // [0, count) exactly — no index skipped, none run twice. The counting
  // wrapper only exists in audit builds; release builds run `body` direct.
  std::atomic<uint64_t> audit_covered{0};
  std::function<void(size_t, size_t, size_t)> audit_body;
  const std::function<void(size_t, size_t, size_t)>* job = &body;
  if constexpr (kAuditEnabled) {
    audit_body = [&body, &audit_covered](size_t begin, size_t end,
                                         size_t participant) {
      audit_covered.fetch_add(end - begin, std::memory_order_relaxed);
      body(begin, end, participant);
    };
    job = &audit_body;
  }
  if (chunk_size == 0) {
    // Several chunks per participant so that stealing can even things out.
    chunk_size = std::max<size_t>(1, count / (participants * 8));
  }

  std::vector<Shard> shards(participants);
  const size_t per_shard = count / participants;
  size_t remainder = count % participants;
  size_t cursor = 0;
  for (Shard& shard : shards) {
    const size_t extent = per_shard + (remainder > 0 ? 1 : 0);
    if (remainder > 0) --remainder;
    shard.next.store(cursor, std::memory_order_relaxed);
    shard.end = cursor + extent;
    cursor += extent;
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    shards_ = std::move(shards);
    chunk_size_ = chunk_size;
    body_ = job;
    ++generation_;
    workers_running_ = static_cast<int>(workers_.size());
  }
  job_ready_.notify_all();

  RunParticipant(0);  // The caller is participant 0.

  {
    std::unique_lock<std::mutex> lock(mutex_);
    job_done_.wait(lock, [this] { return workers_running_ == 0; });
    body_ = nullptr;
  }

  if constexpr (kAuditEnabled) {
    CARDIR_AUDIT(AuditExactCover(audit_covered.load(), count,
                                 "ThreadPool::ParallelFor chunk cover"));
  }
}

void ThreadPool::WorkerLoop(size_t participant) {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      job_ready_.wait(lock, [this, seen_generation] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
    }
    RunParticipant(participant);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --workers_running_;
    }
    job_done_.notify_all();
  }
}

void ThreadPool::RunParticipant(size_t participant) {
  CARDIR_TRACE_SPAN("pool.participant");
  const size_t num_shards = shards_.size();
  size_t executed = 0, stolen = 0;  // Flushed once per participant.
  // Drain the home shard (shard index = participant index), then steal
  // chunks from the others round-robin.
  for (size_t k = 0; k < num_shards; ++k) {
    Shard& shard = shards_[(participant + k) % num_shards];
    for (;;) {
      const size_t begin =
          shard.next.fetch_add(chunk_size_, std::memory_order_relaxed);
      if (begin >= shard.end) break;
      ++executed;
      if (k != 0) {
        ++stolen;
        // Depth of the victim's queue at steal time (items left behind).
        CARDIR_METRIC_OBSERVE("engine.pool.steal_queue_depth",
                              shard.end - begin);
      }
      (*body_)(begin, std::min(begin + chunk_size_, shard.end), participant);
    }
  }
  CARDIR_METRIC_COUNT("engine.pool.chunks_executed", executed);
  CARDIR_METRIC_COUNT("engine.pool.chunks_stolen", stolen);
}

}  // namespace cardir
