#include "analysis/parallel.hpp"

#include <new>

namespace sic::analysis {

SweepObsMerger::SweepObsMerger() : caller_(obs::metrics()) {}

SweepObsMerger::~SweepObsMerger() {
  // Runs on the sweep's calling thread after parallel_for returned, so the
  // fold into the caller's registry needs no lock.
  if (caller_ != nullptr) caller_->merge_from(merged_);
}

SweepObsMerger::ChunkScope::ChunkScope(SweepObsMerger& merger)
    : merger_(merger), previous_(obs::set_metrics(&registry_)) {}

SweepObsMerger::ChunkScope::~ChunkScope() {
  obs::set_metrics(previous_);
  std::lock_guard<std::mutex> lock{merger_.mu_};
  merger_.merged_.merge_from(registry_);
}

namespace {

/// This thread's idle sweep pools. Destroyed, and their workers joined,
/// when the thread exits.
std::vector<std::unique_ptr<ThreadPool>>& idle_pools() {
  thread_local std::vector<std::unique_ptr<ThreadPool>> pools;
  return pools;
}

/// An idle pool of \p threads taken off this thread's list, or a new one.
std::unique_ptr<ThreadPool> borrow_pool(int threads) {
  auto& idle = idle_pools();
  for (auto it = idle.begin(); it != idle.end(); ++it) {
    if ((*it)->threads() == threads) {
      std::unique_ptr<ThreadPool> pool = std::move(*it);
      idle.erase(it);
      return pool;
    }
  }
  return std::make_unique<ThreadPool>(threads);
}

}  // namespace

ParallelRunner::ParallelRunner(const ParallelOptions& options)
    : pool_(borrow_pool(ThreadPool::resolve(options.threads))),
      chunk_(options.chunk_trials) {
  SIC_CHECK(options.chunk_trials >= 1);
}

ParallelRunner::~ParallelRunner() {
  try {
    idle_pools().push_back(std::move(pool_));
  } catch (const std::bad_alloc&) {
    // push_back left pool_ untouched; destroying it here joins its
    // workers, so the only loss is the reuse.
  }
}

}  // namespace sic::analysis
