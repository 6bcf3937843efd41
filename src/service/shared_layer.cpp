#include "service/shared_layer.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace dslayer::service {

SharedLayer::SharedLayer(dsl::DesignSpaceLayer& layer, Reindex reindex) : layer_(&layer) {
  std::unique_lock<std::shared_timed_mutex> exclusive(mutex_);
  reindex_and_prime(/*inject=*/false, reindex);
  epoch_.store(1, std::memory_order_release);
}

std::int64_t SharedLayer::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double SharedLayer::writer_stall_ms() const {
  const std::int64_t since = writer_since_ns_.load(std::memory_order_acquire);
  if (since == 0) return 0.0;
  return static_cast<double>(now_ns() - since) / 1e6;
}

std::shared_lock<std::shared_timed_mutex> SharedLayer::read_lock_or_unavailable(
    double max_wait_ms) const {
  std::shared_lock<std::shared_timed_mutex> lock(mutex_, std::defer_lock);
  const auto budget =
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(max_wait_ms));
  if (lock.try_lock_for(budget)) return lock;
  throw UnavailableError(
      cat("layer is degraded: a catalog writer has held the layer for ",
          format_double(writer_stall_ms(), 1), "ms (waited ", format_double(max_wait_ms, 1),
          "ms) — retry after the update publishes"));
}

void SharedLayer::reindex_and_prime(bool inject, Reindex reindex) {
  if (inject) DSLAYER_FAILPOINT("service.shared_layer.prime");
  if (reindex == Reindex::kFull) layer_->index_cores();
  // Touch every lazily-built per-CDO cache so no reader ever takes the
  // map-inserting miss path: the constraint index and the filter plan
  // (the first plan builds the layer's one core table unless a snapshot
  // restored it; every plan is a row range of it plus compiled predicate
  // programs).
  for (const dsl::Cdo* cdo : layer_->space().all()) {
    (void)layer_->constraint_index(*cdo);
    (void)layer_->filter_plan(*cdo);
  }
}

}  // namespace dslayer::service
