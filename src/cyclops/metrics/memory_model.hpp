#pragma once
// Memory-behaviour model for Table 2. The paper measures JVM heap usage and
// GC counts with jStat; this repo has no JVM, so engines report the concrete
// byte footprints that drove those numbers instead: resident graph state,
// replica storage, and transient message churn (the allocation pressure that
// caused Hama's young-generation GCs).

#include <cstdint>

namespace cyclops::metrics {

struct MemoryReport {
  std::uint64_t vertex_state_bytes = 0;   ///< master values + adjacency
  std::uint64_t replica_bytes = 0;        ///< replicated shared data
  std::uint64_t peak_message_bytes = 0;   ///< largest in-flight buffered volume
  std::uint64_t message_churn_bytes = 0;  ///< total transient message allocation
  std::uint64_t message_alloc_count = 0;  ///< total message objects created

  // Store-backend split (GraphStore::memory()): what the graph keeps in RAM
  // vs. on disk, so Table 2b's rows (bench_paper --figure T2) compare fairly
  // across the memory/compact/stream backends. store_resident_bytes is
  // already included in vertex_state_bytes; the disk side is reported
  // separately.
  std::uint64_t store_resident_bytes = 0;  ///< graph bytes that must stay in RAM
  std::uint64_t store_on_disk_bytes = 0;   ///< graph bytes paged/streamed from disk
  std::uint64_t message_spill_bytes = 0;   ///< buffered bytes above the store budget

  [[nodiscard]] std::uint64_t resident_bytes() const noexcept {
    return vertex_state_bytes + replica_bytes;
  }
  [[nodiscard]] std::uint64_t peak_bytes() const noexcept {
    return resident_bytes() + peak_message_bytes;
  }
  [[nodiscard]] std::uint64_t on_disk_bytes() const noexcept {
    return store_on_disk_bytes + message_spill_bytes;
  }

  /// Young-GC analog: transient allocation churn divided by a nursery size.
  [[nodiscard]] double young_gc_equivalent(std::uint64_t nursery_bytes) const noexcept {
    return nursery_bytes == 0
               ? 0.0
               : static_cast<double>(message_churn_bytes) / static_cast<double>(nursery_bytes);
  }
};

}  // namespace cyclops::metrics
