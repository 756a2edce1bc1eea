#pragma once
// Job vocabulary for the multi-tenant service: what a tenant submits (JobSpec),
// what comes back (JobResult), and the lifecycle states the scheduler tracks.
// Algorithm and engine names are the job catalog's (algorithms/catalog.hpp).

#include <cstdint>
#include <string>
#include <vector>

#include "cyclops/algorithms/catalog.hpp"
#include "cyclops/common/types.hpp"
#include "cyclops/metrics/superstep_stats.hpp"

namespace cyclops::service {

using algo::Algo;
using algo::EngineKind;

struct JobSpec {
  std::string tenant = "default";
  int priority = 0;  ///< higher runs first; FIFO within a priority
  Algo algo = Algo::kPageRank;
  EngineKind engine = EngineKind::kCyclops;

  algo::JobParams params{.epsilon = 1e-6, .rounds = 4};
  Superstep max_supersteps = 50;
  unsigned mt_threads = 4;    ///< CyclopsMT compute threads
  unsigned mt_receivers = 2;  ///< CyclopsMT receiver threads
};

/// What a finished job hands back: the result vector serialized to bytes
/// (engine Value array in global vertex order) plus its CRC — the byte-level
/// form the immutability regression tests compare across epochs.
struct JobResult {
  std::vector<std::uint8_t> payload;
  std::uint32_t crc = 0;
  metrics::RunStats run;
};

enum class JobState { kQueued, kRunning, kDone, kCancelled, kFailed };

}  // namespace cyclops::service
