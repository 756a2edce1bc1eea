#pragma once
// Dispatch of one JobSpec onto one pinned Snapshot: the job catalog picks
// the program and engine Config, this file hands the engine the snapshot's
// pre-built partition, runs it, and serializes the result values. Every
// engine runs with its default single host thread, so concurrency lives
// entirely in the scheduler and results stay bit-deterministic.

#include <vector>

#include "cyclops/algorithms/catalog.hpp"
#include "cyclops/common/crc32.hpp"
#include "cyclops/common/serialize.hpp"
#include "cyclops/service/job.hpp"
#include "cyclops/service/snapshot.hpp"

namespace cyclops::service {

namespace detail {

template <typename Value>
JobResult pack_result(std::vector<Value> values, metrics::RunStats stats) {
  JobResult r;
  ByteWriter out;
  out.write_vector(values);
  r.payload = out.take();
  r.crc = crc32(r.payload);
  r.run = std::move(stats);
  return r;
}

// GAS values go through a projection to a padding-free scalar before
// serialization: PageRankGas::Value carries trailing struct padding whose
// bytes are unspecified, which would break the byte-identity contract.
inline double gas_scalar(double dist) { return dist; }
inline double gas_scalar(const algo::PageRankGas::Value& v) { return v.rank; }

}  // namespace detail

/// Runs the job; the caller must have checked algo::unsupported() (with_job
/// enforces it). The snapshot must stay pinned for the duration.
[[nodiscard]] inline JobResult run_on_snapshot(const Snapshot& snap, const JobSpec& spec) {
  const SnapshotConfig& sc = snap.config();
  const algo::ClusterShape shape{.machines = sc.machines,
                                 .workers_per_machine = sc.workers_per_machine,
                                 .mt_threads = spec.mt_threads,
                                 .mt_receivers = spec.mt_receivers,
                                 .max_supersteps = spec.max_supersteps};
  return algo::with_job(
      snap.store(), spec.algo, spec.engine, spec.params, shape,
      [&]<typename Engine>(std::type_identity<Engine>, const auto& prog, const auto& cfg) {
        if constexpr (algo::kVertexCut<Engine>) {
          Engine engine(snap.store(), snap.vertex_cut(), prog, cfg);
          auto stats = engine.run();
          const auto vals = engine.values();
          std::vector<double> out;
          out.reserve(vals.size());
          for (const auto& v : vals) out.push_back(detail::gas_scalar(v));
          return detail::pack_result(std::move(out), std::move(stats));
        } else {
          Engine engine(snap.store(), snap.edge_cut_for(cfg.topo.total_workers()), prog, cfg);
          auto stats = engine.run();
          const auto vals = engine.values();
          return detail::pack_result(std::vector(vals.begin(), vals.end()), std::move(stats));
        }
      });
}

}  // namespace cyclops::service
