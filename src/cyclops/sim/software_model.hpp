#pragma once
// Deterministic software-time model. Engines count the exact work each
// simulated executor performs per phase (vertices computed, edges scanned,
// messages parsed / serialized / delivered), convert counts to µs with these
// per-operation rates and charge them to the shell's runtime::PhaseLedger,
// which takes each phase's time as the maximum over simulated executors,
// i.e. perfectly-overlapped parallel time.
//
// Why modeled rather than measured: the paper's engines are JVM-based (Hama,
// Cyclops) or C++ (PowerGraph) running on 72 dedicated cores; this repo's
// loops are C++ on whatever host runs the benches — possibly one noisy
// shared core. Deterministic counts x calibrated rates keep every benchmark
// bit-reproducible and preserve the paper's *relative* costs. Rates are
// calibrated against Table 3 (per-message path costs), Figure 10(1) (phase
// shares), and §2.2.2 (Hama PageRank >50% communication).

#include <concepts>

namespace cyclops::sim {

struct SoftwareModel {
  double vertex_op_us = 0.5;     ///< per compute() invocation
  double edge_op_us = 0.3;       ///< per in-edge / message scanned in compute
  double msg_serialize_us = 0.6; ///< per message staged + serialized (send path)
  double msg_parse_us = 0.4;     ///< per record parsed into a mailbox (PRS)
  double msg_deliver_us = 0.3;   ///< per record handled on the receive path
  double msg_byte_us = 0.012;    ///< per payload byte on send+receive (Java
                                 ///< object serialization is byte-expensive)

  /// Hama: per-message Java object serialization, locked global-queue
  /// enqueue, and a separate parse phase (Table 3: ~2 us of software per
  /// message end-to-end).
  [[nodiscard]] static constexpr SoftwareModel hama_java() noexcept { return SoftwareModel{}; }

  /// Cyclops: same JVM compute costs, but bundled primitive-array sync
  /// messages, no parse phase, and lock-free direct replica updates
  /// (Table 3: ~0.2 us per message).
  [[nodiscard]] static constexpr SoftwareModel cyclops_java() noexcept {
    SoftwareModel m;
    // Compute rates match Hama's — same JVM, same compute bodies (§6.12's
    // "language gap" against PowerGraph applies to Cyclops too).
    m.msg_serialize_us = 0.25;
    m.msg_parse_us = 0.0;     // no PRS phase by construction
    m.msg_deliver_us = 0.1;   // in-place update + local activation
    m.msg_byte_us = 0.002;    // bundled primitive arrays
    return m;
  }

  /// PowerGraph: C++ end to end, and multithreaded within each machine-level
  /// worker (the 8-way intra-machine parallelism is folded into the rates,
  /// since the GAS engine models one worker per machine).
  [[nodiscard]] static constexpr SoftwareModel powergraph_cpp() noexcept {
    SoftwareModel m;
    m.vertex_op_us = 0.05;
    m.edge_op_us = 0.025;
    m.msg_serialize_us = 0.06;
    m.msg_parse_us = 0.0;
    m.msg_deliver_us = 0.04;
    m.msg_byte_us = 0.001;
    return m;
  }
};

/// Per-algorithm cost weights. compute() bodies differ enormously in cost —
/// an ALS in-edge contributes a rank-8 outer product, a PageRank in-edge one
/// multiply-add — so programs may declare these multipliers (defaults 1.0).
template <typename P>
concept HasComputeWeights = requires {
  { P::kVertexOpWeight } -> std::convertible_to<double>;
  { P::kEdgeOpWeight } -> std::convertible_to<double>;
};

template <typename P>
[[nodiscard]] constexpr double vertex_op_weight() noexcept {
  if constexpr (HasComputeWeights<P>) {
    return P::kVertexOpWeight;
  } else {
    return 1.0;
  }
}

template <typename P>
[[nodiscard]] constexpr double edge_op_weight() noexcept {
  if constexpr (HasComputeWeights<P>) {
    return P::kEdgeOpWeight;
  } else {
    return 1.0;
  }
}

}  // namespace cyclops::sim
