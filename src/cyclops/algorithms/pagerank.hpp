#pragma once
// PageRank for all three engines plus a sequential reference. The BSP
// version transliterates Figure 2 (push messages, global-error aggregator,
// keep-alive); the Cyclops version transliterates Figure 5 (pull from the
// immutable view, local error, distributed activation); the GAS version is
// the canonical PowerGraph gather/apply/scatter formulation.

#include <cmath>
#include <span>
#include <vector>

#include "cyclops/graph/store.hpp"

namespace cyclops::algo {

inline constexpr double kPageRankDamping = 0.85;

/// Figure 2: the BSP/Hama compute function.
struct PageRankBsp {
  using Value = double;
  using Message = double;
  static constexpr bool kCombinable = true;

  double epsilon = 1e-9;
  /// Relative tolerance for the redundant-message instrumentation: a re-sent
  /// rank share within this relative distance of the previous one carries no
  /// information for the receiver.
  double redundancy_rel_epsilon = 1e-4;

  [[nodiscard]] Message combine(Message a, Message b) const noexcept { return a + b; }

  [[nodiscard]] bool nearly_equal(Message a, Message b) const noexcept {
    return std::abs(a - b) <= redundancy_rel_epsilon * std::abs(a);
  }

  [[nodiscard]] Value init(VertexId, const graph::GraphStore& g) const noexcept {
    return 1.0 / static_cast<double>(g.num_vertices());
  }

  template <typename Ctx>
  void compute(Ctx& ctx, std::span<const Message> msgs) const {
    const double n = static_cast<double>(ctx.num_vertices());
    if (ctx.superstep() == 0) {
      // Bootstrap: push the initial rank share; no update yet.
      if (ctx.out_degree() > 0) {
        ctx.send_to_neighbors(ctx.value() / static_cast<double>(ctx.out_degree()));
      }
      return;
    }
    double sum = 0;
    for (double m : msgs) sum += m;
    const double value = (1.0 - kPageRankDamping) / n + kPageRankDamping * sum;
    const double error = std::abs(value - ctx.value());
    ctx.set_value(value);
    ctx.aggregate_error(error);
    if (ctx.global_error() > epsilon) {
      if (ctx.out_degree() > 0) {
        ctx.send_to_neighbors(value / static_cast<double>(ctx.out_degree()));
      }
    } else {
      ctx.vote_to_halt();
    }
  }
};

/// Figure 5: the Cyclops compute function. Shared data is the rank share
/// (value / out-degree) neighbors read.
struct PageRankCyclops {
  using Value = double;
  using Message = double;

  double epsilon = 1e-9;

  [[nodiscard]] Value init(VertexId, const graph::GraphStore& g) const noexcept {
    return 1.0 / static_cast<double>(g.num_vertices());
  }
  [[nodiscard]] Message init_shared(VertexId v, const graph::GraphStore& g) const noexcept {
    const auto d = g.out_degree(v);
    return d > 0 ? init(v, g) / static_cast<double>(d) : 0.0;
  }
  [[nodiscard]] bool initially_active(VertexId, const graph::GraphStore&) const noexcept {
    return true;
  }

  template <typename Ctx>
  void compute(Ctx& ctx) const {
    const double n = static_cast<double>(ctx.num_vertices());
    double sum = 0;
    for (const auto& e : ctx.in_edges()) sum += ctx.data(e.slot);
    const double value = (1.0 - kPageRankDamping) / n + kPageRankDamping * sum;
    const double error = std::abs(value - ctx.value());
    ctx.set_value(value);
    ctx.mark_converged(error <= epsilon);
    if (error > epsilon) {
      const auto d = ctx.out_degree();
      ctx.activate_neighbors(d > 0 ? value / static_cast<double>(d) : 0.0);
    }
    // Implicit vote-to-halt: a Cyclops vertex deactivates unless re-activated.
  }
};

/// PowerGraph gather/apply/scatter PageRank.
struct PageRankGas {
  struct Value {
    double rank = 0;
    std::uint32_t out_degree = 0;
  };
  using Gather = double;

  VertexId num_vertices = 0;
  double epsilon = 1e-9;

  [[nodiscard]] Value init(VertexId, std::size_t out_degree, std::size_t) const noexcept {
    return Value{1.0 / static_cast<double>(num_vertices),
                 static_cast<std::uint32_t>(out_degree)};
  }
  [[nodiscard]] Gather gather_zero() const noexcept { return 0.0; }
  [[nodiscard]] Gather gather(const Value&, const Value& nbr, double) const noexcept {
    return nbr.out_degree > 0 ? nbr.rank / static_cast<double>(nbr.out_degree) : 0.0;
  }
  [[nodiscard]] Gather merge(const Gather& a, const Gather& b) const noexcept { return a + b; }
  [[nodiscard]] Value apply(const Value& old, const Gather& acc) const noexcept {
    return Value{(1.0 - kPageRankDamping) / static_cast<double>(num_vertices) +
                     kPageRankDamping * acc,
                 old.out_degree};
  }
  [[nodiscard]] bool scatter_activates(const Value& old, const Value& next) const noexcept {
    return std::abs(next.rank - old.rank) > epsilon;
  }
};

/// Sequential power iteration to (near-)fixpoint; the ground truth used by
/// correctness tests and the L1 convergence tracker.
[[nodiscard]] std::vector<double> pagerank_reference(const graph::GraphStore& g,
                                                     unsigned max_iterations = 200,
                                                     double tolerance = 1e-13);

/// A certified L1 distance from `values` to the PageRank fixpoint x* on `g`:
/// ‖x − T(x)‖₁ / (1 − d), from one sequential sweep of the step
/// T(x) = (1 − d)/n + d·A·x. Dangling mass is not redistributed, so A is
/// column-substochastic and T is an L1 contraction with factor d; hence
/// ‖x − x*‖₁ ≤ ‖x − T(x)‖₁ / (1 − d) for any x. `values` holds one value per
/// vertex of `g`.
[[nodiscard]] double pagerank_residual(const graph::GraphStore& g,
                                       std::span<const double> values);

}  // namespace cyclops::algo
