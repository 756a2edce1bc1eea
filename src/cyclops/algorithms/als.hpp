#pragma once
// Alternating Least Squares collaborative filtering (§6.1, Zhou et al.): the
// bipartite users×items ratings graph alternates sides; each update solves
// the regularized normal equations (Σ qqᵀ + λ·n·I) p = Σ r·q over the
// vertex's neighborhood. Factors are the replicated shared data — ALS is the
// evaluation's heavy-payload pull-mode workload.

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "cyclops/algorithms/linalg.hpp"
#include "cyclops/graph/store.hpp"

namespace cyclops::algo {

inline constexpr std::size_t kAlsRank = 8;
using Factor = Vec<kAlsRank>;

/// Deterministic pseudo-random initial factor in [0, 1), seeded by vertex id
/// so every engine starts from the same point.
[[nodiscard]] Factor als_init_factor(VertexId v) noexcept;

/// Solves one side's update given neighbor factors and ratings.
[[nodiscard]] Factor als_solve(std::span<const Factor> neighbor_factors,
                               std::span<const double> ratings, double lambda);

/// Root-mean-square rating error of a factor assignment over the graph's
/// user->item edges (vertices < num_users are users).
[[nodiscard]] double als_rmse(const graph::GraphStore& g, VertexId num_users,
                              std::span<const Factor> factors);

/// Sequential ALS reference: `rounds` alternating side-updates (round 0
/// updates users from item factors, round 1 items, ...).
[[nodiscard]] std::vector<Factor> als_reference(const graph::GraphStore& g, VertexId num_users,
                                                unsigned rounds, double lambda);

struct AlsMessagePayload {
  VertexId sender = 0;  ///< messages pair factors with the receiver's rating
  Factor factor{};
};

/// BSP ALS: items broadcast factors at superstep 0; sides then alternate —
/// every message carries a full factor vector (heavy payload on the wire).
struct AlsBsp {
  using Value = Factor;
  using Message = AlsMessagePayload;
  static constexpr bool kCombinable = false;
  // Cost-model weights: each gathered edge contributes a rank-8 outer
  // product; each update solves an 8x8 Cholesky system.
  static constexpr double kVertexOpWeight = 30.0;
  static constexpr double kEdgeOpWeight = 8.0;

  VertexId num_users = 0;
  double lambda = 0.05;
  unsigned rounds = 10;  ///< total side-updates before halting

  [[nodiscard]] Value init(VertexId v, const graph::GraphStore&) const noexcept {
    return als_init_factor(v);
  }

  template <typename Ctx>
  void compute(Ctx& ctx, std::span<const Message> msgs) const {
    const bool is_user = ctx.vertex() < num_users;
    if (ctx.superstep() == 0) {
      // Items publish their initial factors; users wait for them.
      if (!is_user) ctx.send_to_neighbors(Message{ctx.vertex(), ctx.value()});
      ctx.vote_to_halt();
      return;
    }
    // Side for superstep s >= 1: users on odd, items on even supersteps.
    const bool users_turn = (ctx.superstep() % 2) == 1;
    if (is_user != users_turn || msgs.empty()) {
      ctx.vote_to_halt();
      return;
    }
    std::vector<Factor> factors;
    std::vector<double> ratings;
    factors.reserve(msgs.size());
    ratings.reserve(msgs.size());
    const auto edges = ctx.out_edges();  // sorted by neighbor id
    std::vector<bool> paired(edges.size());
    for (const Message& m : msgs) {
      // Pair the sender's factor with this vertex's rating of the sender. A
      // sender sends once per parallel edge, so each of its messages takes
      // the next unpaired edge to it: every rating counts once.
      auto i = static_cast<std::size_t>(
          std::lower_bound(edges.begin(), edges.end(), m.sender,
                           [](const graph::Adj& a, VertexId v) { return a.neighbor < v; }) -
          edges.begin());
      while (i < edges.size() && edges[i].neighbor == m.sender && paired[i]) ++i;
      if (i == edges.size() || edges[i].neighbor != m.sender) continue;
      paired[i] = true;
      factors.push_back(m.factor);
      ratings.push_back(edges[i].weight);
    }
    if (!factors.empty()) {
      ctx.set_value(als_solve(factors, ratings, lambda));
    }
    if (ctx.superstep() < rounds) ctx.send_to_neighbors(Message{ctx.vertex(), ctx.value()});
    ctx.vote_to_halt();
  }
};

/// Cyclops ALS: factors live in the immutable view; each side pulls the
/// other's factors with zero messages beyond replica sync.
struct AlsCyclops {
  using Value = Factor;
  using Message = AlsMessagePayload;
  static constexpr double kVertexOpWeight = 30.0;
  static constexpr double kEdgeOpWeight = 8.0;

  VertexId num_users = 0;
  double lambda = 0.05;
  unsigned rounds = 10;

  [[nodiscard]] Value init(VertexId v, const graph::GraphStore&) const noexcept {
    return als_init_factor(v);
  }
  [[nodiscard]] Message init_shared(VertexId v, const graph::GraphStore&) const noexcept {
    return Message{v, als_init_factor(v)};
  }
  [[nodiscard]] bool initially_active(VertexId v, const graph::GraphStore&) const noexcept {
    return v < num_users;  // users update first, from initial item factors
  }

  template <typename Ctx>
  void compute(Ctx& ctx) const {
    const bool is_user = ctx.vertex() < num_users;
    const bool users_turn = (ctx.superstep() % 2) == 0;
    if (is_user != users_turn) {
      // Activated by the other side ahead of our turn; re-arm neighbors so
      // the alternation keeps flowing, but do not recompute.
      return;
    }
    std::vector<Factor> factors;
    std::vector<double> ratings;
    factors.reserve(ctx.num_in_edges());
    ratings.reserve(ctx.num_in_edges());
    for (const auto& e : ctx.in_edges()) {
      factors.push_back(ctx.data(e.slot).factor);
      ratings.push_back(e.weight);
    }
    if (!factors.empty()) {
      ctx.set_value(als_solve(factors, ratings, lambda));
    }
    ctx.mark_converged(ctx.superstep() + 1 >= rounds);
    if (ctx.superstep() + 1 < rounds) {
      ctx.activate_neighbors(Message{ctx.vertex(), ctx.value()});
    }
  }
};

}  // namespace cyclops::algo
