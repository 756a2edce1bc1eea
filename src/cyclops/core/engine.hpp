#pragma once
// The Cyclops engine — synchronous vertex-oriented computation over the
// distributed immutable view (§3). Per superstep:
//   CMP  active masters run compute(), reading neighbor data from local
//        shared memory (masters or read-only replicas). activate_neighbors()
//        stages the vertex's new exposed data; local out-neighbors are
//        activated immediately with a lock-free bitset write (§5).
//   SND  each dirty master applies its staged data locally and sends exactly
//        one unidirectional message per replica: (slot, payload). No
//        combining, no parsing, no receive-side locks — each replica slot has
//        exactly one writer (§3.4), so receivers update in place, in
//        parallel, and perform distributed activation via the replica's
//        local out-edges.
//   SYN  global (or hierarchical, §5) barrier; active sets swap.
// There is no PRS phase — that is the point.
//
// Program concept:
//   struct P {
//     using Value;    // master-private state
//     using Message;  // replicated shared data (what neighbors read); POD
//     Value init(VertexId v, const graph::GraphStore& g) const;
//     Message init_shared(VertexId v, const graph::GraphStore& g) const;
//     bool initially_active(VertexId v, const graph::GraphStore& g) const;
//     template <typename Ctx> void compute(Ctx& ctx) const;
//   };

#include <algorithm>
#include <atomic>
#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "cyclops/common/bitset.hpp"
#include "cyclops/common/check.hpp"
#include "cyclops/common/exec.hpp"
#include "cyclops/common/serialize.hpp"
#include "cyclops/core/layout.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/metrics/memory_model.hpp"
#include "cyclops/metrics/superstep_stats.hpp"
#include "cyclops/partition/partition.hpp"
#include "cyclops/runtime/engine_shell.hpp"
#include "cyclops/runtime/sync_channel.hpp"
#include "cyclops/sim/software_model.hpp"
#include "cyclops/verify/verify.hpp"

namespace cyclops::core {

/// Cyclops engine configuration. One Config type drives both execution
/// models:
///   * Cyclops   — one single-threaded worker per partition
///                 (topo.workers_per_machine > 1, compute_threads == 1);
///   * CyclopsMT — one worker per machine, decomposed into compute_threads
///                 computation threads and receiver_threads message
///                 receivers, with the hierarchical barrier (§5).
struct Config : runtime::EngineConfig {
  Superstep max_supersteps = 100;

  unsigned compute_threads = 1;   ///< simulated threads per worker (T in MxWxT/R)
  unsigned receiver_threads = 1;  ///< simulated message receivers per worker (R)
  bool hierarchical_barrier = false;  ///< barrier over machines, not workers

  /// Fine-grained convergence detection (§4.4): stop once this fraction of
  /// vertices is converged. 1.0 disables it (run until no activations).
  double stop_converged_fraction = 1.0;

  /// Ablation switch: disable dynamic computation by forcing every master
  /// active in every superstep (the immutable view and unidirectional sync
  /// remain). Isolates how much of Cyclops' win comes from skipping
  /// converged vertices vs. from the messaging redesign.
  bool force_all_active = false;

  /// Plain Cyclops: M machines × W workers each.
  [[nodiscard]] static Config cyclops(MachineId machines, WorkerId workers_per_machine) {
    Config c;
    c.topo = sim::Topology{machines, workers_per_machine};
    return c;
  }

  /// CyclopsMT: M machines × 1 worker with T compute / R receiver threads.
  [[nodiscard]] static Config cyclops_mt(MachineId machines, unsigned threads,
                                         unsigned receivers) {
    Config c;
    c.topo = sim::Topology{machines, 1};
    c.compute_threads = threads;
    c.receiver_threads = receivers;
    c.hierarchical_barrier = true;
    return c;
  }
};

template <typename Program>
class Engine : public runtime::EngineShell<Engine<Program>, Config> {
  using Shell = runtime::EngineShell<Engine<Program>, Config>;
  friend Shell;
  using Shell::config_, Shell::fabric_, Shell::ledger_, Shell::pool_, Shell::vcheck_;

 public:
  using Value = typename Program::Value;
  using Message = typename Program::Message;
  static_assert(std::is_trivially_copyable_v<Message>,
                "replica sync payloads cross simulated machines; must be POD");

  /// Lightweight snapshots (§3.6) save masters only: replicas and messages
  /// are derived from the immutable view and regenerate on restore.
  static constexpr runtime::CheckpointMode kCheckpointMode =
      runtime::CheckpointMode::kLightweight;
  /// Cyclops replica sync rides the same Hadoop RPC stack as Hama, with
  /// bundled payloads updated in place.
  static constexpr sim::CostModel kCost = sim::CostModel::cyclops_sync();
  /// Cyclops runs on the same JVM as Hama (§6.12 notes the language gap
  /// against C++ PowerGraph), so compute rates match Hama's while messaging
  /// rates reflect the bundled lock-free sync path.
  static constexpr sim::SoftwareModel kSoftware = sim::SoftwareModel::cyclops_java();
  /// The sync messages are the only transient allocation.
  static constexpr bool kWireIsChurn = true;

  /// The per-vertex view handed to Program::compute — read-only access to
  /// all in-neighbors through the distributed immutable view.
  class Context {
   public:
    Context(Engine& engine, WorkerId worker, std::uint32_t master_idx) noexcept
        : engine_(engine),
          worker_(worker),
          master_idx_(master_idx),
          layout_(engine.layout_.workers[worker]) {}

    [[nodiscard]] VertexId vertex() const noexcept { return layout_.masters[master_idx_]; }
    [[nodiscard]] VertexId num_vertices() const noexcept {
      return engine_.graph_->num_vertices();
    }
    [[nodiscard]] Superstep superstep() const noexcept { return engine_.superstep(); }

    [[nodiscard]] const Value& value() const noexcept {
      return engine_.values_[worker_][master_idx_];
    }
    void set_value(const Value& v) noexcept {
      engine_.vcheck_.on_master_stage(worker_, worker_, master_idx_, CYCLOPS_VLOC);
      engine_.values_[worker_][master_idx_] = v;
    }

    /// The immutable view: in-edges resolved to local shared-data slots.
    [[nodiscard]] std::span<const SlotAdj> in_edges() const noexcept {
      return {layout_.in_adj.data() + layout_.in_offsets[master_idx_],
              layout_.in_adj.data() + layout_.in_offsets[master_idx_ + 1]};
    }
    /// Read-only neighbor data (previous superstep's exposed value).
    [[nodiscard]] const Message& data(Slot slot) const noexcept {
      engine_.vcheck_.on_view_read(worker_, worker_, slot, CYCLOPS_VLOC);
      return engine_.shared_data_[worker_][slot];
    }
    [[nodiscard]] std::size_t num_in_edges() const noexcept { return in_edges().size(); }

    [[nodiscard]] std::size_t out_degree() const noexcept {
      return engine_.graph_->out_degree(vertex());
    }

    /// Publishes `msg` as this vertex's shared data for the next superstep
    /// and activates all out-neighbors (local ones immediately and lock-free;
    /// remote ones via the single unidirectional replica-sync message).
    void activate_neighbors(const Message& msg) {
      engine_.vcheck_.on_master_stage(worker_, worker_, master_idx_, CYCLOPS_VLOC);
      engine_.pending_[worker_][master_idx_] = msg;
      engine_.dirty_[worker_].set(master_idx_);
      const auto& lo = layout_.lout_offsets;
      for (std::size_t e = lo[master_idx_]; e < lo[master_idx_ + 1]; ++e) {
        engine_.next_active_[worker_].set(layout_.lout_adj[e]);
      }
    }

    /// Fine-grained convergence bookkeeping (§4.4).
    void mark_converged(bool converged) noexcept {
      if (converged) {
        engine_.converged_[worker_].set(master_idx_);
      } else {
        engine_.converged_[worker_].clear(master_idx_);
      }
    }

   private:
    Engine& engine_;
    WorkerId worker_;
    std::uint32_t master_idx_;
    const WorkerLayout& layout_;
  };

  Engine(const graph::GraphStore& g, const partition::EdgeCutPartition& part, Program program,
         Config config)
      : Shell(config, g.message_budget_bytes(),
              /*lanes=*/std::max(1u, config.compute_threads),
              /*executors=*/std::max({1u, config.compute_threads, config.receiver_threads})),
        graph_(&g),
        program_(std::move(program)) {
    CYCLOPS_CHECK(part.num_parts() == config_.topo.total_workers());
    CYCLOPS_CHECK(g.num_vertices() == part.num_vertices());
    this->timed_ingress([&] {
      layout_ = build_layout(g, part);
      init_state();
    });
  }

  /// Gathers master values into one globally-indexed vector.
  [[nodiscard]] std::vector<Value> values() const {
    std::vector<Value> out(graph_->num_vertices());
    for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
      const WorkerLayout& wl = layout_.workers[w];
      for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
        out[wl.masters[i]] = values_[w][i];
      }
    }
    return out;
  }

  [[nodiscard]] const Layout& layout() const noexcept { return layout_; }

  /// Raises the superstep cap so run() can be called again to continue an
  /// already-finished computation (e.g. after a topology mutation).
  void extend_max_supersteps(Superstep additional) {
    config_.max_supersteps += additional;
  }

  /// Memory behaviour for Table 2. Replica bytes are the price of the view;
  /// message churn is what Cyclops *avoids* relative to Hama.
  [[nodiscard]] metrics::MemoryReport memory_report() const noexcept {
    metrics::MemoryReport r;
    for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
      const WorkerLayout& wl = layout_.workers[w];
      r.vertex_state_bytes += wl.num_masters() * (sizeof(Value) + sizeof(Message));
      r.vertex_state_bytes += wl.in_adj.size() * sizeof(SlotAdj) +
                              wl.lout_adj.size() * sizeof(std::uint32_t);
      r.replica_bytes += wl.num_replicas() * sizeof(Message);
    }
    const graph::StoreMemory sm = graph_->memory();
    return this->with_store_and_messages(r, sm.resident_bytes, sm.on_disk_bytes);
  }

  /// Invariant check: every replica's shared data equals its master's
  /// (bitwise, padding aside: a replica receives it cleared by the wire,
  /// while the master's may hold whatever its temporary did). Holds at every
  /// superstep boundary.
  [[nodiscard]] bool replicas_consistent() const {
    for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
      const WorkerLayout& wl = layout_.workers[w];
      for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
        Message master_data = shared_data_[w][i];
        __builtin_clear_padding(&master_data);
        for (std::size_t r = wl.rep_offsets[i]; r < wl.rep_offsets[i + 1]; ++r) {
          const ReplicaRef ref = wl.rep_targets[r];
          Message replica = shared_data_[ref.worker][ref.slot];
          __builtin_clear_padding(&replica);
          if (std::memcmp(&replica, &master_data, sizeof(Message)) != 0) return false;
        }
      }
    }
    return true;
  }

  /// Externally re-activates a vertex (by global id) for the next superstep
  /// executed — used after topology mutation so affected vertices recompute.
  void activate(VertexId v) {
    const auto [w, i] = master_slot(v);
    cur_active_[w].set(i);
  }

  /// Pre-run state override for incremental re-convergence (ingest layer):
  /// sets v's master value and exposed shared data, clears its convergence
  /// mark, activates it, and pushes the new shared data to every replica
  /// immediately — so the very first CMP phase after this call already reads
  /// the overridden view. Legal only between run() calls (phase kIdle).
  void reset_vertex(VertexId v, const Value& value, const Message& shared) {
    const auto [w, i] = master_slot(v);
    vcheck_.on_master_write(w, w, i, CYCLOPS_VLOC);
    values_[w][i] = value;
    shared_data_[w][i] = shared;
    converged_[w].clear(i);
    cur_active_[w].set(i);
    const WorkerLayout& wl = layout_.workers[w];
    for (std::size_t r = wl.rep_offsets[i]; r < wl.rep_offsets[i + 1]; ++r) {
      const ReplicaRef ref = wl.rep_targets[r];
      vcheck_.on_replica_write(ref.worker, ref.worker, ref.slot, CYCLOPS_VLOC);
      shared_data_[ref.worker][ref.slot] = shared;
    }
  }

  /// Master value of one vertex (by global id) — the point lookup the
  /// incremental layer uses to compute affected regions without gathering
  /// the full values() vector.
  [[nodiscard]] const Value& value_at(VertexId v) const {
    const auto [w, i] = master_slot(v);
    return values_[w][i];
  }

  /// Topology mutation (§8 future work; see core/mutation.hpp): re-targets
  /// the engine at a mutated graph + partition, carrying all master state
  /// (values, shared data, activity, convergence marks) across by vertex id.
  /// New vertices are initialized by the program; replicas are rebuilt and
  /// resynchronized (they are derived state). Both arguments must outlive
  /// the engine. Returns the ingress time of the rebuild.
  double rebuild(const graph::GraphStore& new_graph, const partition::EdgeCutPartition& new_part) {
    CYCLOPS_CHECK(new_part.num_parts() == config_.topo.total_workers());
    CYCLOPS_CHECK(new_graph.num_vertices() == new_part.num_vertices());
    return this->timed_ingress([&] { retarget(new_graph, new_part); });
  }

  /// Rebuilds every replica from its master's shared data (used after
  /// restore; replicas are derived state and are never checkpointed).
  void resync_replicas() {
    for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
      const WorkerLayout& wl = layout_.workers[w];
      for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
        const Message& msg = shared_data_[w][i];
        for (std::size_t r = wl.rep_offsets[i]; r < wl.rep_offsets[i + 1]; ++r) {
          const ReplicaRef ref = wl.rep_targets[r];
          // Driver-thread write, stamped so a concurrent reader shows up as a
          // race rather than silently observing a half-resynced view.
          vcheck_.on_replica_write(ref.worker, ref.worker, ref.slot, CYCLOPS_VLOC);
          shared_data_[ref.worker][ref.slot] = msg;
        }
      }
    }
  }

 private:
  struct WireRecord {
    Slot slot;
    Message payload;
  };
  using Channel = runtime::SyncChannel<WireRecord>;

  /// rebuild()'s body: swaps in the new graph and layout, carrying master
  /// state across by vertex id.
  void retarget(const graph::GraphStore& new_graph,
                const partition::EdgeCutPartition& new_part) {
    const VertexId old_n = graph_->num_vertices();

    // Save master state keyed by global id.
    std::vector<Value> old_values(old_n);
    std::vector<Message> old_shared(old_n);
    std::vector<std::uint8_t> old_flags(old_n, 0);
    for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
      const WorkerLayout& wl = layout_.workers[w];
      for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
        const VertexId v = wl.masters[i];
        old_values[v] = values_[w][i];
        old_shared[v] = shared_data_[w][i];
        old_flags[v] = static_cast<std::uint8_t>((cur_active_[w].test(i) ? 1 : 0) |
                                                 (converged_[w].test(i) ? 2 : 0) |
                                                 (next_active_[w].test(i) ? 4 : 0));
      }
    }

    graph_ = &new_graph;
    this->arm_store_budget(graph_->message_budget_bytes());
    layout_ = build_layout(new_graph, new_part);
    init_state();

    // Restore carried state over the fresh initialization; vertices that are
    // new to the graph keep the program's init state (including its
    // initially_active decision).
    for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
      const WorkerLayout& wl = layout_.workers[w];
      for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
        const VertexId v = wl.masters[i];
        if (v >= old_n) continue;
        values_[w][i] = old_values[v];
        shared_data_[w][i] = old_shared[v];
        if (old_flags[v] & 1) {
          cur_active_[w].set(i);
        } else {
          cur_active_[w].clear(i);
        }
        if (old_flags[v] & 2) converged_[w].set(i);
        if (old_flags[v] & 4) next_active_[w].set(i);
      }
    }
    resync_replicas();
  }

  /// Vertex v's master (by global id): its worker and slot. Each worker's
  /// masters are sorted, and every vertex is mastered on exactly one worker.
  [[nodiscard]] std::pair<WorkerId, std::uint32_t> master_slot(VertexId v) const {
    CYCLOPS_CHECK(v < graph_->num_vertices());
    for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
      const auto& masters = layout_.workers[w].masters;
      const auto it = std::lower_bound(masters.begin(), masters.end(), v);
      if (it != masters.end() && *it == v) {
        return {w, static_cast<std::uint32_t>(it - masters.begin())};
      }
    }
    CYCLOPS_CHECK(false);  // vertex must be mastered somewhere
    return {};
  }

  /// One machine's self-describing checkpoint frame: engine header +
  /// superstep + that machine's workers' state. Lightweight saves master
  /// values and master shared data; heavyweight additionally persists every
  /// replica slot, the Pregel-style full snapshot bench_paper's REC panel
  /// compares against.
  void checkpoint_machine(MachineId m, ByteWriter& out,
                          runtime::CheckpointMode mode) const {
    runtime::write_engine_header(out, runtime::EngineTag::kCyclops, mode,
                                 graph_->num_vertices(), graph_->num_edges());
    out.write(this->superstep());
    const auto [begin, end] = this->machine_workers(m);
    for (WorkerId w = begin; w < end; ++w) {
      const WorkerLayout& wl = layout_.workers[w];
      out.write_vector(values_[w]);
      if (mode == runtime::CheckpointMode::kHeavyweight) {
        out.write_vector(shared_data_[w]);  // all slots: masters + replicas
      } else {
        // Master shared data: first num_masters() slots.
        std::vector<Message> master_shared(shared_data_[w].begin(),
                                           shared_data_[w].begin() + wl.num_masters());
        out.write_vector(master_shared);
      }
      std::vector<std::uint8_t> flags(wl.num_masters());
      for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
        flags[i] = static_cast<std::uint8_t>((cur_active_[w].test(i) ? 1 : 0) |
                                             (converged_[w].test(i) ? 2 : 0));
      }
      out.write_vector(flags);
    }
  }

  void restore_machine(MachineId m, ByteReader& in) {
    const runtime::CheckpointMode mode = runtime::read_engine_header(
        in, runtime::EngineTag::kCyclops, graph_->num_vertices(), graph_->num_edges());
    this->set_superstep(in.read<Superstep>());
    const auto [begin, end] = this->machine_workers(m);
    for (WorkerId w = begin; w < end; ++w) {
      const WorkerLayout& wl = layout_.workers[w];
      values_[w] = in.read_vector<Value>();
      if (values_[w].size() != wl.num_masters()) {
        throw SerializeError("cyclops snapshot: master value count mismatch");
      }
      const auto shared = in.read_vector<Message>();
      const std::size_t expect = mode == runtime::CheckpointMode::kHeavyweight
                                     ? wl.num_slots()
                                     : wl.num_masters();
      if (shared.size() != expect) {
        throw SerializeError("cyclops snapshot: shared-data slot count mismatch");
      }
      std::copy(shared.begin(), shared.end(), shared_data_[w].begin());
      const auto flags = in.read_vector<std::uint8_t>();
      if (flags.size() != wl.num_masters()) {
        throw SerializeError("cyclops snapshot: activity flag count mismatch");
      }
      cur_active_[w].clear_all();
      converged_[w].clear_all();
      for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
        if (flags[i] & 1) cur_active_[w].set(i);
        if (flags[i] & 2) converged_[w].set(i);
      }
      next_active_[w].clear_all();
      dirty_[w].clear_all();
    }
  }

  /// Heavyweight snapshots already carry replica slots, but resyncing from
  /// masters is idempotent and also covers lightweight restores.
  void after_restore() { resync_replicas(); }

  void init_state() {
    const WorkerId workers = config_.topo.total_workers();
    shared_data_.resize(workers);
    values_.resize(workers);
    pending_.resize(workers);
    cur_active_.resize(workers);
    next_active_.resize(workers);
    dirty_.resize(workers);
    converged_.resize(workers);
    // SND's per-destination record counts: one row per (worker, thread)
    // executor, so a superstep allocates nothing for them.
    per_dest_.assign(static_cast<std::size_t>(workers) * std::max(1u, config_.compute_threads),
                     std::vector<std::size_t>(workers, 0));
    for (WorkerId w = 0; w < workers; ++w) {
      const WorkerLayout& wl = layout_.workers[w];
      shared_data_[w].resize(wl.num_slots());
      values_[w].resize(wl.num_masters());
      pending_[w].resize(wl.num_masters());
      cur_active_[w].resize(wl.num_masters());
      next_active_[w].resize(wl.num_masters());
      dirty_[w].resize(wl.num_masters());
      converged_[w].resize(wl.num_masters());
      for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
        const VertexId v = wl.masters[i];
        values_[w][i] = program_.init(v, *graph_);
        shared_data_[w][i] = program_.init_shared(v, *graph_);
        if (program_.initially_active(v, *graph_)) cur_active_[w].set(i);
      }
      for (std::uint32_t i = 0; i < wl.num_replicas(); ++i) {
        shared_data_[w][wl.num_masters() + i] =
            program_.init_shared(wl.replica_globals[i], *graph_);
      }
    }
    if constexpr (verify::kEnabled) {
      // (Re)declare the slot space: slots [0, num_masters) are owned masters,
      // the rest are read-only replicas owned by their home worker. rebuild()
      // and restore() funnel through here, so stamps never outlive a layout.
      vcheck_.reset();
      for (WorkerId w = 0; w < workers; ++w) {
        const WorkerLayout& wl = layout_.workers[w];
        std::vector<VertexId> slot_global(wl.num_slots());
        std::vector<WorkerId> slot_owner(wl.num_slots());
        for (std::uint32_t i = 0; i < wl.num_masters(); ++i) {
          slot_global[i] = wl.masters[i];
          slot_owner[i] = w;
        }
        for (std::uint32_t i = 0; i < wl.num_replicas(); ++i) {
          slot_global[wl.num_masters() + i] = wl.replica_globals[i];
          slot_owner[wl.num_masters() + i] = wl.replica_owner[i];
        }
        vcheck_.register_worker(w, wl.num_masters(), std::move(slot_global),
                                std::move(slot_owner));
      }
    }
  }

  bool run_superstep(metrics::SuperstepStats& step) {
    const WorkerId workers = config_.topo.total_workers();
    const unsigned T = std::max(1u, config_.compute_threads);
    const unsigned R = std::max(1u, config_.receiver_threads);

    const sim::SoftwareModel& sw = kSoftware;
    const double per_emit_us = sw.msg_serialize_us + sizeof(WireRecord) * sw.msg_byte_us;
    const double per_deliver_us = sw.msg_deliver_us + 0.5 * sizeof(WireRecord) * sw.msg_byte_us;

    // --- CMP: active masters compute over the immutable view, chunked
    // across the worker's simulated compute threads; each (worker, thread)
    // chunk is one ledger executor and walks its chunk's active bits word by
    // word, in increasing order. ---
    std::atomic<std::uint64_t> active{0};
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kCompute);
      pool_.parallel_tasks(static_cast<std::size_t>(workers) * T, [&](std::size_t e) {
        const WorkerId w = static_cast<WorkerId>(e / T);
        const unsigned t = static_cast<unsigned>(e % T);
        const WorkerLayout& wl = layout_.workers[w];
        const ChunkRange r = chunk_range(wl.num_masters(), T, t);
        std::uint64_t computed = 0, scanned = 0;
        const auto compute = [&](std::size_t i) {
          Context ctx(*this, w, static_cast<std::uint32_t>(i));
          program_.compute(ctx);
          ++computed;
          scanned += wl.in_offsets[i + 1] - wl.in_offsets[i];
        };
        if (config_.force_all_active) {
          for (std::size_t i = r.begin; i < r.end; ++i) compute(i);
        } else {
          cur_active_[w].for_each_in(r.begin, r.end, compute);
        }
        active += computed;
        ledger_.charge_compute(
            e, static_cast<double>(computed) * sw.vertex_op_us * sim::vertex_op_weight<Program>() +
                   static_cast<double>(scanned) * sw.edge_op_us * sim::edge_op_weight<Program>());
      });
    }
    step.active_vertices = active;
    step.computed_vertices = step.active_vertices;

    // --- SND: apply staged data locally and send one message per replica of
    // each dirty master, batched through the typed sync channel: each lane
    // first sizes its chunk's traffic per destination, reserves once, then
    // appends records directly — no per-record serializer round-trip. Both
    // passes walk the chunk's dirty bits word by word.
    // CyclopsMT parallelizes the send path with private per-thread out-queues
    // (fabric lanes), §5 — each compute thread ships the sync messages of its
    // own master chunk. ---
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kSend);
      pool_.parallel_tasks(static_cast<std::size_t>(workers) * T, [&](std::size_t e) {
        const WorkerId w = static_cast<WorkerId>(e / T);
        const unsigned t = static_cast<unsigned>(e % T);
        const WorkerLayout& wl = layout_.workers[w];
        auto sender = Channel::sender(fabric_, w, t, &vcheck_, CYCLOPS_VLOC);
        const ChunkRange range = chunk_range(wl.num_masters(), T, t);
        std::vector<std::size_t>& per_dest = per_dest_[e];
        std::fill(per_dest.begin(), per_dest.end(), 0);
        std::uint64_t emitted = 0;
        dirty_[w].for_each_in(range.begin, range.end, [&](std::size_t i) {
          for (std::size_t r = wl.rep_offsets[i]; r < wl.rep_offsets[i + 1]; ++r) {
            ++per_dest[wl.rep_targets[r].worker];
          }
        });
        for (WorkerId to = 0; to < workers; ++to) {
          if (per_dest[to] > 0) sender.reserve(to, per_dest[to]);
        }
        dirty_[w].for_each_in(range.begin, range.end, [&](std::size_t i) {
          const Message& msg = pending_[w][i];
          vcheck_.on_master_write(w, w, static_cast<std::uint32_t>(i), CYCLOPS_VLOC);
          shared_data_[w][i] = msg;  // local apply: visible next superstep
          for (std::size_t r = wl.rep_offsets[i]; r < wl.rep_offsets[i + 1]; ++r) {
            const ReplicaRef ref = wl.rep_targets[r];
            sender.send(ref.worker, WireRecord{ref.slot, msg});
            ++emitted;
          }
        });
        ledger_.charge_send(e, static_cast<double>(emitted) * per_emit_us);
      });
    }
    for (WorkerId w = 0; w < workers; ++w) dirty_[w].clear_all();

    // Barrier participants: hierarchical (§5) synchronizes machines only
    // (threads wait on a local barrier); a flat barrier involves every
    // last-level execution unit.
    this->exchange(step, config_.hierarchical_barrier
                             ? config_.topo.machines
                             : static_cast<std::size_t>(workers) * T);

    // --- Receive: lock-free in-place replica update + distributed
    // activation, chunked across the worker's simulated receiver threads.
    // No parsing phase, no queue, no locks: each replica slot has exactly
    // one writer. ---
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kExchange);
      pool_.parallel_tasks(static_cast<std::size_t>(workers) * R, [&](std::size_t e) {
        const WorkerId w = static_cast<WorkerId>(e / R);
        const unsigned rth = static_cast<unsigned>(e % R);
        const WorkerLayout& wl = layout_.workers[w];
        const auto packages = fabric_.incoming(w);
        const ChunkRange pr = chunk_range(packages.size(), R, rth);
        std::uint64_t received = 0;
        for (std::size_t pi = pr.begin; pi < pr.end; ++pi) {
          Channel::for_each(packages[pi], [&](const WireRecord& rec) {
            vcheck_.on_replica_write(w, w, rec.slot, CYCLOPS_VLOC);
            shared_data_[w][rec.slot] = rec.payload;
            ++received;
            for (std::size_t o = wl.lout_offsets[rec.slot];
                 o < wl.lout_offsets[rec.slot + 1]; ++o) {
              next_active_[w].set(wl.lout_adj[o]);
            }
          });
        }
        ledger_.charge_receive(e, static_cast<double>(received) * per_deliver_us);
      });
    }
    for (WorkerId w = 0; w < workers; ++w) fabric_.clear_incoming(w);

    // --- SYN: swap active sets, decide termination. Its modeled time is the
    // exchange's barrier. ---
    verify::PhaseScope syn_scope(vcheck_, verify::Phase::kSync);
    // Fine-grained convergence (§4.4): a vertex counts as converged when its
    // last compute reported a sub-epsilon error (mark_converged) OR when it
    // is inactive — a deactivated vertex cannot change until reactivated.
    // One word-skipping walk of the new active set counts both.
    std::uint64_t activated = 0;
    std::uint64_t active_unconverged = 0;
    std::uint64_t total_masters = 0;
    for (WorkerId w = 0; w < workers; ++w) {
      cur_active_[w].swap(next_active_[w]);
      next_active_[w].clear_all();
      total_masters += layout_.workers[w].num_masters();
      cur_active_[w].for_each([&](std::size_t i) {
        ++activated;
        if (!converged_[w].test(i)) ++active_unconverged;
      });
    }
    step.converged_vertices = total_masters - active_unconverged;
    bool done = activated == 0;
    if (config_.stop_converged_fraction < 1.0 && graph_->num_vertices() > 0) {
      const double frac = static_cast<double>(step.converged_vertices) /
                          static_cast<double>(graph_->num_vertices());
      if (frac >= config_.stop_converged_fraction) done = true;
    }
    return done;
  }

  const graph::GraphStore* graph_;
  Program program_;
  Layout layout_;

  std::vector<std::vector<Message>> shared_data_;  // [worker][slot]
  std::vector<std::vector<Value>> values_;         // [worker][master idx]
  std::vector<std::vector<Message>> pending_;      // staged activate payloads
  std::vector<DenseBitset> cur_active_;
  std::vector<DenseBitset> next_active_;
  std::vector<DenseBitset> dirty_;
  std::vector<DenseBitset> converged_;
  std::vector<std::vector<std::size_t>> per_dest_;  // [executor][destination worker]
};

}  // namespace cyclops::core
