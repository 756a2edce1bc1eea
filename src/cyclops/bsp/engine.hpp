#pragma once
// Hama-style Pregel/BSP engine — the baseline every speedup in Section 6 is
// measured against. Faithful to the deficiencies §2.2 identifies:
//   * pure message passing: every superstep parses (PRS), computes (CMP),
//     sends (SND), and synchronizes (SYN);
//   * a *global* in-queue per worker whose enqueue is lock-protected — the
//     receive-side contention point;
//   * push-mode: senders must stay alive to feed pull-mode algorithms, so
//     converged vertices keep computing and re-sending identical payloads;
//   * convergence detection by a global average-error aggregator.
//
// Program concept:
//   struct P {
//     using Value;                       // per-vertex state
//     using Message;                     // trivially copyable wire payload
//     Value init(VertexId v, const graph::GraphStore& g) const;
//     template <typename Ctx> void compute(Ctx& ctx, std::span<const Message> msgs) const;
//   };
// Optionally `static constexpr bool kCombinable = true` plus
// `Message combine(Message, Message) const` enables the Hama combiner.

#include <algorithm>
#include <atomic>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "cyclops/common/bitset.hpp"
#include "cyclops/common/check.hpp"
#include "cyclops/common/serialize.hpp"
#include "cyclops/common/spinlock.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/metrics/memory_model.hpp"
#include "cyclops/metrics/superstep_stats.hpp"
#include "cyclops/partition/partition.hpp"
#include "cyclops/runtime/engine_shell.hpp"
#include "cyclops/runtime/sync_channel.hpp"
#include "cyclops/sim/software_model.hpp"
#include "cyclops/verify/verify.hpp"

namespace cyclops::bsp {

/// BSP configuration; the knobs beyond the shared runtime ones mirror Hama's.
struct Config : runtime::EngineConfig {
  Superstep max_supersteps = 100;
  bool use_combiner = false;     ///< Hama's sender-side combiner
  bool track_redundant = false;  ///< Fig 3(2) instrumentation

  [[nodiscard]] static Config workers(WorkerId w) {
    Config c;
    c.topo = sim::Topology{w, 1};
    return c;
  }
};

template <typename P>
concept Combinable = requires(const P& p, typename P::Message m) {
  { p.combine(m, m) } -> std::convertible_to<typename P::Message>;
  requires P::kCombinable;
};

/// Programs may define a tolerance-aware payload comparison used by the
/// redundant-message instrumentation (Fig 3(2)); bitwise equality otherwise.
template <typename P>
concept HasNearlyEqual = requires(const P& p, typename P::Message m) {
  { p.nearly_equal(m, m) } -> std::convertible_to<bool>;
};

template <typename Program>
class Engine : public runtime::EngineShell<Engine<Program>, Config> {
  using Shell = runtime::EngineShell<Engine<Program>, Config>;
  friend Shell;
  using Shell::acct_, Shell::config_, Shell::fabric_, Shell::ledger_, Shell::pool_, Shell::vcheck_;

 public:
  using Value = typename Program::Value;
  using Message = typename Program::Message;
  static_assert(std::is_trivially_copyable_v<Message>,
                "messages cross simulated machines; they must be POD");

  /// Pregel-style checkpoints (§3.6) carry the undelivered in-queues in any
  /// mode — pending messages are not derivable from vertex state — so BSP's
  /// natural snapshot is the heavyweight one.
  static constexpr runtime::CheckpointMode kCheckpointMode =
      runtime::CheckpointMode::kHeavyweight;
  static constexpr sim::CostModel kCost = sim::CostModel::hama_java();
  static constexpr sim::SoftwareModel kSoftware = sim::SoftwareModel::hama_java();
  /// BSP's transient allocation is its mailboxes and in-queues, accounted
  /// in PRS, not the wire traffic.
  static constexpr bool kWireIsChurn = false;

  /// Per-vertex view handed to Program::compute.
  class Context {
   public:
    Context(Engine& engine, WorkerId worker, VertexId vertex) noexcept
        : engine_(engine), worker_(worker), vertex_(vertex) {}

    [[nodiscard]] VertexId vertex() const noexcept { return vertex_; }
    [[nodiscard]] VertexId num_vertices() const noexcept {
      return engine_.graph_->num_vertices();
    }
    [[nodiscard]] Superstep superstep() const noexcept { return engine_.superstep(); }

    [[nodiscard]] const Value& value() const noexcept { return engine_.values_[vertex_]; }
    void set_value(const Value& v) noexcept {
      engine_.vcheck_.on_master_stage(worker_, worker_, vertex_, CYCLOPS_VLOC);
      engine_.values_[vertex_] = v;
    }

    /// Adjacency via the worker's cursor: valid until this worker's next
    /// adjacency query (compute runs one task per worker).
    [[nodiscard]] std::span<const graph::Adj> out_edges() const {
      return engine_.graph_->out_neighbors(vertex_, engine_.cursors_[worker_]);
    }
    [[nodiscard]] std::size_t out_degree() const noexcept {
      return engine_.graph_->out_degree(vertex_);
    }

    void send_to(VertexId dst, const Message& msg) {
      engine_.note_sent(worker_, vertex_, msg, 1);
      engine_.stage_message(worker_, dst, msg);
    }
    void send_to_neighbors(const Message& msg) {
      engine_.note_sent(worker_, vertex_, msg, out_degree());
      for (const graph::Adj& a : out_edges()) engine_.stage_message(worker_, a.neighbor, msg);
    }

    void vote_to_halt() noexcept { voted_halt_ = true; }
    [[nodiscard]] bool voted_halt() const noexcept { return voted_halt_; }

    /// Contributes to the global average-error aggregator (visible next
    /// superstep via global_error()).
    void aggregate_error(double err) noexcept {
      engine_.worker_agg_[worker_].sum += err;
      engine_.worker_agg_[worker_].count += 1;
    }
    /// Average aggregated error from the previous superstep; +inf initially.
    [[nodiscard]] double global_error() const noexcept { return engine_.global_error_; }

   private:
    Engine& engine_;
    WorkerId worker_;
    VertexId vertex_;
    bool voted_halt_ = false;
  };

  /// The engine copies the partition (owner table) so callers may pass
  /// temporaries; the graph must outlive the engine.
  Engine(const graph::GraphStore& g, partition::EdgeCutPartition part, Program program,
         Config config)
      : Shell(std::move(config), g.message_budget_bytes()),
        graph_(&g),
        part_(std::move(part)),
        program_(std::move(program)) {
    CYCLOPS_CHECK(part_.num_parts() == config_.topo.total_workers());
    CYCLOPS_CHECK(g.num_vertices() == part_.num_vertices());
    build_local_state();
  }

  [[nodiscard]] std::span<const Value> values() const noexcept { return values_; }

  /// Memory behaviour for Table 2: resident graph state plus transient
  /// message churn (message_churn_bytes is the GC-pressure analog). Hama has
  /// no replicas, but each message is materialized once on the wire, once in
  /// the global in-queue, and once in a mailbox.
  [[nodiscard]] metrics::MemoryReport memory_report() const noexcept {
    metrics::MemoryReport r;
    r.vertex_state_bytes = graph_->num_vertices() * sizeof(Value);
    const graph::StoreMemory sm = graph_->memory();
    return this->with_store_and_messages(r, sm.resident_bytes, sm.on_disk_bytes);
  }
  /// Global in-queue lock acquisitions — the contention §2.2.2 describes.
  [[nodiscard]] std::uint64_t lock_acquisitions() const noexcept {
    std::uint64_t total = 0;
    for (const auto& l : inqueue_locks_) total += l.acquisitions();
    return total;
  }

 private:
  struct WireRecord {
    VertexId dst;
    Message payload;
  };
  using Channel = runtime::SyncChannel<WireRecord>;

  struct WorkerAgg {
    double sum = 0;
    std::uint64_t count = 0;
  };

  struct StageBucket {
    std::vector<WireRecord> records;
    std::unordered_map<VertexId, Message> combined;
  };

  void build_local_state() {
    const VertexId n = graph_->num_vertices();
    const WorkerId workers = part_.num_parts();
    values_.resize(n);
    for (VertexId v = 0; v < n; ++v) values_[v] = program_.init(v, *graph_);
    mailbox_.assign(n, {});
    active_.resize(n);
    active_.set_all();
    halted_.resize(n);
    local_vertices_.assign(workers, {});
    for (VertexId v = 0; v < n; ++v) local_vertices_[part_.owner(v)].push_back(v);
    cursors_ = std::vector<graph::AdjCursor>(workers);
    staged_.assign(workers, std::vector<StageBucket>(workers));
    inqueue_.assign(workers, {});
    inqueue_locks_ = std::vector<SpinLock>(workers);
    worker_agg_.assign(workers, WorkerAgg{});
    redundant_acc_.assign(workers, 0);
    if (config_.track_redundant) {
      last_sent_hash_.assign(n, 0);
      last_payload_.assign(n, Message{});
      has_last_payload_.resize(n);
    }
    if constexpr (verify::kEnabled) {
      // Hama addresses vertices by global id, so every worker registers the
      // same slot space: slot == vertex id, owned by the partition's owner.
      vcheck_.reset();
      std::vector<VertexId> ids(n);
      std::vector<WorkerId> owners(n);
      for (VertexId v = 0; v < n; ++v) {
        ids[v] = v;
        owners[v] = part_.owner(v);
      }
      for (WorkerId w = 0; w < workers; ++w) {
        vcheck_.register_worker(w, static_cast<std::uint32_t>(n), ids, owners);
      }
    }
  }

  /// One machine's frame: engine header + superstep + aggregator + the
  /// vertex slices its workers own (deterministic ascending-id order; ids
  /// are implicit because ownership is derivable from the partition) + its
  /// workers' global in-queues. global_error_ is a broadcast aggregate, so
  /// every frame carries a copy. The in-queues ride along in every mode;
  /// only the mode tag differs — the asymmetry §3.6 claims against Cyclops.
  void checkpoint_machine(MachineId m, ByteWriter& out,
                          runtime::CheckpointMode mode) const {
    runtime::write_engine_header(out, runtime::EngineTag::kBsp, mode,
                                 graph_->num_vertices(), graph_->num_edges());
    out.write(this->superstep());
    out.write(global_error_);
    const VertexId n = graph_->num_vertices();
    std::vector<Value> vals;
    std::vector<std::uint8_t> flags;
    for (VertexId v = 0; v < n; ++v) {
      if (config_.topo.machine_of(part_.owner(v)) != m) continue;
      vals.push_back(values_[v]);
      flags.push_back(static_cast<std::uint8_t>((halted_.test(v) ? 1 : 0) |
                                                (active_.test(v) ? 2 : 0)));
    }
    out.write_vector(vals);
    out.write_vector(flags);
    const auto [begin, end] = this->machine_workers(m);
    for (WorkerId w = begin; w < end; ++w) out.write_vector(inqueue_[w]);
  }

  void restore_machine(MachineId m, ByteReader& in) {
    (void)runtime::read_engine_header(in, runtime::EngineTag::kBsp,
                                      graph_->num_vertices(), graph_->num_edges());
    this->set_superstep(in.read<Superstep>());
    global_error_ = in.read<double>();
    const auto vals = in.read_vector<Value>();
    const auto flags = in.read_vector<std::uint8_t>();
    if (vals.size() != flags.size()) {
      throw SerializeError("bsp snapshot shape mismatch");
    }
    const VertexId n = graph_->num_vertices();
    std::size_t i = 0;
    for (VertexId v = 0; v < n; ++v) {
      if (config_.topo.machine_of(part_.owner(v)) != m) continue;
      if (i >= vals.size()) throw SerializeError("bsp snapshot shape mismatch");
      values_[v] = vals[i];
      if (flags[i] & 1) halted_.set(v); else halted_.clear(v);
      if (flags[i] & 2) active_.set(v); else active_.clear(v);
      ++i;
    }
    if (i != vals.size()) throw SerializeError("bsp snapshot shape mismatch");
    const auto [begin, end] = this->machine_workers(m);
    for (WorkerId w = begin; w < end; ++w) inqueue_[w] = in.read_vector<WireRecord>();
  }

  /// Nothing is derived from other machines' state: the frames are complete.
  void after_restore() noexcept {}

  void note_sent(WorkerId worker, VertexId src, const Message& msg, std::size_t count) {
    if (!config_.track_redundant) return;
    if constexpr (HasNearlyEqual<Program>) {
      if (has_last_payload_.test(src) && program_.nearly_equal(last_payload_[src], msg)) {
        redundant_acc_[worker] += count;
      }
      last_payload_[src] = msg;
      has_last_payload_.set(src);
    } else {
      const std::uint64_t h = payload_hash(msg);
      if (last_sent_hash_[src] == h) redundant_acc_[worker] += count;
      last_sent_hash_[src] = h;
    }
  }

  void stage_message(WorkerId from, VertexId dst, const Message& msg) {
    const WorkerId to = part_.owner(dst);
    StageBucket& bucket = staged_[from][to];
    if constexpr (Combinable<Program>) {
      if (config_.use_combiner) {
        auto [it, inserted] = bucket.combined.try_emplace(dst, msg);
        if (!inserted) it->second = program_.combine(it->second, msg);
        return;
      }
    }
    bucket.records.push_back(WireRecord{dst, msg});
  }

  static std::uint64_t payload_hash(const Message& m) noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    const auto* p = reinterpret_cast<const std::uint8_t*>(&m);
    for (std::size_t i = 0; i < sizeof(Message); ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
    return h == 0 ? 1 : h;
  }

  bool run_superstep(metrics::SuperstepStats& step) {
    const WorkerId workers = part_.num_parts();
    // Each worker is one ledger executor; it charges its counted work x
    // per-op rates at the end of each phase task.
    const sim::SoftwareModel& sw = kSoftware;
    const double per_parse_us = sw.msg_parse_us + 0.5 * sizeof(WireRecord) * sw.msg_byte_us;
    const double per_emit_us = sw.msg_serialize_us + sizeof(WireRecord) * sw.msg_byte_us;
    const double per_deliver_us = sw.msg_deliver_us + 0.5 * sizeof(WireRecord) * sw.msg_byte_us;

    // --- PRS: parse the global in-queue into per-vertex mailboxes and
    // activate recipients. ---
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kParse);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        auto& queue = inqueue_[w];
        // Read-then-clear of the global in-queue: a write stamp conflicts
        // with any unordered enqueue still in flight from the exchange.
        vcheck_.on_queue_access(static_cast<WorkerId>(w), static_cast<WorkerId>(w),
                                /*is_write=*/true, CYCLOPS_VLOC);
        ledger_.charge_parse(w, static_cast<double>(queue.size()) * per_parse_us);
        for (const WireRecord& rec : queue) {
          vcheck_.on_master_stage(static_cast<WorkerId>(w), static_cast<WorkerId>(w),
                                  rec.dst, CYCLOPS_VLOC);
          vcheck_.on_mailbox_write(static_cast<WorkerId>(w), static_cast<WorkerId>(w),
                                   rec.dst, CYCLOPS_VLOC);
          mailbox_[rec.dst].push_back(rec.payload);
          active_.set(rec.dst);
          halted_.clear(rec.dst);
        }
        acct_.add_churn_bytes(queue.size() * sizeof(WireRecord));
        queue.clear();
        queue.shrink_to_fit();
      });
    }

    // --- CMP: run compute on active vertices. ---
    std::atomic<std::uint64_t> active{0};
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kCompute);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        std::uint64_t computed = 0, consumed = 0;  // consumed: messages read
        for (VertexId v : local_vertices_[w]) {
          if (!active_.test(v)) continue;
          Context ctx(*this, static_cast<WorkerId>(w), v);
          vcheck_.on_mailbox_read(static_cast<WorkerId>(w), static_cast<WorkerId>(w), v,
                                  CYCLOPS_VLOC);
          program_.compute(ctx, std::span<const Message>(mailbox_[v]));
          ++computed;
          consumed += mailbox_[v].size();
          if (ctx.voted_halt()) {
            halted_.set(v);
            active_.clear(v);
          }
          if (!mailbox_[v].empty()) {
            vcheck_.on_mailbox_write(static_cast<WorkerId>(w), static_cast<WorkerId>(w), v,
                                     CYCLOPS_VLOC);
            std::vector<Message>().swap(mailbox_[v]);
          }
        }
        active += computed;
        ledger_.charge_compute(
            w, static_cast<double>(computed) * sw.vertex_op_us * sim::vertex_op_weight<Program>() +
                   static_cast<double>(consumed) * sw.edge_op_us * sim::edge_op_weight<Program>());
      });
    }
    step.active_vertices = active;
    step.computed_vertices = step.active_vertices;

    // --- SND: batch staged messages onto the wire through the typed sync
    // channel (one reserve per destination, one append per record), exchange,
    // then run the receive side: every record enqueues into the destination
    // worker's global in-queue under its lock (the §2.2.2 contention point). ---
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kSend);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        auto sender =
            Channel::sender(fabric_, static_cast<WorkerId>(w), 0, &vcheck_, CYCLOPS_VLOC);
        std::uint64_t emitted = 0;
        for (WorkerId to = 0; to < workers; ++to) {
          StageBucket& bucket = staged_[w][to];
          const std::size_t n = bucket.combined.size() + bucket.records.size();
          if (n == 0) continue;
          sender.reserve(to, n);
          if constexpr (Combinable<Program>) {
            // Drain the combiner map in ascending-dst order: unordered_map
            // iteration order is load-factor- and libstdc++-version-dependent
            // and must never decide wire layout (bit-identical traffic across
            // runs is a repo invariant; see tools/analyze/rules.hpp).
            std::vector<WireRecord> drained;
            drained.reserve(bucket.combined.size());
            for (const auto& [dst, msg] : bucket.combined) {
              drained.push_back(WireRecord{dst, msg});
            }
            std::sort(drained.begin(), drained.end(),
                      [](const WireRecord& a, const WireRecord& b) { return a.dst < b.dst; });
            for (const WireRecord& rec : drained) sender.send(to, rec);
            bucket.combined.clear();
          }
          for (const WireRecord& rec : bucket.records) sender.send(to, rec);
          bucket.records.clear();
          emitted += n;
        }
        ledger_.charge_send(w, static_cast<double>(emitted) * per_emit_us);
      });
    }
    for (auto& r : redundant_acc_) {
      step.redundant_messages += r;
      r = 0;
    }

    this->exchange(step, workers);

    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kExchange);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        std::uint64_t delivered = 0;
        Channel::drain(fabric_, static_cast<WorkerId>(w), [&](const WireRecord& rec) {
          inqueue_locks_[w].lock();
          // Stamped inside the critical section: the SpinLock's release/
          // acquire clock is what orders concurrent enqueuers, so an
          // unguarded push shows up as a queue-cell race.
          vcheck_.on_queue_access(static_cast<WorkerId>(w), static_cast<WorkerId>(w),
                                  /*is_write=*/true, CYCLOPS_VLOC);
          inqueue_[w].push_back(rec);
          inqueue_locks_[w].unlock();
          ++delivered;
        });
        ledger_.charge_receive(w, static_cast<double>(delivered) * per_deliver_us);
      });
    }

    // --- SYN: merge aggregators, decide termination. Its modeled time is the
    // exchange's barrier. ---
    verify::PhaseScope syn_scope(vcheck_, verify::Phase::kSync);
    double err_sum = 0;
    std::uint64_t err_count = 0;
    for (WorkerAgg& agg : worker_agg_) {
      err_sum += agg.sum;
      err_count += agg.count;
      agg = WorkerAgg{};
    }
    global_error_ = err_count > 0 ? err_sum / static_cast<double>(err_count)
                                  : std::numeric_limits<double>::infinity();
    bool any_pending = false;
    for (WorkerId w = 0; w < workers && !any_pending; ++w) {
      any_pending = !inqueue_[w].empty();
    }
    const bool any_active = active_.any();
    step.converged_vertices = halted_.count();
    return !any_pending && !any_active;
  }

  const graph::GraphStore* graph_;
  mutable std::vector<graph::AdjCursor> cursors_;  // one per worker task
  partition::EdgeCutPartition part_;
  Program program_;

  std::vector<Value> values_;
  std::vector<std::vector<Message>> mailbox_;
  DenseBitset active_;
  DenseBitset halted_;
  std::vector<std::vector<VertexId>> local_vertices_;
  std::vector<std::vector<StageBucket>> staged_;  // [from][to]
  std::vector<std::vector<WireRecord>> inqueue_;  // global in-queue per worker
  std::vector<SpinLock> inqueue_locks_;
  std::vector<WorkerAgg> worker_agg_;
  std::vector<std::uint64_t> redundant_acc_;
  std::vector<std::uint64_t> last_sent_hash_;
  std::vector<Message> last_payload_;
  DenseBitset has_last_payload_;

  double global_error_ = std::numeric_limits<double>::infinity();
};

}  // namespace cyclops::bsp
