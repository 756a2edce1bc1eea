#pragma once
// PowerGraph-style synchronous GAS engine (§2.3): computation over a vertex
// cut is *distributed* across a vertex's copies, which costs the bidirectional
// master↔mirror message pattern the paper counts — per active mirror and
// iteration: gather request + gather partial (2), apply update (1), scatter
// request + activation reply (2). Contrast with Cyclops' single
// unidirectional sync message per replica.
//
// Program concept:
//   struct P {
//     using Value;   // replicated vertex data, POD
//     using Gather;  // gather accumulator, POD
//     Value init(VertexId v, std::size_t out_degree, std::size_t in_degree) const;
//     Gather gather_zero() const;
//     Gather gather(const Value& self, const Value& nbr, double w) const;  // in-edges
//     Gather merge(const Gather&, const Gather&) const;
//     Value apply(const Value& old, const Gather& acc) const;
//     bool scatter_activates(const Value& old, const Value& next) const;
//   };

#include <vector>

#include "cyclops/common/bitset.hpp"
#include "cyclops/common/check.hpp"
#include "cyclops/common/serialize.hpp"
#include "cyclops/gas/gas_layout.hpp"
#include "cyclops/metrics/memory_model.hpp"
#include "cyclops/metrics/superstep_stats.hpp"
#include "cyclops/runtime/engine_shell.hpp"
#include "cyclops/runtime/sync_channel.hpp"
#include "cyclops/sim/software_model.hpp"
#include "cyclops/verify/verify.hpp"

namespace cyclops::gas {

struct Config : runtime::EngineConfig {
  Superstep max_iterations = 100;

  [[nodiscard]] static Config workers(WorkerId w) {
    Config c;
    c.topo = sim::Topology{w, 1};
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
  using Gather = typename Program::Gather;
  static_assert(std::is_trivially_copyable_v<Value>);
  static_assert(std::is_trivially_copyable_v<Gather>);

  /// At every iteration boundary mirror values equal their master's
  /// (exchange 3 pushes applied values), so the lightweight snapshot saves
  /// masters only and restore regenerates mirrors.
  static constexpr runtime::CheckpointMode kCheckpointMode =
      runtime::CheckpointMode::kLightweight;
  static constexpr sim::CostModel kCost = sim::CostModel::boost_cpp();
  static constexpr sim::SoftwareModel kSoftware = sim::SoftwareModel::powergraph_cpp();
  /// The bidirectional master<->mirror traffic is the transient allocation.
  static constexpr bool kWireIsChurn = true;

  Engine(const graph::GraphStore& g, const partition::VertexCutPartition& part,
         Program program, Config config)
      : Shell(std::move(config), g.message_budget_bytes()),
        graph_(&g),
        program_(std::move(program)) {
    CYCLOPS_CHECK(part.num_parts() == config_.topo.total_workers());
    this->timed_ingress([&] {
      layout_ = build_gas_layout(g, part);
      init_state();
    });
  }

  /// Memory behaviour in Table 2 terms: every mirror copy is replicated
  /// vertex state; churn is the bidirectional master<->mirror traffic.
  [[nodiscard]] metrics::MemoryReport memory_report() const noexcept {
    metrics::MemoryReport r;
    for (const GasWorkerLayout& wl : layout_.workers) {
      r.vertex_state_bytes += wl.edges.size() * sizeof(LocalEdge);
      for (Copy c = 0; c < wl.num_copies(); ++c) {
        if (wl.is_master[c]) {
          r.vertex_state_bytes += sizeof(Value);
        } else {
          r.replica_bytes += sizeof(Value);
        }
      }
    }
    const graph::StoreMemory sm = graph_->memory();
    return this->with_store_and_messages(r, sm.resident_bytes, sm.on_disk_bytes);
  }

  /// Master values gathered into one globally-indexed vector.
  [[nodiscard]] std::vector<Value> values() const {
    std::vector<Value> out(graph_->num_vertices());
    for (VertexId v = 0; v < graph_->num_vertices(); ++v) {
      const MirrorRef m = layout_.master_ref[v];
      out[v] = values_[m.worker][m.copy];
    }
    return out;
  }

  [[nodiscard]] const GasLayout& layout() const noexcept { return layout_; }

  /// Rebuilds every mirror's value from its master (mirrors are derived
  /// state at iteration boundaries and are not checkpointed in lightweight
  /// mode). Idempotent after a heavyweight restore.
  void resync_mirrors() {
    for (WorkerId w = 0; w < layout_.workers.size(); ++w) {
      const GasWorkerLayout& wl = layout_.workers[w];
      for (Copy c = 0; c < wl.num_copies(); ++c) {
        if (wl.is_master[c]) continue;
        const MirrorRef m = wl.master_of[c];
        // Mirror slots are rewritten outside any superstep (kIdle), on the
        // driver thread; the stamp keeps the restore path inside both the
        // phase discipline and the happens-before model.
        vcheck_.on_replica_write(w, w, static_cast<std::uint32_t>(c), CYCLOPS_VLOC);
        values_[w][c] = values_[m.worker][m.copy];
        old_values_[w][c] = values_[w][c];
      }
    }
  }

 private:
  /// One machine's frame: the copies hosted on its workers — masters only in
  /// lightweight mode, every copy in heavyweight — plus master activity.
  void checkpoint_machine(MachineId m, ByteWriter& out,
                          runtime::CheckpointMode mode) const {
    runtime::write_engine_header(out, runtime::EngineTag::kGas, mode,
                                 graph_->num_vertices(), graph_->num_edges());
    out.write(this->superstep());
    const auto [begin, end] = this->machine_workers(m);
    for (WorkerId w = begin; w < end; ++w) {
      const GasWorkerLayout& wl = layout_.workers[w];
      if (mode == runtime::CheckpointMode::kHeavyweight) {
        out.write_vector(values_[w]);
      } else {
        std::vector<Value> masters;
        for (Copy c = 0; c < wl.num_copies(); ++c) {
          if (wl.is_master[c]) masters.push_back(values_[w][c]);
        }
        out.write_vector(masters);
      }
      std::vector<std::uint8_t> flags;
      for (Copy c = 0; c < wl.num_copies(); ++c) {
        if (wl.is_master[c]) {
          flags.push_back(next_active_masters_[w].test(c) ? 1 : 0);
        }
      }
      out.write_vector(flags);
    }
  }

  void restore_machine(MachineId m, ByteReader& in) {
    const runtime::CheckpointMode mode = runtime::read_engine_header(
        in, runtime::EngineTag::kGas, graph_->num_vertices(), graph_->num_edges());
    this->set_superstep(in.read<Superstep>());
    const auto [begin, end] = this->machine_workers(m);
    for (WorkerId w = begin; w < end; ++w) {
      const GasWorkerLayout& wl = layout_.workers[w];
      std::size_t num_masters = 0;
      for (Copy c = 0; c < wl.num_copies(); ++c) num_masters += wl.is_master[c] ? 1 : 0;
      const auto vals = in.read_vector<Value>();
      const std::size_t expect =
          mode == runtime::CheckpointMode::kHeavyweight ? wl.num_copies() : num_masters;
      if (vals.size() != expect) {
        throw SerializeError("gas snapshot: value count mismatch");
      }
      if (mode == runtime::CheckpointMode::kHeavyweight) {
        values_[w] = vals;
      } else {
        std::size_t i = 0;
        for (Copy c = 0; c < wl.num_copies(); ++c) {
          if (wl.is_master[c]) values_[w][c] = vals[i++];
        }
      }
      const auto flags = in.read_vector<std::uint8_t>();
      if (flags.size() != num_masters) {
        throw SerializeError("gas snapshot: activity flag count mismatch");
      }
      next_active_masters_[w].clear_all();
      std::size_t i = 0;
      for (Copy c = 0; c < wl.num_copies(); ++c) {
        if (!wl.is_master[c]) continue;
        if (flags[i++] & 1) next_active_masters_[w].set(c);
      }
      active_copies_[w].clear_all();
      activated_copies_[w].clear_all();
    }
  }

  void after_restore() { resync_mirrors(); }

  struct ReqRecord {
    Copy copy;
  };
  struct AccRecord {
    Copy copy;
    Gather acc;
  };
  struct ValRecord {
    Copy copy;
    Value value;
  };
  using ReqChannel = runtime::SyncChannel<ReqRecord>;
  using AccChannel = runtime::SyncChannel<AccRecord>;
  using ValChannel = runtime::SyncChannel<ValRecord>;

  void init_state() {
    const WorkerId workers = config_.topo.total_workers();
    values_.resize(workers);
    partial_.resize(workers);
    active_copies_.resize(workers);
    activated_copies_.resize(workers);
    next_active_masters_.resize(workers);
    old_values_.resize(workers);
    for (WorkerId w = 0; w < workers; ++w) {
      const GasWorkerLayout& wl = layout_.workers[w];
      values_[w].resize(wl.num_copies());
      old_values_[w].resize(wl.num_copies());
      partial_[w].resize(wl.num_copies());
      active_copies_[w].resize(wl.num_copies());
      activated_copies_[w].resize(wl.num_copies());
      next_active_masters_[w].resize(wl.num_copies());
      for (Copy c = 0; c < wl.num_copies(); ++c) {
        const VertexId v = wl.copy_globals[c];
        values_[w][c] = program_.init(v, graph_->out_degree(v), graph_->in_degree(v));
        if (wl.is_master[c]) next_active_masters_[w].set(c);  // all start active
      }
    }
    if constexpr (verify::kEnabled) {
      // Slot space per worker = its vertex copies; a mirror's owner is the
      // worker hosting the master copy.
      vcheck_.reset();
      for (WorkerId w = 0; w < workers; ++w) {
        const GasWorkerLayout& wl = layout_.workers[w];
        std::vector<VertexId> slot_global(wl.num_copies());
        std::vector<WorkerId> slot_owner(wl.num_copies());
        std::uint32_t masters = 0;
        for (Copy c = 0; c < wl.num_copies(); ++c) {
          slot_global[c] = wl.copy_globals[c];
          if (wl.is_master[c]) {
            slot_owner[c] = w;
            ++masters;
          } else {
            slot_owner[c] = wl.master_of[c].worker;
          }
        }
        vcheck_.register_worker(w, masters, std::move(slot_global),
                                std::move(slot_owner));
      }
    }
  }

  /// One GAS iteration: four master<->mirror exchanges.
  bool run_superstep(metrics::SuperstepStats& step) {
    const WorkerId workers = config_.topo.total_workers();
    const sim::SoftwareModel& sw = kSoftware;
    // Each worker is one ledger executor, charged per operation as it runs.
    // Delivery work is charged as send work: a GAS worker's four exchanges
    // run back to back, so SND is its combined messaging time.

    // Promote next_active_masters -> active copies of masters.
    std::uint64_t active = 0;
    for (WorkerId w = 0; w < workers; ++w) {
      active_copies_[w].clear_all();
      activated_copies_[w].clear_all();
      next_active_masters_[w].for_each([&](std::size_t c) {
        active_copies_[w].set(c);
        ++active;
      });
      next_active_masters_[w].clear_all();
    }
    step.active_vertices = active;
    step.computed_vertices = active;
    if (active == 0) return true;

    // --- Exchange 1: gather requests master -> mirrors. ---
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kSend);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        const GasWorkerLayout& wl = layout_.workers[w];
        auto req = ReqChannel::sender(fabric_, static_cast<WorkerId>(w), 0, &vcheck_,
                                      CYCLOPS_VLOC);
        active_copies_[w].for_each([&](std::size_t c) {
          if (!wl.is_master[c]) return;
          for (std::size_t m = wl.mirror_offsets[c]; m < wl.mirror_offsets[c + 1]; ++m) {
            req.send(wl.mirrors[m].worker, ReqRecord{wl.mirrors[m].copy});
            ledger_.charge_send(w, sw.msg_serialize_us);
          }
        });
      });
    }
    this->exchange(step, workers);
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kExchange);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        ReqChannel::drain(fabric_, static_cast<WorkerId>(w), [&](const ReqRecord& rec) {
          active_copies_[w].set(rec.copy);
          ledger_.charge_send(w, sw.msg_deliver_us);
        });
      });
    }

    // --- Local gather over in-edges, then exchange 2: partials -> master. ---
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kCompute);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        const GasWorkerLayout& wl = layout_.workers[w];
        active_copies_[w].for_each([&](std::size_t c) {
          Gather acc = program_.gather_zero();
          vcheck_.on_view_read(static_cast<WorkerId>(w), static_cast<WorkerId>(w),
                               static_cast<std::uint32_t>(c), CYCLOPS_VLOC);
          for (std::size_t e = wl.in_offsets[c]; e < wl.in_offsets[c + 1]; ++e) {
            const LocalEdge& edge = wl.edges[wl.in_edge_ids[e]];
            vcheck_.on_view_read(static_cast<WorkerId>(w), static_cast<WorkerId>(w),
                                 edge.src, CYCLOPS_VLOC);
            acc = program_.merge(
                acc, program_.gather(values_[w][c], values_[w][edge.src], edge.weight));
          }
          partial_[w][c] = acc;
          ledger_.charge_compute(w, static_cast<double>(wl.in_offsets[c + 1] - wl.in_offsets[c]) *
                                        sw.edge_op_us * sim::edge_op_weight<Program>());
        });
      });
    }
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kSend);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        const GasWorkerLayout& wl = layout_.workers[w];
        auto acc = AccChannel::sender(fabric_, static_cast<WorkerId>(w), 0, &vcheck_,
                                      CYCLOPS_VLOC);
        active_copies_[w].for_each([&](std::size_t c) {
          if (wl.is_master[c]) return;
          const MirrorRef master = wl.master_of[c];
          acc.send(master.worker, AccRecord{master.copy, partial_[w][c]});
          ledger_.charge_send(w, sw.msg_serialize_us);
        });
      });
    }
    this->exchange(step, workers);
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kExchange);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        AccChannel::drain(fabric_, static_cast<WorkerId>(w), [&](const AccRecord& rec) {
          partial_[w][rec.copy] = program_.merge(partial_[w][rec.copy], rec.acc);
          ledger_.charge_send(w, sw.msg_deliver_us);
        });
      });
    }

    // --- Apply on masters; exchange 3: new value + scatter request to
    // mirrors (two messages, matching the paper's 1 apply + 1 scatter-side
    // request). ---
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kSend);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        const GasWorkerLayout& wl = layout_.workers[w];
        active_copies_[w].for_each([&](std::size_t c) {
          if (!wl.is_master[c]) return;
          old_values_[w][c] = values_[w][c];
          vcheck_.on_master_write(static_cast<WorkerId>(w), static_cast<WorkerId>(w),
                                  static_cast<std::uint32_t>(c), CYCLOPS_VLOC);
          values_[w][c] = program_.apply(values_[w][c], partial_[w][c]);
          ledger_.charge_compute(w, sw.vertex_op_us * sim::vertex_op_weight<Program>());
        });
      });
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        const GasWorkerLayout& wl = layout_.workers[w];
        // Two record types interleave on the same lane (value then request per
        // mirror), matching the seed's wire layout byte-for-byte.
        auto val = ValChannel::sender(fabric_, static_cast<WorkerId>(w), 0, &vcheck_,
                                      CYCLOPS_VLOC);
        auto req = ReqChannel::sender(fabric_, static_cast<WorkerId>(w), 0, &vcheck_,
                                      CYCLOPS_VLOC);
        active_copies_[w].for_each([&](std::size_t c) {
          if (!wl.is_master[c]) return;
          for (std::size_t m = wl.mirror_offsets[c]; m < wl.mirror_offsets[c + 1]; ++m) {
            val.send(wl.mirrors[m].worker, ValRecord{wl.mirrors[m].copy, values_[w][c]});
            req.send(wl.mirrors[m].worker, ReqRecord{wl.mirrors[m].copy});
            ledger_.charge_send(w, 2.0 * sw.msg_serialize_us);
          }
        });
      });
    }
    this->exchange(step, workers);
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kExchange);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        for (const sim::Package& pkg : fabric_.incoming(static_cast<WorkerId>(w))) {
          runtime::PackageReader reader(pkg);
          while (!reader.exhausted()) {
            const auto rec = reader.read<ValRecord>();
            old_values_[w][rec.copy] = values_[w][rec.copy];
            vcheck_.on_replica_write(static_cast<WorkerId>(w), static_cast<WorkerId>(w),
                                     rec.copy, CYCLOPS_VLOC);
            values_[w][rec.copy] = rec.value;
            (void)reader.read<ReqRecord>();  // scatter request
            ledger_.charge_send(w, 2.0 * sw.msg_deliver_us);
          }
        }
        fabric_.clear_incoming(static_cast<WorkerId>(w));
      });
    }

    // --- Scatter on every copy; exchange 4: activation replies to masters.
    // Scatter reads are deliberately uninstrumented: scatter compares old and
    // new values that apply/exchange-3 updated earlier this same iteration —
    // legal in GAS, but indistinguishable from a stale-view read to the
    // checker's single-superstep stamp model. ---
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kCompute);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        const GasWorkerLayout& wl = layout_.workers[w];
        active_copies_[w].for_each([&](std::size_t c) {
          ledger_.charge_compute(w, sw.vertex_op_us);  // scatter predicate evaluation
          if (!program_.scatter_activates(old_values_[w][c], values_[w][c])) return;
          for (std::size_t e = wl.out_offsets[c]; e < wl.out_offsets[c + 1]; ++e) {
            activated_copies_[w].set(wl.edges[wl.out_edge_ids[e]].dst);
            ledger_.charge_compute(w, sw.edge_op_us);
          }
        });
      });
    }
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kSend);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        const GasWorkerLayout& wl = layout_.workers[w];
        auto req = ReqChannel::sender(fabric_, static_cast<WorkerId>(w), 0, &vcheck_,
                                      CYCLOPS_VLOC);
        activated_copies_[w].for_each([&](std::size_t c) {
          if (wl.is_master[c]) {
            next_active_masters_[w].set(c);
          } else {
            const MirrorRef master = wl.master_of[c];
            req.send(master.worker, ReqRecord{master.copy});
            ledger_.charge_send(w, sw.msg_serialize_us);
          }
        });
      });
    }
    this->exchange(step, workers);
    {
      verify::PhaseScope vps(vcheck_, verify::Phase::kExchange);
      pool_.parallel_tasks(workers, [&](std::size_t w) {
        ReqChannel::drain(fabric_, static_cast<WorkerId>(w), [&](const ReqRecord& rec) {
          next_active_masters_[w].set(rec.copy);
          ledger_.charge_send(w, sw.msg_deliver_us);
        });
      });
    }

    bool any_next = false;
    for (WorkerId w = 0; w < workers && !any_next; ++w) {
      any_next = next_active_masters_[w].any();
    }
    return !any_next;
  }

  const graph::GraphStore* graph_;
  Program program_;
  GasLayout layout_;

  std::vector<std::vector<Value>> values_;      // [worker][copy]
  std::vector<std::vector<Value>> old_values_;  // previous value per copy
  std::vector<std::vector<Gather>> partial_;
  std::vector<DenseBitset> active_copies_;
  std::vector<DenseBitset> activated_copies_;
  std::vector<DenseBitset> next_active_masters_;

};

}  // namespace cyclops::gas
