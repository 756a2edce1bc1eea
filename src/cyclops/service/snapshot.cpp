#include "cyclops/service/snapshot.hpp"

#include <cstring>
#include <span>
#include <utility>
#include <vector>

#include "cyclops/common/check.hpp"
#include "cyclops/common/crc32.hpp"
#include "cyclops/common/rng.hpp"
#include "cyclops/common/timer.hpp"

namespace cyclops::service {

namespace {

partition::EdgeCutPartition make_edge_cut(const graph::GraphStore& g,
                                          const SnapshotConfig& cfg, WorkerId parts) {
  const auto partitioner = partition::make_edge_cut_partitioner(cfg.partitioner);
  CYCLOPS_CHECK(partitioner != nullptr);
  return partitioner->partition(g, parts);
}

/// Overlay epochs carry the base epoch's owner vector forward and assign new
/// vertices by the hash rule. Ownership stability across epochs is what lets
/// incremental re-convergence carry engine state by global id without a
/// relocation shuffle (and for the default hash partitioner it is exactly
/// what a from-scratch partition of the mutated graph would produce).
partition::EdgeCutPartition extend_cut(const partition::EdgeCutPartition& prior, VertexId n) {
  std::vector<WorkerId> owner = prior.owners();
  const WorkerId parts = prior.num_parts();
  owner.reserve(n);
  for (VertexId v = prior.num_vertices(); v < n; ++v) {
    owner.push_back(static_cast<WorkerId>(mix64(v) % parts));
  }
  return partition::EdgeCutPartition(std::move(owner), parts);
}

std::uint32_t edge_crc(const graph::EdgeList& edges) {
  const auto& list = edges.edges();
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(list.data());
  return crc32(std::span<const std::uint8_t>(bytes, list.size() * sizeof(graph::Edge)));
}

/// Overlay immutability witness: base checksum chained with the canonical
/// delta bytes — unique per epoch without materializing the edge list.
std::uint32_t chained_crc(std::uint32_t base_crc, const core::TopologyDelta::Canonical& c) {
  std::vector<std::uint8_t> buf(sizeof(base_crc) +
                                (c.adds.size() + c.removes.size()) * sizeof(graph::Edge));
  std::uint8_t* p = buf.data();
  std::memcpy(p, &base_crc, sizeof(base_crc));
  p += sizeof(base_crc);
  // An empty side's data() may be null, which memcpy forbids even for a
  // zero-length copy; skipping it writes the same bytes.
  if (!c.adds.empty()) std::memcpy(p, c.adds.data(), c.adds.size() * sizeof(graph::Edge));
  p += c.adds.size() * sizeof(graph::Edge);
  if (!c.removes.empty()) std::memcpy(p, c.removes.data(), c.removes.size() * sizeof(graph::Edge));
  return crc32(std::span<const std::uint8_t>(buf.data(), buf.size()));
}

}  // namespace

Snapshot::Snapshot(Epoch epoch, graph::EdgeList edges, const SnapshotConfig& cfg)
    : epoch_(epoch), cfg_(cfg), edges_(std::move(edges)) {
  Timer timer;
  store_ = graph::make_store(edges_, cfg_.store_options());
  edge_cut_ = make_edge_cut(*store_, cfg_, cfg_.edge_cut_parts());
  mt_edge_cut_ = make_edge_cut(*store_, cfg_, cfg_.machines);
  vertex_cut_ = partition::RandomVertexCut{}.partition(*store_, cfg_.machines);
  build_s_ = timer.elapsed_s();
  checksum_ = edge_crc(edges_);
  verify::EpochRegistry::instance().publish(epoch_);
}

Snapshot::Snapshot(Epoch epoch, SnapshotRef base, const core::TopologyDelta::Canonical& delta,
                   const SnapshotConfig& cfg)
    : epoch_(epoch), cfg_(cfg), base_(std::move(base)) {
  CYCLOPS_CHECK(base_ != nullptr);
  Timer timer;
  store_ = std::make_unique<const graph::DeltaOverlay>(base_->store(), delta.adds,
                                                       delta.removes);
  const VertexId n = store_->num_vertices();
  edge_cut_ = extend_cut(base_->edge_cut(), n);
  mt_edge_cut_ = extend_cut(base_->mt_edge_cut(), n);
  // vertex_cut_ and edges_ stay empty: lazily materialized on first use so
  // publication cost is O(touched adjacency), not O(|E|).
  build_s_ = timer.elapsed_s();
  checksum_ = chained_crc(base_->edge_checksum(), delta);
  verify::EpochRegistry::instance().publish(epoch_);
}

Snapshot::~Snapshot() {
  verify::EpochRegistry::instance().retire(epoch_, CYCLOPS_VLOC);
}

const partition::EdgeCutPartition& Snapshot::edge_cut_for(WorkerId parts) const {
  if (edge_cut_.num_parts() == parts) return edge_cut();
  CYCLOPS_CHECK(mt_edge_cut_.num_parts() == parts);
  return mt_edge_cut();
}

const graph::EdgeList& Snapshot::edges() const {
  verify::EpochRegistry::instance().on_read(epoch_, CYCLOPS_VLOC);
  if (!base_) return edges_;
  LockGuard<Mutex> lock(lazy_mutex_);
  if (!lazy_edges_) {
    const auto* ov = dynamic_cast<const graph::DeltaOverlay*>(store_.get());
    CYCLOPS_CHECK(ov != nullptr);
    lazy_edges_ = std::make_unique<const graph::EdgeList>(ov->materialize());
  }
  return *lazy_edges_;
}

const partition::VertexCutPartition& Snapshot::vertex_cut() const {
  verify::EpochRegistry::instance().on_read(epoch_, CYCLOPS_VLOC);
  if (!base_) return vertex_cut_;
  LockGuard<Mutex> lock(lazy_mutex_);
  if (!lazy_vertex_cut_) {
    lazy_vertex_cut_ = std::make_unique<const partition::VertexCutPartition>(
        partition::RandomVertexCut{}.partition(*store_, cfg_.machines));
  }
  return *lazy_vertex_cut_;
}

const graph::DeltaOverlay* Snapshot::overlay() const noexcept {
  return dynamic_cast<const graph::DeltaOverlay*>(store_.get());
}

SnapshotStore::SnapshotStore(graph::EdgeList base, SnapshotConfig cfg)
    : cfg_(std::move(cfg)),
      retired_(std::make_shared<std::atomic<std::uint64_t>>(0)) {
  current_ = publish(0, std::move(base));
}

SnapshotRef SnapshotStore::current() const {
  LockGuard<Mutex> lock(mutex_);
  return current_;
}

Epoch SnapshotStore::current_epoch() const {
  LockGuard<Mutex> lock(mutex_);
  return current_->epoch();
}

Epoch SnapshotStore::apply(const core::TopologyDelta& delta) {
  // Build outside the lock: neither path touches the live epoch's storage
  // mutably, and concurrent pinners must not wait on the build. apply()
  // itself is serialized by the service (one mutation stream), so
  // read-then-publish is race-free for the single writer.
  SnapshotRef base;
  {
    LockGuard<Mutex> lock(mutex_);
    base = current_;
  }
  SnapshotRef snap;
  bool compacted = false;
  if (cfg_.overlay_publish) {
    const core::TopologyDelta::Canonical canon = delta.canonical();
    if (should_compact(*base, canon)) {
      graph::EdgeList next = delta.applied(base->edges());
      snap = publish(base->epoch() + 1, std::move(next));
      compacted = true;
    } else {
      snap = publish_overlay(base->epoch() + 1, base, canon);
    }
  } else {
    graph::EdgeList next = delta.applied(base->edges());
    snap = publish(base->epoch() + 1, std::move(next));
  }
  LockGuard<Mutex> lock(mutex_);
  if (compacted) ++stats_.compactions;
  current_ = std::move(snap);
  return current_->epoch();
}

bool SnapshotStore::should_compact(const Snapshot& base,
                                   const core::TopologyDelta::Canonical& delta) const {
  const graph::DeltaOverlay* ov = base.overlay();
  if (!ov) return false;  // first patch over a flat base is always worth sharing
  if (ov->depth() + 1 > cfg_.max_overlay_depth) return true;
  // Patch entries accumulated down the chain plus (an estimate of) the new
  // delta's, against the flat edge count the chain resolves to.
  std::size_t entries = 2 * (delta.adds.size() + delta.removes.size());
  const graph::GraphStore* s = ov;
  while (const auto* layer = dynamic_cast<const graph::DeltaOverlay*>(s)) {
    entries += layer->overlay_entries();
    s = &layer->base();
  }
  return static_cast<double>(entries) >
         cfg_.compact_overlay_fraction * static_cast<double>(base.store().num_edges());
}

std::uint64_t SnapshotStore::live_snapshots() const {
  LockGuard<Mutex> lock(mutex_);
  return stats_.epochs_published - retired_->load(std::memory_order_relaxed);
}

SnapshotStoreStats SnapshotStore::stats() const {
  LockGuard<Mutex> lock(mutex_);
  SnapshotStoreStats s = stats_;
  s.epochs_retired = retired_->load(std::memory_order_relaxed);
  return s;
}

SnapshotRef SnapshotStore::publish(Epoch epoch, graph::EdgeList edges) {
  return wrap(new Snapshot(epoch, std::move(edges), cfg_));
}

SnapshotRef SnapshotStore::publish_overlay(Epoch epoch, SnapshotRef base,
                                           const core::TopologyDelta::Canonical& delta) {
  SnapshotRef snap = wrap(new Snapshot(epoch, std::move(base), delta, cfg_));
  LockGuard<Mutex> lock(mutex_);
  ++stats_.overlay_epochs;
  return snap;
}

SnapshotRef SnapshotStore::wrap(Snapshot* snap) {
  auto retired = retired_;
  SnapshotRef ref(snap, [retired](const Snapshot* s) {
    retired->fetch_add(1, std::memory_order_relaxed);
    delete s;
  });
  LockGuard<Mutex> lock(mutex_);
  ++stats_.epochs_published;
  stats_.last_build_s = ref->build_s();
  stats_.total_build_s += ref->build_s();
  return ref;
}

}  // namespace cyclops::service
