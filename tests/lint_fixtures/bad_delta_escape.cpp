// Fixture: TopologyDelta::apply() — the in-place edge-list mutator — called
// outside core/ and ingest/. Direct mutation bypasses batched epoch
// publication: staged ops must become visible only when SnapshotStore
// publishes the epoch.
// Expected findings (see tests/test_lint.cpp):
//   line 13: delta-outside-ingest  (member call via '.')
//   line 14: delta-outside-ingest  (member call via '->')
// Lines 19/21/23 (applied() copy, other receivers) and 28 (suppressed) never flag.

namespace demo {

void leak(core::TopologyDelta& delta, core::TopologyDelta* pd, EdgeList& edges) {
  delta.apply(edges);
  pd->apply(edges);
}

void allowed(core::TopologyDelta& delta, SnapshotStore& store, EdgeList& edges) {
  // The const-preserving copy is the sanctioned path outside ingest:
  EdgeList next = delta.applied(edges);
  // SnapshotStore::apply is epoch publication, not edge-list mutation:
  store.apply(delta);
  // A method merely *named* apply on a non-delta receiver stays silent:
  program.apply(a, b);
}

void harness(core::TopologyDelta& delta, EdgeList& edges) {
  // cyclops-analyze: allow(delta-outside-ingest)
  delta.apply(edges);
}

}  // namespace demo
