// Fixture: concrete Csr references outside src/cyclops/graph/. The linter
// must flag the qualified and unqualified exact tokens (lines 7, 12, 13, 15)
// but not identifiers that merely contain "Csr", strings, comments, or a
// suppressed line.

namespace cyclops::graph {
class Csr;  // flagged: even a forward declaration couples to the backend
class GraphStore;
}  // namespace cyclops::graph

void fixture_csr_outside_graph() {
  using cyclops::graph::Csr;
  const Csr* g = nullptr;
  (void)g;
  const cyclops::graph::Csr* h = nullptr;
  (void)h;

  // Look-alikes the rule must NOT match:
  struct CompactCsr {};    // prefix-extended identifier
  struct CsrShim {};       // suffix-extended identifier
  (void)CompactCsr{};
  (void)CsrShim{};
  const char* s = "graph::Csr";  // string literal
  (void)s;
  // a comment naming Csr is fine

  // cyclops-analyze: allow(csr-outside-graph)
  const cyclops::graph::Csr* suppressed = nullptr;
  (void)suppressed;
}
