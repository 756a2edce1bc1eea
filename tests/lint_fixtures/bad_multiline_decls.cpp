// Fixture for multi-line declarations, a blind spot of line scanners: a
// declaration is a token run, not a line. cyclops-analyze must flag these;
// test_lint.cpp pins the findings.
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace core {
struct TopologyDelta {
  void apply(std::vector<std::uint64_t>&) {}
};
}  // namespace core

struct Sender {
  void send(std::uint32_t, std::uint64_t) {}
};

void fixture_multiline_unordered(Sender& sender) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::uint64_t>>
      ranks_by_owner;
  for (const auto& [owner, ranks] : ranks_by_owner) {  // line 22: flagged
    sender.send(0, ranks.front());
  }
}

void fixture_multiline_delta(std::vector<std::uint64_t>& edges) {
  core::TopologyDelta
      staged_delta;
  staged_delta.apply(edges);  // line 30: flagged (in-place apply)
}
