// Fixture for the `wire-narrowing` rule: an 8/16-bit narrowing cast on the
// same line as a wire call is flagged unless suppressed. Expected findings
// are asserted in tests/test_lint.cpp — keep line numbers stable.
#include <cstdint>

struct Out {
  void write(std::uint8_t) {}
  void write(std::uint32_t) {}
  void write(std::uint64_t) {}
};

void fixture_narrowing(Out& out, std::uint64_t big, int tag) {
  out.write(static_cast<std::uint8_t>(tag));    // line 13: narrowed onto wire
  out.write(static_cast<std::uint16_t>(big));   // line 14: narrowed onto wire
  out.write(static_cast<std::uint8_t>(tag));    // cyclops-analyze: allow(wire-narrowing)
  // Not flagged: the cast and the wire call live on separate lines.
  const auto flags = static_cast<std::uint8_t>(tag);
  out.write(static_cast<std::uint64_t>(flags));
  out.write(big);
}
