// Fixture: direct fabric outbox() access outside runtime/ and sim/. An
// engine grabbing a raw OutBox bypasses SyncChannel, so the package never
// reaches the message log and log-based recovery cannot replay it.
// Expected findings (see tests/test_lint.cpp):
//   line 12: outbox-outside-runtime  (member call via '.')
//   line 13: outbox-outside-runtime  (member call via '->')
// Line 20 is suppressed; lines 23/25 (declaration, string literal) never flag.

namespace demo {

void leak(Fabric& fabric, Fabric* pf) {
  auto& box = fabric.outbox(0);
  pf->outbox(1).send(2, msg);
  box.send(3, msg);
}

void allowed(Fabric& fabric) {
  // Suppressed: a test harness may poke the fabric directly.
  // cyclops-analyze: allow(outbox-outside-runtime)
  fabric.outbox(0).send(1, msg);
  // Declaring a method named outbox (no '.' or '->') is not a direct grab:
  OutBox& outbox(WorkerId from);
  // Strings and comments never flag: "fabric.outbox(0)" / fabric.outbox(0)
  const char* doc = "call fabric.outbox(0) to grab the box";
}

}  // namespace demo
