// Figure 12 — CyclopsMT configuration sweep for PageRank on the GWeb
// stand-in: MxWxT/R = machines x workers-per-machine x threads / receivers.
// Left group: plain Cyclops with more single-threaded workers per machine
// (6x1x1 .. 6x8x1). Middle: CyclopsMT with more compute threads (6x1x1 ..
// 6x1x8). Right: 6x1x8 with varying receiver counts (/1 ../8).

#include <cstdio>
#include <string>

#include "cyclops/graph/csr.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/common/table.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/partition/hash.hpp"
#include "harness.hpp"

namespace {

using namespace cyclops;

struct ConfigResult {
  std::string label;
  double syn_s, cmp_s, snd_s, total_s;
  std::uint64_t replicas, messages;
};

ConfigResult run_config(const graph::Csr& g, MachineId machines, WorkerId wpm,
                        unsigned threads, unsigned receivers) {
  algo::PageRankCyclops prog;
  prog.epsilon = 1e-9;
  core::Config cfg;
  cfg.topo = sim::Topology{machines, wpm};
  cfg.compute_threads = threads;
  cfg.receiver_threads = receivers;
  cfg.hierarchical_barrier = threads > 1;
  cfg.max_supersteps = 30;
  const WorkerId parts = cfg.topo.total_workers();
  core::Engine<algo::PageRankCyclops> engine(
      g, partition::HashPartitioner{}.partition(g, parts), prog, cfg);
  const auto stats = engine.run();
  const auto phases = stats.phase_totals();
  ConfigResult r;
  char label[48];
  std::snprintf(label, sizeof(label), "%ux%ux%u/%u", machines, wpm, threads, receivers);
  r.label = label;
  r.syn_s = stats.modeled_barrier_s();
  r.cmp_s = phases.cmp_s;
  r.snd_s = phases.snd_s + stats.modeled_wire_s();
  r.total_s = stats.total_time_s();
  r.replicas = engine.layout().total_replicas;
  r.messages = stats.net_totals().total_messages();
  return r;
}

}  // namespace

int main() {
  using namespace cyclops;
  const algo::Dataset gweb = algo::make_gweb();
  const graph::Csr g = graph::Csr::build(gweb.edges);
  std::printf("Dataset: %s\n", gweb.describe().c_str());

  Table t({"config MxWxT/R", "SYN(s)", "CMP(s)", "SND(s)", "total(s)", "replicas",
           "messages"});
  // Left group: scaling workers (plain Cyclops).
  for (WorkerId w : {1u, 2u, 4u, 8u}) {
    const auto r = run_config(g, 6, w, 1, 1);
    t.add_row({r.label, Table::fmt(r.syn_s, 3), Table::fmt(r.cmp_s, 3),
               Table::fmt(r.snd_s, 3), Table::fmt(r.total_s, 3),
               Table::fmt_int(static_cast<long long>(r.replicas)),
               Table::fmt_int(static_cast<long long>(r.messages))});
  }
  // Middle group: scaling compute threads (CyclopsMT).
  for (unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto r = run_config(g, 6, 1, threads, 1);
    t.add_row({r.label, Table::fmt(r.syn_s, 3), Table::fmt(r.cmp_s, 3),
               Table::fmt(r.snd_s, 3), Table::fmt(r.total_s, 3),
               Table::fmt_int(static_cast<long long>(r.replicas)),
               Table::fmt_int(static_cast<long long>(r.messages))});
  }
  // Right group: scaling receivers at 8 compute threads.
  for (unsigned receivers : {1u, 2u, 4u, 8u}) {
    const auto r = run_config(g, 6, 1, 8, receivers);
    t.add_row({r.label, Table::fmt(r.syn_s, 3), Table::fmt(r.cmp_s, 3),
               Table::fmt(r.snd_s, 3), Table::fmt(r.total_s, 3),
               Table::fmt_int(static_cast<long long>(r.replicas)),
               Table::fmt_int(static_cast<long long>(r.messages))});
  }
  std::fputs(
      t.render("Figure 12: CyclopsMT configuration sweep, PageRank on GWeb "
               "(paper: more workers inflate replicas/messages; threads cut CMP "
               "with stable SND; best config 6x1x8/2)")
          .c_str(),
      stdout);
  return 0;
}
