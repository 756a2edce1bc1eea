// cyclops-cli — command-line driver for the whole stack: pick an algorithm,
// an engine, a partitioner, a dataset (file or generator), a cluster shape,
// and get the run summary (and optionally per-superstep CSV) on stdout.
//
//   cyclops-cli --algo pr --engine cyclops --graph gen:gweb --workers 48
//   cyclops-cli --algo sssp --engine hama --graph road.txt --workers 8
//   cyclops-cli --algo pr --engine mt --threads 8 --receivers 2
//               --partitioner multilevel --csv series.csv
//   cyclops-cli --serve workload.txt --graph gen:gweb --serve-workers 4
//
// Run with --help for the full flag list.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "cyclops/algorithms/catalog.hpp"
#include "cyclops/common/args.hpp"
#include "cyclops/common/sync.hpp"
#include "cyclops/algorithms/cc.hpp"
#include "cyclops/algorithms/datasets.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/graph/gstats.hpp"
#include "cyclops/graph/loader.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/ingest/incremental.hpp"
#include "cyclops/ingest/ingestor.hpp"
#include "cyclops/metrics/reporter.hpp"
#include "cyclops/partition/partition.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "cyclops/runtime/recovery.hpp"
#include "cyclops/service/service.hpp"
#include "cyclops/sim/fault.hpp"
#include "cyclops/sim/sched.hpp"
#include "cyclops/verify/race.hpp"

namespace {

using namespace cyclops;
using algo::Algo;
using algo::EngineKind;

/// The algorithms ingest mode can keep incrementally converged.
constexpr std::array kIncrementalAlgos = {Algo::kPageRank, Algo::kSssp, Algo::kCc};

struct Options {
  Algo algo = Algo::kPageRank;
  EngineKind engine = EngineKind::kCyclops;
  std::string graph = "gen:gweb";   // file path or gen:<name>
  std::string partitioner = "hash"; // hash | ldg | multilevel
  WorkerId workers = 8;
  MachineId machines = 4;
  unsigned threads = 4;
  unsigned receivers = 2;
  double epsilon = 1e-9;
  Superstep max_supersteps = 100;
  VertexId source = 0;       // sssp
  VertexId num_users = 0;    // als (0 = infer for generated datasets)
  unsigned rounds = 10;      // als
  double scale = 1.0;        // generator scale factor
  args::StoreArgs store;     // --store / --mem-cap / --spill-dir
  std::string csv;           // per-superstep series output path
  bool stats_only = false;   // print graph stats and exit
  bool verify_report = false;  // print the invariant checker's summary line
  unsigned race_seeds = 0;   // --race[=N]: happens-before sweep over N schedules

  // Multi-tenant serve mode: replay a scripted workload file against the
  // epoch-versioned service instead of running a single job.
  std::string serve;               // workload script path ("" = classic mode)
  std::size_t serve_workers = 4;   // concurrent job slots
  std::size_t serve_queue = 64;    // bounded admission queue
  std::size_t tenant_limit = 2;    // max running jobs per tenant
  double realize_modeled = 0.0;    // modeled-comm -> wall-clock sleep factor

  // Streaming ingestion mode: replay a mutation trace through the batching
  // ingestor while incremental engines re-converge per published epoch,
  // optionally under concurrent scripted query load (--serve).
  std::string ingest;                      // trace path or synth:<ops>
  std::size_t ingest_batch = 64;           // batching bound: staged-op count
  double ingest_delay_s = 0.05;            // batching bound: oldest-op wall time
  std::vector<Algo> ingest_algos;          // incremental engines to keep warm
  unsigned ingest_hops = 2;                // delta-PR re-activation radius
  std::uint64_t ingest_seed = 1;           // synth:<ops> trace seed
  bool overlay = false;                    // structural-sharing publication
  double compact_threshold = 0.25;         // overlay-entries/|E| compaction bound

  // Fault tolerance: any armed flag routes the run through the automated
  // checkpoint/recovery runtime (runtime::run_with_recovery).
  Superstep checkpoint_every = 0;       // 0 = no periodic checkpoints
  std::string checkpoint_mode;          // light | heavy ("" = engine default)
  Superstep fail_at = sim::kNeverCrash; // crash a machine at this superstep
  MachineId fail_machine = 0;
  double drop_rate = 0.0;
  double corrupt_rate = 0.0;
  std::uint64_t fault_seed = 0;
  args::RecoveryArgs rec;               // --recovery / --log-store / --detection-timeout-us

  [[nodiscard]] sim::FaultPlan fault_plan() const {
    sim::FaultPlan plan;
    plan.seed = fault_seed;
    plan.crash_at = fail_at;
    plan.crash_machine = fail_machine;
    plan.drop_rate = drop_rate;
    plan.corrupt_rate = corrupt_rate;
    plan.detection_timeout_us = rec.detection_timeout_us;
    return plan;
  }
  [[nodiscard]] bool fault_tolerant() const {
    return checkpoint_every > 0 || fault_plan().any_armed();
  }
  [[nodiscard]] runtime::RecoveryMode recovery_mode() const {
    runtime::RecoveryMode m = runtime::RecoveryMode::kRollback;
    (void)runtime::parse_recovery_mode(rec.recovery, m);  // validated at parse
    return m;
  }
  [[nodiscard]] sim::LogStoreKind log_store_kind() const {
    return rec.log_store == "spill" ? sim::LogStoreKind::kSpill
                                    : sim::LogStoreKind::kMemory;
  }
  [[nodiscard]] runtime::CheckpointMode mode_or(runtime::CheckpointMode dflt) const {
    if (checkpoint_mode == "light") return runtime::CheckpointMode::kLightweight;
    if (checkpoint_mode == "heavy") return runtime::CheckpointMode::kHeavyweight;
    return dflt;
  }
  [[nodiscard]] algo::JobParams params() const {
    return {.epsilon = epsilon, .source = source, .num_users = num_users, .rounds = rounds};
  }
  [[nodiscard]] algo::ClusterShape shape() const {
    return {.machines = machines,
            .workers_per_machine = workers / machines,
            .mt_threads = threads,
            .mt_receivers = receivers,
            .max_supersteps = max_supersteps};
  }
};

[[noreturn]] void usage(int code) {
  std::puts(
      "cyclops-cli — run a graph algorithm on one of the reproduced engines\n"
      "\n"
      "  --algo pr|sssp|cd|cc|als    algorithm (default pr)\n"
      "  --engine hama|cyclops|mt|gas  engine (default cyclops; gas = pr/sssp only)\n"
      "  --graph PATH|gen:NAME       edge-list file, or generator: amazon, gweb,\n"
      "                              ljournal, wiki, syn-gl, dblp, roadca (default gen:gweb)\n"
      "  --partitioner hash|ldg|multilevel   edge-cut partitioner (default hash)\n"
      "  --workers N --machines M    cluster shape (default 8 workers / 4 machines)\n"
      "  --threads T --receivers R   CyclopsMT thread configuration\n"
      "  --epsilon E                 convergence epsilon (default 1e-9)\n"
      "  --max-supersteps N          superstep cap (default 100)\n"
      "  --source V                  SSSP source vertex (default 0)\n"
      "  --users N --rounds K        ALS bipartite split / training rounds\n"
      "  --scale F                   generator scale factor (default 1.0)\n"
      "  --store memory|compact|stream  graph store backend (default memory):\n"
      "                              compact = varint/delta compressed CSR,\n"
      "                              stream = out-of-core shards under --mem-cap\n"
      "  --mem-cap MB                stream-store resident budget (default 64)\n"
      "  --spill-dir PATH            stream-store scratch dir (default /tmp)\n"
      "  --csv PATH                  write per-superstep series as CSV\n"
      "  --stats                     print graph statistics and exit\n"
      "  --verify                    print the immutable-view invariant checker\n"
      "                              summary (needs -DCYCLOPS_VERIFY=ON build)\n"
      "  --race[=N]                  sweep N schedule-explorer seeds (default 8)\n"
      "                              through the happens-before race analyzer;\n"
      "                              one fresh engine per seed, prints a [race]\n"
      "                              line per seed and any race reports, exits\n"
      "                              nonzero on races or wire-digest divergence\n"
      "                              (detection needs -DCYCLOPS_VERIFY=ON)\n"
      "\n"
      "serve mode (multi-tenant service replaying a scripted workload):\n"
      "  --serve FILE                workload script; lines are\n"
      "                                job <tenant> <prio> <algo> <engine>\n"
      "                                add <u> <v> [w] | remove <u> <v>\n"
      "                                commit | wait | # comment\n"
      "  --serve-workers N           concurrent job slots (default 4)\n"
      "  --serve-queue N             admission queue bound (default 64)\n"
      "  --tenant-limit N            max running jobs per tenant (default 2)\n"
      "  --realize F                 sleep F x modeled comm time per job, so\n"
      "                              cross-tenant wire-wait overlaps (default 0)\n"
      "\n"
      "ingest mode (streaming mutation epochs with incremental recompute):\n"
      "  --ingest FILE|synth:N       mutation trace ('<at_s> add|remove <u> <v>'\n"
      "                              lines) or a deterministic synthetic trace of\n"
      "                              N ops over the base graph's vertices\n"
      "  --ingest-batch N            publish after N staged ops (default 64)\n"
      "  --ingest-delay S            publish when the oldest staged op has waited\n"
      "                              S seconds (default 0.05)\n"
      "  --ingest-algos LIST         comma list of pr,sssp,cc kept incrementally\n"
      "                              converged across epochs (default all three;\n"
      "                              --engine cyclops|mt only)\n"
      "  --ingest-hops K             delta-PR re-activation radius (default 2)\n"
      "  --ingest-seed S             synth:N trace seed (default 1)\n"
      "  --overlay                   publish epochs as structural-sharing\n"
      "                              DeltaOverlay patches instead of flat copies\n"
      "  --compact-threshold F       flatten the overlay chain once patch entries\n"
      "                              exceed F x base |E| (default 0.25)\n"
      "                              with --serve FILE, the script's job/wait\n"
      "                              lines replay concurrently as query load\n"
      "\n"
      "fault tolerance (any of these routes through automated recovery):\n"
      "  --checkpoint-every N        checkpoint every N supersteps (default off)\n"
      "  --checkpoint-mode light|heavy  override the engine's natural mode\n"
      "  --fail-at S                 crash a machine at superstep S\n"
      "  --fail-machine M            which machine dies (default 0)\n"
      "  --drop-rate P               package drop probability (retransmitted)\n"
      "  --corrupt-rate P            package bit-flip probability (CRC-caught)\n"
      "  --fault-seed S              deterministic fault schedule seed\n"
      "  --recovery rollback|log|log-parallel  recovery mode (default rollback):\n"
      "                              rollback = global rollback-and-replay,\n"
      "                              log = message-logged localized replay,\n"
      "                              log-parallel = re-partitioned parallel replay\n"
      "  --log-store memory|spill    message-log backing (default memory)\n"
      "  --detection-timeout-us T    failure-detection timeout (default 500000)\n");
  std::exit(code);  // NOLINT(concurrency-mt-unsafe) — single-threaded startup
}

/// The comma list --ingest-algos names, in the catalog's vocabulary; exits 2
/// on a token outside the incremental set or an empty selection.
std::vector<Algo> parse_ingest_algos(const std::string& list) {
  std::string choices;
  for (const Algo a : kIncrementalAlgos) {
    choices += std::string(choices.empty() ? "" : ", ") + algo::token(a);
  }
  std::vector<Algo> out;
  std::istringstream ss(list);
  for (std::string tok; std::getline(ss, tok, ',');) {
    if (tok.empty()) continue;
    const std::optional<Algo> a = algo::parse_algo(tok);
    if (!a) args::Parser::fail("--ingest-algos: unknown algorithm '" + tok + "'");
    if (std::find(kIncrementalAlgos.begin(), kIncrementalAlgos.end(), *a) ==
        kIncrementalAlgos.end()) {
      args::Parser::fail("--ingest-algos: " + tok + " has no incremental form; choose from " +
                         choices);
    }
    out.push_back(*a);
  }
  if (out.empty()) args::Parser::fail("--ingest-algos selected no algorithms");
  return out;
}

Options parse(int argc, char** argv) {
  // --race carries an optional inline count (--race=N), which the
  // consume-style Parser cannot express; strip it out up front.
  Options o;
  std::vector<char*> rest;
  rest.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--race") == 0) {
      o.race_seeds = 8;
      continue;
    }
    if (std::strncmp(argv[i], "--race=", 7) == 0) {
      char* end = nullptr;
      const long n = std::strtol(argv[i] + 7, &end, 10);
      if (n <= 0 || end == argv[i] + 7 || *end != '\0') {
        args::Parser::fail("--race needs a positive seed count");
      }
      o.race_seeds = static_cast<unsigned>(n);
      continue;
    }
    rest.push_back(argv[i]);
  }
  args::Parser p(static_cast<int>(rest.size()), rest.data());
  if (p.flag("--help") || p.flag("-h")) usage(0);
  const std::string algo_tok = p.get("--algo", std::string(algo::token(o.algo)));
  const std::string engine_tok = p.get("--engine", std::string(algo::token(o.engine)));
  o.graph = p.get("--graph", o.graph);
  o.partitioner = p.get("--partitioner", o.partitioner);
  o.workers = p.get("--workers", o.workers);
  o.machines = p.get("--machines", o.machines);
  o.threads = p.get("--threads", o.threads);
  o.receivers = p.get("--receivers", o.receivers);
  o.epsilon = p.get("--epsilon", o.epsilon);
  o.max_supersteps = p.get("--max-supersteps", o.max_supersteps);
  o.source = p.get("--source", o.source);
  o.num_users = p.get("--users", o.num_users);
  o.rounds = p.get("--rounds", o.rounds);
  o.scale = p.get("--scale", o.scale);
  o.store = args::store_args(p);
  o.csv = p.get("--csv", o.csv);
  o.stats_only = p.flag("--stats");
  o.verify_report = p.flag("--verify");
  o.serve = p.get("--serve", o.serve);
  o.serve_workers = p.get("--serve-workers", o.serve_workers);
  o.serve_queue = p.get("--serve-queue", o.serve_queue);
  o.tenant_limit = p.get("--tenant-limit", o.tenant_limit);
  o.realize_modeled = p.get("--realize", o.realize_modeled);
  o.ingest = p.get("--ingest", o.ingest);
  o.ingest_batch = p.get("--ingest-batch", o.ingest_batch);
  o.ingest_delay_s = p.get("--ingest-delay", o.ingest_delay_s);
  const std::string ingest_algos = p.get("--ingest-algos", std::string("pr,sssp,cc"));
  o.ingest_hops = p.get("--ingest-hops", o.ingest_hops);
  o.ingest_seed = p.get("--ingest-seed", o.ingest_seed);
  o.overlay = p.flag("--overlay");
  o.compact_threshold = p.get("--compact-threshold", o.compact_threshold);
  o.checkpoint_every = p.get("--checkpoint-every", o.checkpoint_every);
  o.checkpoint_mode = p.get("--checkpoint-mode", o.checkpoint_mode);
  o.fail_at = p.get("--fail-at", o.fail_at);
  o.fail_machine = p.get("--fail-machine", o.fail_machine);
  o.drop_rate = p.get("--drop-rate", o.drop_rate);
  o.corrupt_rate = p.get("--corrupt-rate", o.corrupt_rate);
  o.fault_seed = p.get("--fault-seed", o.fault_seed);
  o.rec = args::recovery_args(p);
  p.finish();
  if (o.scale <= 0) args::Parser::fail("--scale must be positive");
  if (o.workers == 0 || o.machines == 0 || o.workers % o.machines != 0) {
    std::fprintf(stderr, "--workers must be a positive multiple of --machines\n");
    std::exit(2);  // NOLINT(concurrency-mt-unsafe) — single-threaded startup
  }
  if (const auto a = algo::parse_algo(algo_tok)) {
    o.algo = *a;
  } else {
    args::Parser::fail("unknown algorithm '" + algo_tok + "'");
  }
  if (const auto e = algo::parse_engine(engine_tok)) {
    o.engine = *e;
  } else {
    args::Parser::fail("unknown engine '" + engine_tok + "'");
  }
  if (!partition::make_edge_cut_partitioner(o.partitioner)) {
    args::Parser::fail("unknown partitioner '" + o.partitioner + "'; choose from " +
                       std::string(partition::kEdgeCutPartitioners));
  }
  if (!o.checkpoint_mode.empty() && o.checkpoint_mode != "light" &&
      o.checkpoint_mode != "heavy") {
    std::fprintf(stderr, "--checkpoint-mode must be light or heavy\n");
    std::exit(2);  // NOLINT(concurrency-mt-unsafe) — single-threaded startup
  }
  if (o.fail_at != sim::kNeverCrash && o.checkpoint_every == 0) {
    std::fprintf(stderr,
                 "note: --fail-at without --checkpoint-every replays from scratch\n");
  }
  if (o.race_seeds > 0 && !o.serve.empty()) {
    args::Parser::fail("--race is not supported in --serve mode");
  }
  if (!o.ingest.empty()) {
    if (o.engine != EngineKind::kCyclops && o.engine != EngineKind::kCyclopsMT) {
      args::Parser::fail("--ingest keeps incremental engines warm; use --engine cyclops|mt");
    }
    if (o.race_seeds > 0 || o.fault_tolerant()) {
      args::Parser::fail("--ingest cannot combine with --race or fault flags");
    }
    if (o.ingest_batch == 0) args::Parser::fail("--ingest-batch must be positive");
    o.ingest_algos = parse_ingest_algos(ingest_algos);
  }
  if (o.race_seeds > 0 && o.fault_tolerant()) {
    args::Parser::fail("--race runs fault-free engines; drop the fault flags");
  }
  try {
    (void)graph::parse_store_kind(o.store.kind);
  } catch (const std::exception& e) {
    args::Parser::fail(e.what());
  }
  return o;
}

graph::EdgeList load_graph(Options& o) {
  if (o.graph.rfind("gen:", 0) != 0) {
    graph::LoadOptions lo;
    lo.undirected = (o.algo == Algo::kCd || o.algo == Algo::kAls);
    try {
      return graph::load_edge_list_file(o.graph, lo);
    } catch (const std::exception& e) {
      args::Parser::fail(e.what());  // a missing or unreadable file exits 2
    }
  }
  const std::string name = o.graph.substr(4);
  algo::DatasetScale scale;
  scale.factor = o.scale;
  algo::Dataset d;
  if (name == "amazon") d = algo::make_amazon(scale);
  else if (name == "gweb") d = algo::make_gweb(scale);
  else if (name == "ljournal") d = algo::make_ljournal(scale);
  else if (name == "wiki") d = algo::make_wiki(scale);
  else if (name == "syn-gl") d = algo::make_syn_gl(scale);
  else if (name == "dblp") d = algo::make_dblp(scale);
  else if (name == "roadca") d = algo::make_road_ca(scale);
  else {
    std::fprintf(stderr, "unknown generator '%s'\n", name.c_str());
    std::exit(2);  // NOLINT(concurrency-mt-unsafe) — single-threaded startup
  }
  if (o.num_users == 0) o.num_users = d.num_users;
  std::printf("dataset: %s\n", d.describe().c_str());
  return std::move(d.edges);
}

void emit_csv(const Options& o, const metrics::RunStats& stats) {
  if (o.csv.empty()) return;
  std::ofstream out(o.csv);
  out << metrics::superstep_series_csv(stats);
  std::printf("wrote per-superstep series to %s\n", o.csv.c_str());
}

/// One seed's outcome inside a race sweep: the fabric's wire digest plus the
/// number of accesses the happens-before analyzer actually checked (zero in
/// non-verify builds — the figure EXPERIMENTS.md cites as "checker work").
struct SweepRun {
  std::uint64_t wire = 0;
  std::uint64_t accesses = 0;
};

/// Sweeps o.race_seeds schedule-explorer seeds through the happens-before
/// analyzer: one fresh engine per seed, each pinned to that seed's permuted
/// task schedule, each collecting race reports. Any race, or any wire-digest
/// divergence across schedules, fails the sweep. `run_one(explorer, reports)`
/// builds the engine (with cfg.schedule = explorer), attaches a collecting
/// handler, runs to termination, and returns the fabric's wire digest plus
/// the analyzer's accesses-checked count.
template <typename RunOne>
int race_sweep(const Options& o, const std::string& label, RunOne&& run_one) {
  if constexpr (!verify::kEnabled) {
    std::printf("[race] %s: built without -DCYCLOPS_VERIFY — schedule sweep only, "
                "races cannot be observed\n", label.c_str());
  }
  int bad_seeds = 0;
  bool diverged = false;
  std::optional<std::uint64_t> first_wire;
  for (unsigned seed = 0; seed < o.race_seeds; ++seed) {
    auto explorer = std::make_shared<sim::ScheduleExplorer>(seed);
    std::vector<std::string> reports;
    verify::race::enable(true);
    const SweepRun run = run_one(explorer, reports);
    verify::race::enable(false);
    const std::uint64_t wire = run.wire;
    std::printf("[race] %s seed=%u schedule=0x%016llx races=%zu checked=%llu "
                "wire=0x%016llx\n",
                label.c_str(), seed,
                static_cast<unsigned long long>(explorer->digest()), reports.size(),
                static_cast<unsigned long long>(run.accesses),
                static_cast<unsigned long long>(wire));
    for (const std::string& r : reports) std::printf("%s\n", r.c_str());
    if (!reports.empty()) ++bad_seeds;
    if (!first_wire) {
      first_wire = wire;
    } else if (*first_wire != wire) {
      std::printf("[race] %s seed=%u wire digest diverged from seed 0 "
                  "(0x%016llx vs 0x%016llx): schedule-dependent traffic\n",
                  label.c_str(), seed, static_cast<unsigned long long>(wire),
                  static_cast<unsigned long long>(*first_wire));
      diverged = true;
    }
  }
  std::printf("[race] %s: %u seeds, %d with races%s\n", label.c_str(), o.race_seeds,
              bad_seeds, diverged ? ", wire digest DIVERGED" : "");
  return (bad_seeds > 0 || diverged) ? 1 : 0;
}

/// Shared message log for log-based recovery modes; null for rollback (no
/// logging overhead when nothing will replay from it).
std::shared_ptr<sim::MessageLog> make_message_log(const Options& o) {
  if (o.recovery_mode() == runtime::RecoveryMode::kRollback) return nullptr;
  return std::make_shared<sim::MessageLog>(o.log_store_kind(), o.store.spill_dir);
}

/// Runs one engine the way the flags ask: a race sweep over schedule seeds,
/// a fault-tolerant run through the automated checkpoint/recovery runtime
/// (the engine's natural checkpoint mode unless --checkpoint-mode says
/// otherwise), or a plain run, which prints the engine's replication factor
/// (Cyclops) and phase breakdown (Hama, Cyclops) after the summary.
template <typename Engine, typename Part, typename Prog, typename Config>
int run_engine(const Options& o, const std::string& label, const graph::GraphStore& g,
               const Part& part, const Prog& prog, Config cfg) {
  if (o.race_seeds > 0) {
    return race_sweep(o, label,
                      [&](std::shared_ptr<sim::ScheduleExplorer> sched,
                          std::vector<std::string>& reports) {
                        Config rcfg = cfg;
                        rcfg.schedule = std::move(sched);
                        Engine engine(g, part, prog, rcfg);
                        engine.verifier().racer().set_handler(
                            [&reports](const verify::race::Report& r) {
                              reports.push_back(r.describe());
                            });
                        engine.run();
                        return SweepRun{engine.fabric().wire_digest(),
                                        engine.verifier().racer().accesses_checked()};
                      });
  }
  if (o.fault_tolerant()) {
    cfg.faults = std::make_shared<sim::FaultInjector>(o.fault_plan());
    cfg.message_log = make_message_log(o);
    runtime::RecoveryOptions opts;
    opts.checkpoint_every = o.checkpoint_every;
    opts.mode = o.mode_or(Engine::kCheckpointMode);
    opts.recovery = o.recovery_mode();
    auto outcome = runtime::run_with_recovery(
        [&] { return std::make_unique<Engine>(g, part, prog, cfg); }, opts);
    std::printf("%s\n", metrics::run_summary(label, outcome.run).c_str());
    std::printf("%s\n", metrics::recovery_summary(outcome.recovery).c_str());
    emit_csv(o, outcome.run);
    return 0;
  }
  Engine engine(g, part, prog, cfg);
  const auto stats = engine.run();
  std::printf("%s\n", metrics::run_summary(label, stats).c_str());
  if (o.verify_report) std::printf("%s\n", engine.verifier().summary().c_str());
  if constexpr (!algo::kVertexCut<Engine>) {
    if constexpr (requires { engine.layout(); }) {
      std::printf("replication factor: %.2f, ingress %.3fs\n",
                  engine.layout().replication_factor(g.num_vertices()), stats.ingress_s);
    }
    std::printf("%s\n", metrics::phase_breakdown_row("breakdown", stats, true).c_str());
  }
  emit_csv(o, stats);
  return 0;
}

/// Parses the rest of a `job <tenant> <prio> <algo> <engine>` script line
/// into `spec`, which also takes this run's algorithm parameters and cluster
/// shape. Returns what is wrong with the line, or an empty string.
std::string parse_job(std::istringstream& ss, const Options& o, service::JobSpec& spec) {
  std::string algo_tok, engine_tok;
  if (!(ss >> spec.tenant >> spec.priority >> algo_tok >> engine_tok)) {
    return "expected: job <tenant> <prio> <algo> <engine>";
  }
  const auto a = algo::parse_algo(algo_tok);
  if (!a) return "unknown algorithm";
  const auto e = algo::parse_engine(engine_tok);
  if (!e) return "unknown engine";
  spec.algo = *a;
  spec.engine = *e;
  spec.params = o.params();
  spec.max_supersteps = o.max_supersteps;
  spec.mt_threads = o.threads;
  spec.mt_receivers = o.receivers;
  return {};
}

service::ServiceConfig service_config(const Options& o) {
  service::ServiceConfig cfg;
  cfg.snapshot.machines = o.machines;
  cfg.snapshot.workers_per_machine = o.workers / o.machines;
  cfg.snapshot.partitioner = o.partitioner;
  cfg.snapshot.store = graph::parse_store_kind(o.store.kind);
  cfg.snapshot.mem_cap_mb = o.store.mem_cap_mb;
  cfg.snapshot.spill_dir = o.store.spill_dir;
  cfg.snapshot.overlay_publish = o.overlay;
  cfg.snapshot.compact_overlay_fraction = o.compact_threshold;
  cfg.scheduler.workers = o.serve_workers;
  cfg.scheduler.max_queue = o.serve_queue;
  cfg.scheduler.per_tenant_running = o.tenant_limit;
  cfg.scheduler.realize_modeled_factor = o.realize_modeled;
  return cfg;
}

// Replays a serve script against `svc`: `job` lines submit against the
// newest epoch and `wait` drains in-flight jobs. With `mutations` (serve
// mode), `add`/`remove` stage a delta, `commit` publishes it as a new epoch,
// and every submission is echoed. Without it (ingest mode's concurrent query
// load) the trace is the snapshot store's single writer, so any other line
// is rejected. A bad line exits 2 naming `file:line`.
int replay_script(const Options& o, service::Service& svc, bool mutations) {
  std::ifstream in(o.serve);
  if (!in) {
    std::fprintf(stderr, "cannot open workload script '%s'\n", o.serve.c_str());
    return 2;
  }
  core::TopologyDelta delta;
  std::string line;
  std::size_t lineno = 0;
  auto bad = [&](const std::string& why) {
    std::fprintf(stderr, "%s:%zu: %s\n", o.serve.c_str(), lineno, why.c_str());
    return 2;
  };
  while (std::getline(in, line)) {
    ++lineno;
    std::istringstream ss(line);
    std::string cmd;
    if (!(ss >> cmd) || cmd[0] == '#') continue;
    if (cmd == "job") {
      service::JobSpec spec;
      if (const std::string why = parse_job(ss, o, spec); !why.empty()) return bad(why);
      const auto sub = svc.submit(spec);  // under --ingest a rejection is load-shedding
      if (!mutations) continue;
      if (sub.accepted) {
        std::printf("submitted job #%llu: %s/%s for %s (epoch %llu)\n",
                    static_cast<unsigned long long>(sub.id), algo::token(spec.engine),
                    algo::token(spec.algo), spec.tenant.c_str(),
                    static_cast<unsigned long long>(svc.snapshots().current_epoch()));
      } else {
        std::printf("rejected %s/%s for %s: %s\n", algo::token(spec.engine),
                    algo::token(spec.algo), spec.tenant.c_str(), sub.reason.c_str());
      }
    } else if (cmd == "wait") {
      svc.wait_all();
    } else if (!mutations) {
      return bad("only job/wait allowed under --ingest (mutations come from the trace)");
    } else if (cmd == "add") {
      VertexId u = 0, v = 0;
      double w = 1.0;
      if (!(ss >> u >> v)) return bad("expected: add <u> <v> [w]");
      ss >> w;
      delta.add_edge(u, v, w);
    } else if (cmd == "remove") {
      VertexId u = 0, v = 0;
      if (!(ss >> u >> v)) return bad("expected: remove <u> <v>");
      delta.remove_edge(u, v);
    } else if (cmd == "commit") {
      if (delta.empty()) return bad("commit with no staged mutations");
      const std::size_t staged = delta.size();
      const auto epoch = svc.apply_delta(delta);
      delta = core::TopologyDelta{};
      std::printf("committed epoch %llu (%zu mutations, built in %.3fs)\n",
                  static_cast<unsigned long long>(epoch), staged,
                  svc.snapshots().stats().last_build_s);
    } else {
      return bad("unknown workload command");
    }
  }
  if (!delta.empty()) {
    std::fprintf(stderr, "warning: %zu staged mutations never committed\n",
                 delta.size());
  }
  return 0;
}

// Serve mode: replays the script against a fresh service, then prints one
// metrics::job_summary line per job and the service summary.
int run_serve(const Options& o, graph::EdgeList edges) {
  service::Service svc(std::move(edges), service_config(o));
  if (const int rc = replay_script(o, svc, /*mutations=*/true); rc != 0) return rc;
  svc.wait_all();
  for (const auto& js : svc.scheduler().all_stats()) {
    std::printf("%s\n", metrics::job_summary(js).c_str());
  }
  std::printf("%s\n", svc.summary().c_str());
  svc.shutdown();
  return 0;
}

/// One incremental program kept converged across the ingest run, with the
/// totals it accumulates over all published epochs. run_ingest holds one per
/// program in kIncrementalAlgos; an unselected lane never starts.
template <typename Program>
struct IngestLane {
  IngestLane(Algo a, Program p) : algo(a), prog(p) {}

  Algo algo;
  Program prog;
  std::optional<ingest::Incremental<Program>> inc;
  std::uint64_t supersteps = 0;
  std::uint64_t messages = 0;
  double modeled_s = 0;  ///< modeled phase + wire/barrier time (total_time_s)

  /// PageRank's verdict: how far past the cold run's certified distance to
  /// the fixpoint the incremental run's may land and still read EQUIVALENT.
  static constexpr double kCertificateSlack = 10;

  void start(const service::SnapshotRef& base, const ingest::IncrementalConfig& icfg) {
    inc.emplace(base, prog, icfg);
    std::printf("%s\n", metrics::run_summary(std::string("ingest-cold/") + algo::token(algo),
                                             inc->cold_run())
                            .c_str());
  }

  void advance(service::Epoch epoch, const service::SnapshotRef& snap,
               const core::TopologyDelta& delta) {
    if (!inc) return;
    const ingest::EpochAdvance adv = inc->advance(snap, delta);
    supersteps += adv.run.supersteps.size();
    messages += adv.run.net_totals().total_messages();
    modeled_s += adv.run.total_time_s();
    std::printf("[ingest] epoch %llu %s: %zu supersteps, %zu resets, %zu activated\n",
                static_cast<unsigned long long>(epoch), algo::token(algo),
                adv.run.supersteps.size(), adv.reset_vertices, adv.activated_vertices);
  }

  /// Runs the same shell cold on the final snapshot and prints the verdict
  /// line; false if the incremental result diverged from it.
  bool verdict(const service::SnapshotRef& fin, const ingest::IncrementalConfig& icfg,
               std::uint64_t epochs) const {
    if (!inc) return true;
    ingest::Incremental<Program> cold(fin, prog, icfg);
    const metrics::RunStats cs = cold.cold_run();
    const auto a = inc->values();
    const auto b = cold.values();
    bool match = a == b;
    double diff = match ? 0.0 : algo::kInfDistance;
    std::string certified;
    if constexpr (std::is_same_v<Program, algo::PageRankCyclops>) {
      const std::size_t n = fin->store().num_vertices();
      if (a.size() == n && b.size() == n) {
        diff = 0;
        for (std::size_t i = 0; i < n; ++i) diff = std::max(diff, std::abs(a[i] - b[i]));
        // Threshold convergence stops short of the fixpoint, by an amount no
        // simple function of epsilon and rounds bounds: a halted vertex's
        // stale share reaches all its out-neighbors. So each run certifies its
        // own L1 distance to the fixpoint, and the incremental run must land
        // within kCertificateSlack x the cold run's. A missed reset leaves a
        // residual far past that.
        const double inc_l1 = algo::pagerank_residual(fin->store(), a);
        const double cold_l1 = algo::pagerank_residual(fin->store(), b);
        match = match || inc_l1 <= kCertificateSlack * cold_l1;
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "; certified L1 to fixpoint: incremental %.2e, cold %.2e, bound %.0fx cold",
                      inc_l1, cold_l1, kCertificateSlack);
        certified = buf;
      }
    }
    // A cold run that used its whole budget stopped short of its fixpoint, so
    // the comparison is between two truncated runs.
    const std::string budget =
        cs.supersteps.size() >= icfg.engine.max_supersteps
            ? "; cold run used its whole --max-supersteps budget (" +
                  std::to_string(icfg.engine.max_supersteps) + ")"
            : "";
    const double e = static_cast<double>(std::max<std::uint64_t>(1, epochs));
    std::printf("[ingest] %s: incremental avg/epoch %.1f supersteps, %.0f msgs, %.4fs "
                "modeled vs cold %zu supersteps, %llu msgs, %.4fs modeled — %s"
                " (max |diff| %.2e%s)%s\n",
                algo::token(algo), static_cast<double>(supersteps) / e,
                static_cast<double>(messages) / e, modeled_s / e, cs.supersteps.size(),
                static_cast<unsigned long long>(cs.net_totals().total_messages()),
                cs.total_time_s(), match ? "EQUIVALENT" : "DIVERGED", diff, certified.c_str(),
                budget.c_str());
    return match;
  }
};

// Streaming ingestion mode: replay a mutation trace through the batching
// MutationIngestor; on every published epoch the requested incremental
// engines re-target the new snapshot and re-converge from their carried
// state. Ends with an incremental-vs-from-scratch comparison per algorithm
// on the final snapshot — exits nonzero if any incremental result diverges
// (SSSP/CC bit-identical, PageRank within fixpoint tolerance).
int run_ingest(const Options& o, graph::EdgeList edges) {
  const auto selected = [&](Algo a) {
    return std::find(o.ingest_algos.begin(), o.ingest_algos.end(), a) != o.ingest_algos.end();
  };
  const service::ServiceConfig cfg = service_config(o);
  service::Service svc(std::move(edges), cfg);
  const service::SnapshotRef base = svc.snapshots().current();
  for (const Algo a : o.ingest_algos) {
    if (const std::string why = algo::unsupported(a, o.engine, base->store(), o.params());
        !why.empty()) {
      std::fprintf(stderr, "%s\n", why.c_str());
      return 2;
    }
  }

  std::vector<ingest::MutationOp> ops;
  try {
    if (o.ingest.rfind("synth:", 0) == 0) {
      ingest::TraceSpec spec;
      spec.ops = static_cast<std::size_t>(std::strtoull(o.ingest.c_str() + 6, nullptr, 10));
      if (spec.ops == 0) {
        std::fprintf(stderr, "--ingest synth:N needs a positive op count\n");
        return 2;
      }
      spec.num_vertices = base->store().num_vertices();
      spec.undirected = selected(Algo::kCc);  // CC expects both directions stored
      spec.seed = o.ingest_seed;
      ops = ingest::synth_trace(spec);
    } else {
      ops = ingest::load_trace(o.ingest);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  std::printf("[ingest] trace: %zu ops, batch bound %zu, delay bound %.3fs, %s publication\n",
              ops.size(), o.ingest_batch, o.ingest_delay_s,
              o.overlay ? "overlay" : "flat");

  ingest::IncrementalConfig icfg =
      ingest::make_incremental_config(cfg.snapshot, o.engine == EngineKind::kCyclopsMT,
                                      o.threads, o.receivers, o.max_supersteps);
  icfg.pr_hops = o.ingest_hops;

  IngestLane pr(Algo::kPageRank, algo::PageRankCyclops{.epsilon = o.epsilon});
  IngestLane sssp(Algo::kSssp, algo::SsspCyclops{.source = o.source});
  IngestLane cc(Algo::kCc, algo::CcCyclops{});
  const auto each_lane = [&](auto&& fn) {
    fn(pr);
    fn(sssp);
    fn(cc);
  };
  each_lane([&](auto& lane) {
    if (selected(lane.algo)) lane.start(base, icfg);
  });

  std::uint64_t epochs_advanced = 0;
  ingest::MutationIngestor ingestor(svc.snapshots(),
                                    ingest::IngestConfig{o.ingest_batch, o.ingest_delay_s});
  ingestor.set_epoch_hook([&](service::Epoch epoch, const core::TopologyDelta& delta) {
    const service::SnapshotRef snap = svc.snapshots().current();
    ++epochs_advanced;
    each_lane([&](auto& lane) { lane.advance(epoch, snap, delta); });
  });

  // Optional concurrent query load: scheduler jobs pin epochs while the
  // ingestor publishes new ones — the apply-vs-pinning concurrency the
  // service was built for.
  Thread load;
  std::atomic<int> load_rc{0};
  if (!o.serve.empty()) {
    load = Thread([&] { load_rc = replay_script(o, svc, /*mutations=*/false); });
  }
  for (const ingest::MutationOp& op : ops) ingestor.offer(op);
  ingestor.flush();
  if (load.joinable()) load.join();
  svc.wait_all();

  const auto& is = ingestor.stats();
  const auto& ss = svc.snapshots().stats();
  std::printf("[ingest] %llu ops -> %llu epochs: %.0f mutations/s, staleness mean "
              "%.1fms max %.1fms, publish %.3fs total\n",
              static_cast<unsigned long long>(is.ops),
              static_cast<unsigned long long>(is.batches), is.mutations_per_s(),
              1e3 * is.mean_staleness_s(), 1e3 * is.max_staleness_s, is.publish_s);
  const service::SnapshotRef fin = svc.snapshots().current();
  const auto mem = fin->store().memory();
  std::printf("[ingest] store: %s, %u vertices, %zu edges, %.1f KiB resident%s\n",
              graph::store_kind_name(fin->store().kind()).data(),
              fin->store().num_vertices(), fin->store().num_edges(),
              static_cast<double>(mem.resident_bytes) / 1024.0,
              fin->is_overlay() ? " (overlay patch only; base shared)" : "");
  std::printf("[ingest] epochs published %llu (%llu overlay, %llu compactions), "
              "last build %.3fs\n",
              static_cast<unsigned long long>(ss.epochs_published),
              static_cast<unsigned long long>(ss.overlay_epochs),
              static_cast<unsigned long long>(ss.compactions), ss.last_build_s);

  // Final verdict: a cold run on the final snapshot must agree with each
  // incrementally-maintained result.
  bool ok = true;
  each_lane([&](const auto& lane) {
    ok = lane.verdict(fin, icfg, epochs_advanced) && ok;
  });

  if (!o.serve.empty()) {
    for (const auto& js : svc.scheduler().all_stats()) {
      std::printf("%s\n", metrics::job_summary(js).c_str());
    }
    std::printf("%s\n", svc.summary().c_str());
  }
  svc.shutdown();
  if (load_rc != 0) return load_rc;
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o = parse(argc, argv);
  graph::EdgeList loaded = load_graph(o);
  if (!o.ingest.empty()) return run_ingest(o, std::move(loaded));
  if (!o.serve.empty()) return run_serve(o, std::move(loaded));
  const graph::EdgeList edges = std::move(loaded);
  const auto store = graph::make_store(
      edges, graph::make_store_options(o.store.kind, o.store.mem_cap_mb, o.store.spill_dir));
  const graph::GraphStore& g = *store;
  std::printf("graph: %u vertices, %zu edges (%s store)\n", g.num_vertices(),
              g.num_edges(), graph::store_kind_name(g.kind()).data());

  if (o.stats_only) {
    const auto s = graph::compute_stats(g);
    std::printf("avg degree %.2f | out-degree max %.0f p99 %.0f | isolated %zu | "
                "power-law slope %.2f\n",
                s.avg_degree, s.out_degree.max, s.out_degree.p99, s.isolated_vertices,
                graph::powerlaw_exponent(g));
    return 0;
  }

  if (const std::string why = algo::unsupported(o.algo, o.engine, g, o.params());
      !why.empty()) {
    args::Parser::fail(why);
  }
  const std::string label = std::string(algo::token(o.engine)) + "/" + algo::token(o.algo);
  return algo::with_job(
      g, o.algo, o.engine, o.params(), o.shape(),
      [&]<typename Engine>(std::type_identity<Engine>, const auto& prog, const auto& cfg) {
        const WorkerId parts = cfg.topo.total_workers();
        const auto part = [&] {
          if constexpr (algo::kVertexCut<Engine>) {
            return partition::RandomVertexCut{}.partition(g, parts);
          } else {
            return partition::make_edge_cut_partitioner(o.partitioner)->partition(g, parts);
          }
        }();
        return run_engine<Engine>(o, label, g, part, prog, cfg);
      });
}
