// perfbench — host-time benchmark of one graph job, end to end and per layer.
//
// A job starts from a binary edge-list file on disk and ends with converged
// values gathered from the engine:
//
//   graph::load_binary_file -> graph::make_store -> partitioner
//     -> engine constructor (ingress) -> run() -> values()
//
// Every step is timed from outside, around the call into that layer's public
// function; the program itself carries no instrumentation. Jobs run one at a
// time in a closed loop for --seconds, each checked against the sequential
// reference and against the first job's wire fingerprint. See README.md for
// the metric table and the reasons behind each workload.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --state-dir DIR
//
// The last line of standard output is one JSON object: end-to-end metrics
// with --trace 0, per-layer metrics (plus a Chrome trace-event file in
// DIR) with --trace 1.

#include <malloc.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cyclops/algorithms/datasets.hpp"
#include "cyclops/algorithms/pagerank.hpp"
#include "cyclops/algorithms/sssp.hpp"
#include "cyclops/bsp/engine.hpp"
#include "cyclops/common/args.hpp"
#include "cyclops/common/crc32.hpp"
#include "cyclops/common/rng.hpp"
#include "cyclops/core/engine.hpp"
#include "cyclops/gas/engine.hpp"
#include "cyclops/graph/loader.hpp"
#include "cyclops/graph/store.hpp"
#include "cyclops/partition/hash.hpp"
#include "cyclops/partition/multilevel.hpp"
#include "cyclops/partition/vertex_cut.hpp"
#include "cyclops/sim/fabric.hpp"

namespace {

using namespace cyclops;
using Clock = std::chrono::steady_clock;

constexpr double kMiB = 1024.0 * 1024.0;

/// PageRank values differ from the 200-iteration power-iteration reference
/// by the engines' epsilon=1e-9 stopping rule: measured max-abs error is
/// ~1e-6 on every engine (max rank ~2.3e-3), so 1e-5 leaves a 10x margin
/// while still catching any wrong rank.
constexpr double kPageRankTolerance = 1e-5;
constexpr double kSsspTolerance = 1e-9;

/// Set-up samples an untraced run takes at least (jobs plus set-up-only passes).
constexpr std::size_t kMinSetups = 9;

/// Convergence, not the cap, ends every job; the cap only bounds a bug.
constexpr Superstep kMaxSupersteps = 5000;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ------------------------------------------------------------- job steps

enum Step : std::size_t { kLoad, kStore, kPartition, kIngress, kSolve, kValues, kSteps };

constexpr std::array<const char*, kSteps> kStepSpan = {
    "graph.load_binary_file", "graph.make_store", "partition.partition",
    "engine.constructor",     "engine.run",       "engine.values"};

struct Interval {
  Clock::time_point begin;
  Clock::time_point end;
  [[nodiscard]] double s() const { return seconds(begin, end); }
};

/// Everything one job produced. Host times come from `steps`; the rest is
/// read from the engine after the clock stopped.
struct JobOutput {
  std::array<Interval, kSteps> steps{};
  std::vector<double> values;
  metrics::RunStats stats;
  metrics::MemoryReport memory;
  std::uint64_t wire_digest = 0;
  sim::Topology topo;
  sim::CostModel cost;
  double replication_factor = 0;
  std::vector<Clock::time_point> superstep_ends;  ///< observer timestamps (traced)

  [[nodiscard]] double setup_s() const { return seconds(steps[kLoad].begin, steps[kIngress].end); }
  [[nodiscard]] double job_s() const { return seconds(steps[kLoad].begin, steps[kValues].end); }
};

/// What one job runs on. `setup_only` stops after engine construction: the
/// extra set-up samples a run takes when it completed few jobs.
struct JobSpec {
  std::string path;
  graph::StoreOptions store;
  bool traced = false;
  bool setup_only = false;
};

/// Runs one job. `partition_fn(store)` returns the partition, `make(engine,
/// store, partition)` emplaces the engine, `gather(engine)` returns the
/// converged values as doubles, `replication(engine, store, partition)` is
/// read after the clock stops.
template <typename Engine, typename PartitionFn, typename MakeFn, typename GatherFn,
          typename ReplicationFn>
JobOutput run_job(const JobSpec& spec, PartitionFn partition_fn, MakeFn make, GatherFn gather,
                  ReplicationFn replication) {
  JobOutput out;
  auto& st = out.steps;
  st[kLoad].begin = Clock::now();
  const graph::EdgeList edges = graph::load_binary_file(spec.path);
  st[kLoad].end = Clock::now();

  st[kStore].begin = Clock::now();
  const std::unique_ptr<const graph::GraphStore> store = graph::make_store(edges, spec.store);
  st[kStore].end = Clock::now();

  st[kPartition].begin = Clock::now();
  const auto part = partition_fn(*store);
  st[kPartition].end = Clock::now();

  std::optional<Engine> engine;
  st[kIngress].begin = Clock::now();
  make(engine, *store, part);
  st[kIngress].end = Clock::now();
  if (spec.setup_only) return out;

  if (spec.traced) {
    out.superstep_ends.reserve(1024);
    engine->set_observer([&out](const metrics::SuperstepStats&, const auto&...) {
      out.superstep_ends.push_back(Clock::now());
    });
  }
  st[kSolve].begin = Clock::now();
  out.stats = engine->run();
  st[kSolve].end = Clock::now();

  st[kValues].begin = Clock::now();
  out.values = gather(*engine);
  st[kValues].end = Clock::now();

  out.memory = engine->memory_report();
  out.wire_digest = engine->fabric().wire_digest();
  out.topo = engine->fabric().topology();
  out.cost = engine->fabric().cost_model();
  if (spec.traced) out.replication_factor = replication(*engine, *store, part);
  return out;
}

// ------------------------------------------------------------- workloads

struct Workload {
  std::string_view name;
  graph::EdgeList (*generate)(std::uint64_t seed);
  graph::StoreKind store;
  std::uint64_t store_cap_bytes;  ///< stream backend's resident budget
  bool sssp;                      ///< reference: Dijkstra from vertex 0, else PageRank
  std::size_t lanes;              ///< fabric sender lanes per worker
  JobOutput (*job)(const JobSpec& spec);
};

/// The seed perturbs one pinned graph instead of generating a new one: it
/// drops ~0.1 % of the edges. Fresh graphs move the deterministic counts by
/// up to +-30 % between seeds (SSSP traffic hinges on the few random road
/// shortcuts near the source; greedy vertex-cut replication ranges from 1.6
/// to 2.0), which would swamp any change a benchmark run should detect.
/// Edges out of vertex 0, the SSSP source, are kept.
graph::EdgeList perturb(graph::EdgeList pinned, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<graph::Edge>& edges = pinned.edges();
  std::size_t kept = 0;
  for (const graph::Edge& e : edges) {
    if (e.src == 0 || rng.next_below(1000) != 0) edges[kept++] = e;
  }
  edges.resize(kept);
  return pinned;
}

graph::EdgeList web_graph(std::uint64_t seed) {
  return perturb(algo::make_wiki().edges, seed);
}
graph::EdgeList road_graph(std::uint64_t seed) {
  return perturb(algo::make_road_ca(algo::DatasetScale{16.0}).edges, seed);
}

auto layout_replication = [](const auto& engine, const graph::GraphStore& g, const auto&) {
  return engine.layout().replication_factor(g.num_vertices());
};

// Cyclops: 6 machines x 4 single-threaded workers, hash edge-cut, one host
// thread — dense replica-sync traffic.
JobOutput pagerank_web(const JobSpec& spec) {
  using E = core::Engine<algo::PageRankCyclops>;
  return run_job<E>(
      spec,
      [](const graph::GraphStore& g) { return partition::HashPartitioner{}.partition(g, 24); },
      [](std::optional<E>& e, const graph::GraphStore& g, const auto& part) {
        core::Config cfg = core::Config::cyclops(6, 4);
        cfg.pool_threads = 1;
        cfg.max_supersteps = kMaxSupersteps;
        e.emplace(g, part, algo::PageRankCyclops{}, cfg);
      },
      [](const E& e) { return e.values(); }, layout_replication);
}

// CyclopsMT: 6 machines x 1 worker (4 compute / 2 receiver threads,
// hierarchical barrier), multilevel partition — many thin supersteps. One
// host thread: with two or four, a busy neighbour on a shared host stalls
// every fork/join, and solve_s spread by over 30 % between runs.
JobOutput sssp_road(const JobSpec& spec) {
  using E = core::Engine<algo::SsspCyclops>;
  return run_job<E>(
      spec,
      [](const graph::GraphStore& g) { return partition::MultilevelPartitioner{}.partition(g, 6); },
      [](std::optional<E>& e, const graph::GraphStore& g, const auto& part) {
        core::Config cfg = core::Config::cyclops_mt(6, 4, 2);
        cfg.pool_threads = 1;
        cfg.max_supersteps = kMaxSupersteps;
        e.emplace(g, part, algo::SsspCyclops{}, cfg);
      },
      [](const E& e) { return e.values(); }, layout_replication);
}

// Hama baseline: 6 x 4 BSP workers over a compact store — push traffic
// through the parse path and varint decode on every send.
JobOutput pagerank_hama(const JobSpec& spec) {
  using E = bsp::Engine<algo::PageRankBsp>;
  return run_job<E>(
      spec,
      [](const graph::GraphStore& g) { return partition::HashPartitioner{}.partition(g, 24); },
      [](std::optional<E>& e, const graph::GraphStore& g, const auto& part) {
        bsp::Config cfg;
        cfg.topo = sim::Topology{6, 4};
        cfg.pool_threads = 1;
        cfg.max_supersteps = kMaxSupersteps;
        e.emplace(g, part, algo::PageRankBsp{}, cfg);
      },
      [](const E& e) {
        const auto v = e.values();
        return std::vector<double>(v.begin(), v.end());
      },
      [](const E&, const graph::GraphStore& g, const partition::EdgeCutPartition& part) {
        return partition::evaluate(g, part).replication_factor;
      });
}

// PowerGraph: 6 GAS machines, greedy vertex cut, stream store paging under a
// cap below the graph's CSR size.
JobOutput pagerank_powergraph(const JobSpec& spec) {
  using E = gas::Engine<algo::PageRankGas>;
  return run_job<E>(
      spec,
      [](const graph::GraphStore& g) { return partition::GreedyVertexCut{}.partition(g, 6); },
      [](std::optional<E>& e, const graph::GraphStore& g, const auto& part) {
        gas::Config cfg = gas::Config::workers(6);
        cfg.pool_threads = 1;
        cfg.max_iterations = kMaxSupersteps;
        algo::PageRankGas pr;
        pr.num_vertices = g.num_vertices();
        e.emplace(g, part, pr, cfg);
      },
      [](const E& e) {
        const auto v = e.values();
        std::vector<double> ranks(v.size());
        for (std::size_t i = 0; i < v.size(); ++i) ranks[i] = v[i].rank;
        return ranks;
      },
      layout_replication);
}

constexpr std::uint64_t kStreamCap = 8ull << 20;

const std::array<Workload, 4> kWorkloads = {{
    {"pagerank-web", web_graph, graph::StoreKind::kMemory, 0, false, 1, pagerank_web},
    {"sssp-road", road_graph, graph::StoreKind::kMemory, 0, true, 4, sssp_road},
    {"pagerank-hama", web_graph, graph::StoreKind::kCompact, 0, false, 1, pagerank_hama},
    {"pagerank-powergraph", web_graph, graph::StoreKind::kStream, kStreamCap, false, 1,
     pagerank_powergraph},
}};

// ------------------------------------------------------------- checks

/// The deterministic part of a job: what crossed the wire and the modeled
/// clock. Must be bit-identical for every job of a workload and seed.
struct Fingerprint {
  std::uint64_t wire_digest = 0;
  double modeled_s = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t supersteps = 0;

  [[nodiscard]] bool operator==(const Fingerprint& o) const {
    return wire_digest == o.wire_digest &&
           std::memcmp(&modeled_s, &o.modeled_s, sizeof(double)) == 0 &&
           wire_bytes == o.wire_bytes && messages == o.messages && supersteps == o.supersteps;
  }
  [[nodiscard]] std::string str() const {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%016llx %a %llu %llu %llu",
                  static_cast<unsigned long long>(wire_digest), modeled_s,
                  static_cast<unsigned long long>(wire_bytes),
                  static_cast<unsigned long long>(messages),
                  static_cast<unsigned long long>(supersteps));
    return buf;
  }
};

/// Modeled phase time: the deterministic op-count x rate phases. SYN is left
/// out on purpose — two engines fill it from a host timer.
double modeled_compute_s(const metrics::RunStats& s) {
  const metrics::PhaseTimes p = s.phase_totals();
  return p.prs_s + p.cmp_s + p.snd_s;
}

Fingerprint fingerprint(const JobOutput& j) {
  const sim::NetSnapshot net = j.stats.net_totals();
  return Fingerprint{j.wire_digest,
                     modeled_compute_s(j.stats) + j.stats.modeled_wire_s() +
                         j.stats.modeled_barrier_s(),
                     net.total_bytes(), net.total_messages(), j.stats.supersteps.size()};
}

double max_abs_error(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return INFINITY;
  double worst = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] == want[i]) continue;  // covers unreachable (inf == inf)
    const double d = std::abs(got[i] - want[i]);
    worst = std::isnan(d) ? INFINITY : std::max(worst, d);
  }
  return worst;
}

/// Fingerprint recorded by an earlier run of the same workload and seed, or
/// recorded now if this is the first run. Returns false on a mismatch.
bool check_across_runs(const std::string& path, const Fingerprint& fp) {
  std::ifstream in(path);
  std::string line;
  if (in && std::getline(in, line)) return line == fp.str();
  std::ofstream(path) << fp.str() << "\n";
  return true;
}

// ------------------------------------------------------------- memory

/// Returns freed heap to the kernel and resets the process's resident
/// high-water mark, so the next VmHWM reading is this job's peak.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

// ------------------------------------------------------------- tracing

/// One Chrome trace-event "complete" span. Kept in memory, written at exit.
struct Span {
  std::string name;
  std::size_t job = 0;
  Interval at;
  std::string args;  ///< pre-rendered JSON members
};

class Trace {
 public:
  explicit Trace(Clock::time_point origin) : origin_(origin) {}

  /// Spans of one job: job > {setup > 4 steps, run > supersteps, values, check}.
  void add_job(std::size_t job, const JobOutput& j, Interval check) {
    add("job", job, Interval{j.steps[kLoad].begin, check.end});
    add("setup", job, Interval{j.steps[kLoad].begin, j.steps[kIngress].end});
    for (std::size_t s = 0; s < kSteps; ++s) add(kStepSpan[s], job, j.steps[s]);
    Clock::time_point prev = j.steps[kSolve].begin;
    for (std::size_t i = 0; i < j.superstep_ends.size() && i < j.stats.supersteps.size(); ++i) {
      const metrics::SuperstepStats& st = j.stats.supersteps[i];
      char args[256];
      std::snprintf(args, sizeof(args),
                    "\"active\": %llu, \"computed\": %llu, \"messages\": %llu, "
                    "\"bytes\": %llu, \"packages\": %llu",
                    static_cast<unsigned long long>(st.active_vertices),
                    static_cast<unsigned long long>(st.computed_vertices),
                    static_cast<unsigned long long>(st.net.total_messages()),
                    static_cast<unsigned long long>(st.net.total_bytes()),
                    static_cast<unsigned long long>(st.net.packages));
      add("superstep " + std::to_string(st.superstep), job,
          Interval{prev, j.superstep_ends[i]}, args);
      prev = j.superstep_ends[i];
    }
    add("algorithms.check", job, check);
  }

  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char head[256];
      std::snprintf(head, sizeof(head),
                    "{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": \"X\", \"pid\": 1, "
                    "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": {\"job\": %zu",
                    s.name.c_str(), 1e6 * seconds(origin_, s.at.begin), 1e6 * s.at.s(), s.job);
      out << head << (s.args.empty() ? "" : ", ") << s.args << "}}"
          << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  void add(std::string name, std::size_t job, Interval at, std::string args = {}) {
    spans_.push_back(Span{std::move(name), job, at, std::move(args)});
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------- probes

struct ProbeResult {
  double exchange_us = 0;
  double exchange_mb_per_s = 0;
  double crc32_mb_per_s = 0;
};

/// Replays the job's heaviest superstep through a standalone Fabric with the
/// job's topology, cost model and lanes: the same package count and byte
/// total, sent as outbox reserve/send -> exchange -> incoming/clear_incoming.
/// Also times crc32 over buffers of the average package size.
ProbeResult probe_fabric(const JobOutput& j, std::size_t lanes) {
  const metrics::SuperstepStats* heaviest = &j.stats.supersteps.front();
  for (const auto& s : j.stats.supersteps) {
    if (s.net.total_bytes() > heaviest->net.total_bytes()) heaviest = &s;
  }
  const std::uint64_t packages = std::max<std::uint64_t>(1, heaviest->net.packages);
  const std::uint64_t bytes = std::max<std::uint64_t>(1, heaviest->net.total_bytes());
  const WorkerId workers = j.topo.total_workers();

  // Spread the packages over (from, lane, to) routes; more packages than
  // routes (engines with several exchanges per superstep) take more rounds.
  struct Route {
    WorkerId from;
    std::size_t lane;
    WorkerId to;
  };
  std::vector<Route> routes;
  for (WorkerId from = 0; from < workers; ++from) {
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      for (WorkerId to = 0; to < workers; ++to) {
        if (to != from) routes.push_back(Route{from, lane, to});
      }
    }
  }
  const std::size_t rounds = (packages + routes.size() - 1) / routes.size();
  const std::size_t per_round = (packages + rounds - 1) / rounds;
  const std::size_t package_bytes = std::max<std::size_t>(1, bytes / packages);
  std::vector<std::uint8_t> payload(package_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }

  sim::Fabric fabric(j.topo, j.cost, lanes);
  std::vector<double> cycle_us;
  std::uint64_t delivered = 0;
  constexpr int kReps = 21;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto t0 = Clock::now();
    std::uint64_t left = packages;
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::size_t n = std::min<std::uint64_t>(left, per_round);
      left -= n;
      for (std::size_t k = 0; k < n; ++k) {
        const Route& route = routes[k * routes.size() / n];
        sim::OutBox& box = fabric.outbox(route.from, route.lane);
        box.reserve(route.to, payload.size());
        box.send(route.to, payload);
      }
      (void)fabric.exchange(workers);
      for (WorkerId w = 0; w < workers; ++w) {
        for (const sim::Package& p : fabric.incoming(w)) delivered += p.bytes.size();
        fabric.clear_incoming(w);
      }
    }
    cycle_us.push_back(1e6 * seconds(t0, Clock::now()));
  }
  ProbeResult r;
  r.exchange_us = median(cycle_us);
  r.exchange_mb_per_s = static_cast<double>(delivered / kReps) / kMiB / (r.exchange_us * 1e-6);

  // CRC over >= 32 MiB per repetition, in package-sized buffers. Each CRC
  // feeds the next buffer, so no call can be skipped.
  const std::size_t buffers = std::max<std::size_t>(1, (32u << 20) / package_bytes);
  std::vector<double> crc_s;
  std::uint32_t crc = 0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t b = 0; b < buffers; ++b) {
      payload[b % payload.size()] ^= static_cast<std::uint8_t>(crc);
      crc = crc32(payload);
    }
    crc_s.push_back(seconds(t0, Clock::now()));
  }
  r.crc32_mb_per_s = static_cast<double>(buffers * package_bytes) / kMiB / median(crc_s);
  return r;
}

// ------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void emit(const std::vector<Metric>& metrics, bool correct, std::size_t attempted,
          std::size_t failed) {
  for (const Metric& m : metrics) {
    std::printf("%-28s %18.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

struct JobRecord {
  JobOutput out;
  bool traced = false;
  double peak_rss_mb = 0;
  double max_abs_err = 0;
};

int run(const Workload& w, std::uint64_t seed, double budget_s, bool trace,
        const std::string& state_dir) {
  const std::string tag = std::string(w.name) + "-" + std::to_string(seed);
  JobSpec spec;
  spec.path = state_dir + "/input-" + tag + ".cygr";
  spec.store.kind = w.store;
  if (w.store_cap_bytes > 0) spec.store.mem_cap_bytes = w.store_cap_bytes;
  spec.store.spill_dir = state_dir;

  // Untimed preparation: generate and write the input, compute the reference.
  std::vector<double> reference;
  double reference_s = 0;
  {
    const graph::EdgeList edges = w.generate(seed);
    graph::save_binary_file(spec.path, edges);
    const auto store = graph::make_store(edges);
    const auto t0 = Clock::now();
    reference = w.sssp ? algo::sssp_reference(*store, 0) : algo::pagerank_reference(*store);
    reference_s = seconds(t0, Clock::now());
  }
  // The cross-run fingerprint record is keyed by the input's CRC too: a
  // changed generator starts a new record instead of failing against an old one.
  double input_mb = 0;
  char crc_hex[16];
  {
    std::ifstream in(spec.path, std::ios::binary);
    const std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                          std::istreambuf_iterator<char>());
    input_mb = static_cast<double>(bytes.size()) / kMiB;
    std::snprintf(crc_hex, sizeof(crc_hex), "%08x", crc32(bytes));
  }
  const std::string fp_path = state_dir + "/fingerprint-" + tag + "-" + crc_hex + ".txt";
  const double tolerance = w.sssp ? kSsspTolerance : kPageRankTolerance;

  const auto origin = Clock::now();
  Trace spans(origin);
  std::vector<JobRecord> jobs;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::optional<Fingerprint> first;
  bool setup_spans_ok = true;

  const auto deadline = origin + std::chrono::duration<double>(budget_s);
  // The traced run alternates traced and untraced jobs (for the overhead
  // ratio) and needs at least one of each.
  auto have_both = [&jobs] {
    bool t = false;
    bool u = false;
    for (const JobRecord& r : jobs) (r.traced ? t : u) = true;
    return t && u;
  };
  std::vector<double> setups;
  while (Clock::now() < deadline || attempted < (trace ? 2u : 1u)) {
    const bool traced = trace && attempted % 2 == 0;
    ++attempted;
    JobRecord rec;
    rec.traced = traced;
    spec.traced = traced;
    try {
      reset_peak_rss();
      rec.out = w.job(spec);
      rec.peak_rss_mb = peak_rss_mb();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "job %zu failed: %s\n", attempted, e.what());
      ++failed;
      continue;
    }
    Interval check;
    check.begin = Clock::now();
    rec.max_abs_err = max_abs_error(rec.out.values, reference);
    const Fingerprint fp = fingerprint(rec.out);
    if (!first) first = fp;
    bool ok = rec.max_abs_err <= tolerance;
    if (!ok) {
      std::fprintf(stderr, "job %zu: max abs error %g > %g\n", attempted, rec.max_abs_err,
                   tolerance);
    }
    if (!(fp == *first)) {
      std::fprintf(stderr, "job %zu: fingerprint %s != first job %s\n", attempted,
                   fp.str().c_str(), first->str().c_str());
      ok = false;
    }
    if (!check_across_runs(fp_path, fp)) {
      std::fprintf(stderr, "job %zu: fingerprint %s differs from an earlier run\n", attempted,
                   fp.str().c_str());
      ok = false;
    }
    check.end = Clock::now();
    if (traced) {
      spans.add_job(attempted - 1, rec.out, check);
      double parts = 0;
      for (std::size_t s = kLoad; s <= kIngress; ++s) parts += rec.out.steps[s].s();
      if (parts < 0.99 * rec.out.setup_s()) {
        std::fprintf(stderr, "job %zu: setup spans cover %.4f of %.4f s\n", attempted, parts,
                     rec.out.setup_s());
        setup_spans_ok = false;
      }
    }
    if (!ok) ++failed;
    std::fprintf(stderr, "job %zu%s: setup %.4f s, solve %.4f s, job %.4f s, peak rss %.1f MB\n",
                 attempted, traced ? " (traced)" : "", rec.out.setup_s(),
                 rec.out.steps[kSolve].s(), rec.out.job_s(), rec.peak_rss_mb);
    rec.out.values = {};
    setups.push_back(rec.out.setup_s());
    jobs.push_back(std::move(rec));
  }
  // A set-up median over a handful of jobs is noisy: top the sample up with
  // set-up-only passes over the same steps.
  spec.traced = false;
  spec.setup_only = true;
  while (!trace && !jobs.empty() && setups.size() < kMinSetups) {
    reset_peak_rss();  // same heap state as a job's set-up
    setups.push_back(w.job(spec).setup_s());
  }
  std::remove(spec.path.c_str());
  if (jobs.empty() || (trace && !have_both())) {
    std::fprintf(stderr, "too few jobs completed\n");
    return 1;
  }

  enum class Jobs { kAll, kTraced, kUntraced };
  auto med = [&](Jobs which, auto fn) {
    std::vector<double> v;
    for (const JobRecord& r : jobs) {
      if (which == Jobs::kAll || r.traced == (which == Jobs::kTraced)) v.push_back(fn(r));
    }
    return median(v);
  };
  const Fingerprint fp0 = *first;
  std::vector<Metric> m;

  if (!trace) {
    m = {
        {"job_s", med(Jobs::kAll, [](const JobRecord& r) { return r.out.job_s(); }), "s"},
        {"setup_s", median(setups), "s"},
        {"solve_s", med(Jobs::kAll, [](const JobRecord& r) { return r.out.steps[kSolve].s(); }),
         "s"},
        // The first job's: later jobs inherit heap layout from earlier ones,
        // which moves their peaks by up to 20 % from job to job.
        {"peak_rss_mb", jobs.front().peak_rss_mb, "MB"},
        {"modeled_s", fp0.modeled_s, "s"},
        {"wire_bytes", static_cast<double>(fp0.wire_bytes), "B"},
    };
    std::printf("%-28s %18.9g %s\n", "fail_frac",
                static_cast<double>(failed) / static_cast<double>(attempted), "ratio");
    emit(m, failed == 0, attempted, failed);
    return 0;
  }

  // ---- traced run: per-layer metrics from the traced jobs.
  const JobRecord* traced0 = nullptr;
  for (const JobRecord& r : jobs) {
    if (r.traced) {
      traced0 = &r;
      break;
    }
  }
  const JobOutput& t0 = traced0->out;
  const metrics::RunStats& rs = t0.stats;
  const sim::NetSnapshot net = rs.net_totals();
  std::vector<double> superstep_ms;
  for (const JobRecord& r : jobs) {
    if (!r.traced) continue;
    Clock::time_point prev = r.out.steps[kSolve].begin;
    for (const auto& end : r.out.superstep_ends) {
      superstep_ms.push_back(1e3 * seconds(prev, end));
      prev = end;
    }
  }
  double computed = 0;
  for (const auto& s : rs.supersteps) computed += static_cast<double>(s.computed_vertices);
  const double vertices = static_cast<double>(reference.size());
  const double syn_host_s = rs.phase_totals().syn_s;
  const double traced_job = med(Jobs::kTraced, [](const JobRecord& r) { return r.out.job_s(); });
  const double plain_job = med(Jobs::kUntraced, [](const JobRecord& r) { return r.out.job_s(); });
  const ProbeResult probe = probe_fabric(t0, w.lanes);
  double worst_err = 0;
  for (const JobRecord& r : jobs) worst_err = std::max(worst_err, r.max_abs_err);

  auto step_med = [&](Step s) {
    return med(Jobs::kTraced, [s](const JobRecord& r) { return r.out.steps[s].s(); });
  };
  const double load_s = step_med(kLoad);
  m = {
      {"graph.load_s", load_s, "s"},
      {"graph.load_mb_per_s", input_mb / load_s, "MB/s"},
      {"graph.store_build_s", step_med(kStore), "s"},
      {"graph.store_resident_mb", static_cast<double>(t0.memory.store_resident_bytes) / kMiB, "MB"},
      {"graph.store_on_disk_mb", static_cast<double>(t0.memory.store_on_disk_bytes) / kMiB, "MB"},
      {"partition.partition_s", step_med(kPartition), "s"},
      {"partition.replication_factor", t0.replication_factor, "ratio"},
      {"engine.ingress_s", step_med(kIngress), "s"},
      {"engine.values_s", step_med(kValues), "s"},
      {"engine.active_frac", computed / (vertices * static_cast<double>(rs.supersteps.size())),
       "ratio"},
      {"engine.peak_message_mb", static_cast<double>(t0.memory.peak_message_bytes) / kMiB, "MB"},
      {"engine.replica_mb", static_cast<double>(t0.memory.replica_bytes) / kMiB, "MB"},
      {"runtime.supersteps", static_cast<double>(rs.supersteps.size()), "count"},
      {"runtime.superstep_ms.p50", percentile(superstep_ms, 0.5), "ms"},
      {"runtime.superstep_ms.p90", percentile(superstep_ms, 0.9), "ms"},
      {"runtime.syn_host_frac", syn_host_s / (fp0.modeled_s + syn_host_s), "ratio"},
      {"sim.messages", static_cast<double>(net.total_messages()), "count"},
      {"sim.remote_messages", static_cast<double>(net.remote_messages), "count"},
      {"sim.packages", static_cast<double>(net.packages), "count"},
      {"sim.remote_bytes", static_cast<double>(net.remote_bytes), "B"},
      {"sim.modeled_wire_s", rs.modeled_wire_s(), "s"},
      {"sim.modeled_barrier_s", rs.modeled_barrier_s(), "s"},
      {"sim.modeled_compute_s", modeled_compute_s(rs), "s"},
      {"sim.exchange_us", probe.exchange_us, "us"},
      {"sim.exchange_mb_per_s", probe.exchange_mb_per_s, "MB/s"},
      {"common.crc32_mb_per_s", probe.crc32_mb_per_s, "MB/s"},
      {"algorithms.reference_s", reference_s, "s"},
      {"algorithms.max_abs_err", worst_err, "abs"},
      {"trace.overhead_frac", traced_job / plain_job - 1.0, "ratio"},
  };
  const std::string trace_path = state_dir + "/trace-" + tag + ".json";
  if (!spans.write(trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "trace: %s\n", trace_path.c_str());
  emit(m, failed == 0 && setup_spans_ok, attempted, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  args::Parser p(argc, argv);
  const std::string workload = p.get("--workload", std::string{});
  const auto seed = p.get("--seed", std::uint64_t{1});
  const double budget_s = p.get("--seconds", 24.0);
  const int trace = p.get("--trace", 0);
  const std::string state_dir = p.get("--state-dir", std::string{"."});
  p.finish();

  for (const Workload& w : kWorkloads) {
    if (w.name != workload) continue;
    try {
      return run(w, seed, budget_s, trace != 0, state_dir);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s\n", e.what());
      return 1;
    }
  }
  std::fprintf(stderr, "perfbench: unknown --workload '%s' (expected", workload.c_str());
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", std::string(w.name).c_str());
  std::fprintf(stderr, ")\n");
  return 2;
}
