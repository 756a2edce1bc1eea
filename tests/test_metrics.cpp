// Tests for the metrics layer: phase accounting, convergence tracking,
// ranked error distributions, memory model arithmetic, reporters.

#include <gtest/gtest.h>

#include "cyclops/metrics/convergence.hpp"
#include "cyclops/metrics/memory_model.hpp"
#include "cyclops/metrics/reporter.hpp"
#include "cyclops/metrics/superstep_stats.hpp"

namespace cyclops::metrics {
namespace {

TEST(PhaseTimes, TotalsAndAccumulate) {
  PhaseTimes a{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(a.total_s(), 10.0);
  PhaseTimes b{0.5, 0.5, 0.5, 0.5};
  a += b;
  EXPECT_DOUBLE_EQ(a.total_s(), 12.0);
}

TEST(RunStats, AggregatesSupersteps) {
  RunStats run;
  for (int i = 0; i < 3; ++i) {
    SuperstepStats s;
    s.superstep = static_cast<Superstep>(i);
    s.phases = PhaseTimes{0.1, 0.2, 0.3, 0.4};
    s.net.remote_messages = 10;
    s.net.remote_bytes = 100;
    s.modeled_comm_s = 0.05;
    s.modeled_barrier_s = 0.01;
    run.supersteps.push_back(s);
  }
  EXPECT_DOUBLE_EQ(run.phase_totals().total_s(), 3.0);
  EXPECT_EQ(run.net_totals().remote_messages, 30u);
  EXPECT_NEAR(run.modeled_comm_total_s(), 0.18, 1e-12);
  EXPECT_NEAR(run.total_time_s(), 3.18, 1e-12);
}

TEST(ConvergenceTracker, L1DistanceAndSampling) {
  ConvergenceTracker tracker({1.0, 2.0, 3.0});
  tracker.sample(0.0, std::vector<double>{0.0, 0.0, 0.0});
  tracker.sample(1.0, std::vector<double>{1.0, 2.0, 2.0});
  tracker.sample(2.0, std::vector<double>{1.0, 2.0, 3.0});
  ASSERT_EQ(tracker.points().size(), 3u);
  EXPECT_DOUBLE_EQ(tracker.points()[0].l1, 6.0);
  EXPECT_DOUBLE_EQ(tracker.points()[1].l1, 1.0);
  EXPECT_DOUBLE_EQ(tracker.points()[2].l1, 0.0);
}

TEST(RankedErrors, SortsByReferenceDescending) {
  const std::vector<double> reference{0.1, 0.9, 0.5};
  const std::vector<double> values{0.1, 0.8, 0.5};
  const auto ranked = ranked_errors(reference, values);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].first, 1u);  // highest reference value first
  EXPECT_NEAR(ranked[0].second, 0.1, 1e-12);
  EXPECT_EQ(ranked[1].first, 2u);
  EXPECT_EQ(ranked[2].first, 0u);
}

TEST(MemoryReport, Arithmetic) {
  MemoryReport r;
  r.vertex_state_bytes = 1000;
  r.replica_bytes = 500;
  r.peak_message_bytes = 200;
  r.message_churn_bytes = 10000;
  EXPECT_EQ(r.resident_bytes(), 1500u);
  EXPECT_EQ(r.peak_bytes(), 1700u);
  EXPECT_DOUBLE_EQ(r.young_gc_equivalent(1000), 10.0);
  EXPECT_DOUBLE_EQ(r.young_gc_equivalent(0), 0.0);
}

TEST(Reporter, BreakdownRowFormats) {
  RunStats run;
  SuperstepStats s;
  s.phases = PhaseTimes{0.25, 0.25, 0.25, 0.25};
  run.supersteps.push_back(s);
  const std::string normalized = phase_breakdown_row("demo", run, true);
  EXPECT_NE(normalized.find("SYN"), std::string::npos);
  EXPECT_NE(normalized.find("%"), std::string::npos);
  const std::string absolute = phase_breakdown_row("demo", run, false);
  EXPECT_NE(absolute.find("total"), std::string::npos);
}

TEST(Reporter, SuperstepSeriesCsv) {
  RunStats run;
  SuperstepStats s;
  s.superstep = 3;
  s.active_vertices = 42;
  s.net.remote_messages = 7;
  run.supersteps.push_back(s);
  const std::string csv = superstep_series_csv(run);
  EXPECT_NE(csv.find("superstep,active_vertices"), std::string::npos);
  EXPECT_NE(csv.find("3,42,7"), std::string::npos);
}

TEST(Reporter, RunSummaryMentionsMessages) {
  RunStats run;
  SuperstepStats s;
  s.net.remote_messages = 123;
  run.supersteps.push_back(s);
  const std::string summary = run_summary("pr", run);
  EXPECT_NE(summary.find("123"), std::string::npos);
  EXPECT_NE(summary.find("pr"), std::string::npos);
}

// Golden-output tests: these lines are the operational interface users grep
// and scripts parse, so format drift is a breaking change, not cosmetics.
// All inputs are exactly representable in binary so %.3f rounding is stable.

TEST(Reporter, RecoverySummaryGolden) {
  RecoveryStats rec;
  rec.checkpoints_taken = 3;
  rec.checkpoint_bytes_written = 4096;
  rec.modeled_checkpoint_s = 0.25;
  rec.corrupt_checkpoints = 1;
  rec.faults_detected = 1;
  rec.recoveries = 1;
  rec.lost_supersteps = 4;
  rec.modeled_recovery_s = 0.125;
  rec.log_packages = 12;
  rec.log_bytes = 2048;
  rec.replay_verified_packages = 6;
  rec.replay_log_mismatches = 0;
  rec.dropped_packages = 7;
  rec.corrupted_packages = 2;
  rec.retransmissions = 9;
  rec.modeled_fault_overhead_s = 0.5;
  EXPECT_EQ(recovery_summary(rec),
            "recovery: 3 checkpoints (4096 bytes, 0.250s modeled write, 1 corrupt), "
            "1 faults -> 1 rollbacks, 4 supersteps replayed, 0.125s modeled "
            "recovery; log: 12 packages (2048 bytes), 6 verified, 0 mismatched; "
            "wire: 7 dropped, 2 corrupted, 9 retransmitted (+0.500s)");
}

TEST(Reporter, JobSummaryGolden) {
  const JobStats job{.job_id = 7,
                     .tenant = "acme",
                     .algo = "pr",
                     .engine = "cyclops",
                     .epoch = 2,
                     .priority = 1,
                     .queue_wait_s = 0.5,
                     .run_s = 1.25,
                     .modeled_comm_s = 0.75,
                     .supersteps = 12,
                     .outcome = "ok"};
  EXPECT_EQ(job_summary(job),
            "job #7 [acme] cyclops/pr epoch 2 prio 1: ok; "
            "queued 0.500s, ran 1.250s (12 supersteps, 0.750s modeled comm)");
}

TEST(Reporter, JobSummaryCarriesFailureReason) {
  const JobStats job{.job_id = 9,
                     .tenant = "acme",
                     .algo = "cc",
                     .engine = "gas",
                     .outcome = "failed: gas engine supports pr and sssp only, not cc"};
  const std::string line = job_summary(job);
  EXPECT_NE(line.find("failed: gas engine supports pr and sssp only"),
            std::string::npos);
}

}  // namespace
}  // namespace cyclops::metrics
