#include "cyclops/metrics/reporter.hpp"

#include <cstdio>
#include <sstream>

namespace cyclops::metrics {

std::string phase_breakdown_row(const std::string& label, const RunStats& run,
                                bool normalized) {
  const PhaseTimes t = run.phase_totals();
  // Attribution matches the paper's phases: SND includes the (modeled) wire
  // time of message transfer; SYN is the (modeled) barrier wait.
  const double syn = run.modeled_barrier_s();
  const double snd = t.snd_s + run.modeled_wire_s();
  const double total = t.prs_s + t.cmp_s + snd + syn;
  char buf[256];
  if (normalized && total > 0) {
    std::snprintf(buf, sizeof(buf), "%-24s SYN %5.1f%%  PRS %5.1f%%  CMP %5.1f%%  SND %5.1f%%",
                  label.c_str(), 100 * syn / total, 100 * t.prs_s / total,
                  100 * t.cmp_s / total, 100 * snd / total);
  } else {
    std::snprintf(buf, sizeof(buf),
                  "%-24s SYN %7.3fs  PRS %7.3fs  CMP %7.3fs  SND %7.3fs  total %7.3fs",
                  label.c_str(), syn, t.prs_s, t.cmp_s, snd, total);
  }
  return buf;
}

std::string superstep_series_csv(const RunStats& run) {
  std::ostringstream out;
  out << "superstep,active_vertices,messages,redundant_messages,converged\n";
  for (const auto& s : run.supersteps) {
    out << s.superstep << ',' << s.active_vertices << ',' << s.net.total_messages() << ','
        << s.redundant_messages << ',' << s.converged_vertices << '\n';
  }
  return out.str();
}

std::string run_summary(const std::string& label, const RunStats& run) {
  const auto net = run.net_totals();
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s: %zu supersteps, %.3fs total (%.3fs modeled compute + %.3fs modeled comm), "
                "%llu messages (%llu remote)",
                label.c_str(), run.supersteps.size(), run.total_time_s(),
                run.phase_totals().total_s(), run.modeled_comm_total_s(),
                static_cast<unsigned long long>(net.total_messages()),
                static_cast<unsigned long long>(net.remote_messages));
  return buf;
}

std::string recovery_summary(const RecoveryStats& rec) {
  char buf[448];
  std::snprintf(
      buf, sizeof(buf),
      "recovery: %llu checkpoints (%llu bytes, %.3fs modeled write, %u corrupt), "
      "%u faults -> %u rollbacks, %llu supersteps replayed, %.3fs modeled recovery; "
      "log: %llu packages (%llu bytes), %llu verified, %llu mismatched; "
      "wire: %llu dropped, %llu corrupted, %llu retransmitted (+%.3fs)",
      static_cast<unsigned long long>(rec.checkpoints_taken),
      static_cast<unsigned long long>(rec.checkpoint_bytes_written),
      rec.modeled_checkpoint_s, rec.corrupt_checkpoints, rec.faults_detected,
      rec.recoveries, static_cast<unsigned long long>(rec.lost_supersteps),
      rec.modeled_recovery_s, static_cast<unsigned long long>(rec.log_packages),
      static_cast<unsigned long long>(rec.log_bytes),
      static_cast<unsigned long long>(rec.replay_verified_packages),
      static_cast<unsigned long long>(rec.replay_log_mismatches),
      static_cast<unsigned long long>(rec.dropped_packages),
      static_cast<unsigned long long>(rec.corrupted_packages),
      static_cast<unsigned long long>(rec.retransmissions), rec.modeled_fault_overhead_s);
  return buf;
}

std::string job_summary(const JobStats& job) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "job #%llu [%s] %s/%s epoch %llu prio %d: %s; "
                "queued %.3fs, ran %.3fs (%zu supersteps, %.3fs modeled comm)",
                static_cast<unsigned long long>(job.job_id), job.tenant.c_str(),
                job.engine.c_str(), job.algo.c_str(),
                static_cast<unsigned long long>(job.epoch), job.priority,
                job.outcome.c_str(), job.queue_wait_s, job.run_s, job.supersteps,
                job.modeled_comm_s);
  return buf;
}

}  // namespace cyclops::metrics
