#include "cyclops/sim/fabric.hpp"

#include <algorithm>

#include "cyclops/verify/race.hpp"

namespace cyclops::sim {

Fabric::Fabric(Topology topo, CostModel model, std::size_t lanes_per_worker)
    : topo_(topo), model_(model), lanes_(std::max<std::size_t>(1, lanes_per_worker)) {
  CYCLOPS_CHECK(topo_.total_workers() > 0);
  outboxes_.resize(static_cast<std::size_t>(topo_.total_workers()) * lanes_);
  for (auto& box : outboxes_) box.init(topo_.total_workers());
  inboxes_.resize(topo_.total_workers());
}

ExchangeStats Fabric::exchange(std::size_t barrier_participants) {
  ExchangeStats stats;
  const WorkerId workers = topo_.total_workers();

  // The global barrier is a happens-before epoch for the race analyzer: every
  // lane filled before it is drained here, on the driver's clock.
  verify::race::exchange_barrier();

  // Fault boundary: a machine scheduled to die at this superstep dies before
  // delivering anything — its outbound traffic and every peer's in-flight
  // state are lost with the barrier. The engine incarnation is unrecoverable
  // from here; runtime::run_with_recovery restores a replacement.
  if (faults_ != nullptr) {
    faults_->begin_exchange();
    if (const MachineId dead = faults_->crash_now(); dead != kNoMachine) {
      throw FaultError(FaultKind::kMachineCrash, dead, faults_->superstep());
    }
  }

  // Message-log / replay position. Both key on the injector's deterministic
  // (superstep, exchange-within-step) clock; inside a localized-recovery
  // replay window the fabric verifies re-sent remote traffic against the log
  // instead of appending, and leaves the (seeded) wire digest untouched.
  const Superstep log_superstep = faults_ != nullptr ? faults_->superstep() : 0;
  const std::uint64_t log_exchange = faults_ != nullptr ? faults_->exchange_in_step() : 0;
  const bool replaying =
      replay_.active && faults_ != nullptr && log_superstep < replay_.until;
  const bool logging = log_ != nullptr && faults_ != nullptr && !replaying;

  for (auto& inbox : inboxes_) inbox.clear();

  // Per-machine wire accounting: each machine's NIC serializes its own
  // outbound and inbound traffic; the superstep's comm time is the slowest
  // machine (they all overlap). The vector is a member so an exchange does
  // not allocate.
  machine_cost_us_.assign(topo_.machines, 0.0);

  std::uint64_t buffered = 0;
  for (const OutBox& box : outboxes_) buffered += box.pending_bytes();
  stats.peak_buffered_bytes = buffered;

  for (WorkerId from = 0; from < workers; ++from) {
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      OutBox& box = outboxes_[from * lanes_ + lane];
      for (WorkerId to = 0; to < workers; ++to) {
        OutBox::Buffer& buf = box.buffers_[to];
        if (buf.messages == 0 && buf.bytes.empty()) continue;
        const bool local = topo_.same_machine(from, to);
        const std::uint64_t msgs = buf.messages;
        const std::uint64_t bytes = buf.bytes.size();
        double wire_cost = 0;
        if (local) {
          counters_.add_local(msgs, bytes);
          stats.net.local_messages += msgs;
          stats.net.local_bytes += bytes;
          wire_cost = model_.local_cost_us(msgs, bytes);
          machine_cost_us_[topo_.machine_of(from)] += wire_cost;
        } else {
          counters_.add_remote(msgs, bytes);
          stats.net.remote_messages += msgs;
          stats.net.remote_bytes += bytes;
          wire_cost = model_.remote_cost_us(msgs, bytes);
          machine_cost_us_[topo_.machine_of(from)] += wire_cost;
          machine_cost_us_[topo_.machine_of(to)] += wire_cost * 0.5;  // receive side
        }
        counters_.add_package();
        ++stats.net.packages;

        // Integrity stamp: the receiver checks delivered bytes against the
        // CRC computed at bundling time.
        const std::uint32_t crc = crc32(buf.bytes);

        if (faults_ != nullptr) {
          // Drop: the first transmission is lost; the sender times out and
          // retransmits. Logical traffic is unchanged — the package arrives —
          // but the wire pays the package cost again plus the timeout.
          double overhead_us = 0;
          if (faults_->roll_drop(from, to)) {
            overhead_us += wire_cost + faults_->plan().retransmit_timeout_us;
            ++stats.retransmitted_packages;
          }
          // Corruption: a bit flips in flight. The flip is real (applied to
          // the live buffer) and detection is real (CRC mismatch); the
          // retransmission then delivers the pristine copy by undoing the
          // recorded flip, paying the package cost again.
          if (const auto flip = faults_->roll_corrupt(from, to, buf.bytes.size())) {
            buf.bytes[flip->byte_index] ^= flip->mask;
            CYCLOPS_CHECK(crc32(buf.bytes) != crc);  // CRC32 catches any 1-bit flip
            buf.bytes[flip->byte_index] ^= flip->mask;
            overhead_us += wire_cost + faults_->plan().retransmit_timeout_us;
            ++stats.retransmitted_packages;
          }
          if (overhead_us > 0) {
            machine_cost_us_[topo_.machine_of(from)] += overhead_us;
            faults_->charge_overhead_us(overhead_us);
          }
        }

        // Message log: every remote package is appended once, at first
        // delivery; a replayed exchange byte-compares the re-sent buffer
        // against the logged copy instead (the bit-for-bit fidelity proof of
        // log-based recovery — mismatches surface in MessageLogStats).
        if (!local) {
          if (logging) {
            log_->append(log_superstep, log_exchange, from, lane, to, msgs, buf.bytes,
                         crc);
          } else if (replaying && log_ != nullptr) {
            log_->verify_replayed(log_superstep, log_exchange, from, lane, to,
                                  buf.bytes);
          }
        }

        // Fold the package into the run's wire digest before delivery. The
        // payload is already summarized by its CRC; folding (from, to, msgs,
        // crc) in delivery order makes the digest sensitive to both content
        // and ordering of everything that crossed the wire. Replayed
        // packages are not re-folded: the crashed incarnation already folded
        // them into the digest this fabric was seeded with.
        if (!replaying) {
          for (const std::uint64_t word :
               {std::uint64_t{from}, std::uint64_t{to}, msgs, std::uint64_t{crc}}) {
            wire_digest_ ^= word;
            wire_digest_ *= 0x100000001b3ULL;  // FNV-1a prime
          }
        }

        inboxes_[to].push_back(Package{from, msgs, std::move(buf.bytes), crc});
        buf.bytes = {};
        buf.messages = 0;
      }
    }
  }

  // Straggler: one machine's NIC is slow this exchange; it stretches the
  // barrier for everyone because comm time is the max over machines.
  if (faults_ != nullptr) {
    for (MachineId m = 0; m < topo_.machines; ++m) {
      const double extra = faults_->straggler_extra_us(m);
      if (extra > 0) {
        machine_cost_us_[m] += extra;
        faults_->charge_overhead_us(extra);
      }
    }
  }

  const double max_machine_us =
      machine_cost_us_.empty()
          ? 0.0
          : *std::max_element(machine_cost_us_.begin(), machine_cost_us_.end());
  stats.modeled_comm_s = max_machine_us * 1e-6;
  stats.modeled_barrier_s = model_.barrier_cost_us(barrier_participants) * 1e-6;
  modeled_comm_s_ += stats.modeled_comm_s;
  modeled_barrier_s_ += stats.modeled_barrier_s;
  return stats;
}

}  // namespace cyclops::sim
