// Table 3 — the message-passing micro-benchmark (§6.11): five workers
// concurrently send (index, value) messages that update an array owned by a
// master worker, via three implementations:
//   * Hama:       per-message serialization, every record enqueued into one
//                 global queue under a lock, then a separate parse phase;
//   * PowerGraph: bundled serialization with batched enqueue into the global
//                 queue, then the same parse phase (the faster C++ RPC);
//   * Cyclops:    bundled serialization and *direct* lock-free updates — each
//                 array slot has exactly one writer, so no queue, no lock, no
//                 parse phase.
// Paper result (5M msgs): Hama 10.1s, PowerGraph 0.8s, Cyclops 1.0s total —
// one order of magnitude between the locked-queue+parse path and the rest.

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

#include "cyclops/common/serialize.hpp"
#include "cyclops/common/spinlock.hpp"

namespace {

using cyclops::ByteReader;
using cyclops::ByteWriter;
using cyclops::SpinLock;

constexpr int kSenders = 5;
constexpr std::size_t kArraySize = 1 << 16;
constexpr std::size_t kSlice = kArraySize / kSenders;

/// Sender s's i-th message targets a slot in s's own slice of the array, in
/// all three paths, so the Cyclops path really has one writer per slot and
/// the three paths update the same slots.
std::uint32_t slot(int s, std::size_t i) {
  return static_cast<std::uint32_t>(static_cast<std::size_t>(s) * kSlice + i % kSlice);
}

struct Record {
  std::uint32_t index;
  double value;
};

/// Hama path: one ByteWriter round-trip and one lock acquisition per message.
double run_hama(std::size_t messages, std::vector<double>& array) {
  std::vector<Record> queue;
  queue.reserve(messages);
  SpinLock lock;
  std::vector<std::thread> senders;
  const std::size_t per_sender = messages / kSenders;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      ByteWriter writer;
      for (std::size_t i = 0; i < per_sender; ++i) {
        const Record rec{slot(s, i), static_cast<double>(i)};
        writer.clear();
        writer.write(rec);  // per-message serialization (Hadoop RPC style)
        ByteReader reader(writer.bytes());
        const Record parsed = reader.read<Record>();
        lock.lock();
        queue.push_back(parsed);
        lock.unlock();
      }
    });
  }
  for (auto& t : senders) t.join();
  // Parse phase: drain the global queue into the array.
  for (const Record& rec : queue) array[rec.index] = rec.value;
  return static_cast<double>(queue.size());
}

/// PowerGraph path: bundle serialization, lock per 512-record batch.
double run_powergraph(std::size_t messages, std::vector<double>& array) {
  std::vector<Record> queue;
  queue.reserve(messages);
  SpinLock lock;
  std::vector<std::thread> senders;
  const std::size_t per_sender = messages / kSenders;
  constexpr std::size_t kBatch = 512;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      ByteWriter writer;
      std::size_t in_batch = 0;
      auto flush = [&] {
        if (writer.size() == 0) return;
        ByteReader reader(writer.bytes());
        lock.lock();
        while (!reader.exhausted()) queue.push_back(reader.read<Record>());
        lock.unlock();
        writer.clear();
        in_batch = 0;
      };
      for (std::size_t i = 0; i < per_sender; ++i) {
        writer.write(Record{slot(s, i), static_cast<double>(i)});
        if (++in_batch == kBatch) flush();
      }
      flush();
    });
  }
  for (auto& t : senders) t.join();
  for (const Record& rec : queue) array[rec.index] = rec.value;
  return static_cast<double>(queue.size());
}

/// Cyclops path: bundled serialization, direct in-place updates, no locks —
/// each index is written by exactly one sender (its own slice), like replica
/// slots with a single master writer.
double run_cyclops(std::size_t messages, std::vector<double>& array) {
  std::vector<std::thread> senders;
  const std::size_t per_sender = messages / kSenders;
  constexpr std::size_t kBatch = 512;
  for (int s = 0; s < kSenders; ++s) {
    senders.emplace_back([&, s] {
      ByteWriter writer;
      std::size_t in_batch = 0;
      auto flush = [&] {
        if (writer.size() == 0) return;
        ByteReader reader(writer.bytes());
        while (!reader.exhausted()) {
          const Record rec = reader.read<Record>();
          array[rec.index] = rec.value;  // lock-free: single writer per slot
        }
        writer.clear();
        in_batch = 0;
      };
      for (std::size_t i = 0; i < per_sender; ++i) {
        writer.write(Record{slot(s, i), static_cast<double>(i)});
        if (++in_batch == kBatch) flush();
      }
      flush();
    });
  }
  for (auto& t : senders) t.join();
  return static_cast<double>(messages);
}

template <double (*Fn)(std::size_t, std::vector<double>&)>
void BM_Messaging(benchmark::State& state) {
  const auto messages = static_cast<std::size_t>(state.range(0));
  std::vector<double> array(kArraySize, 0.0);
  double processed = 0;
  for (auto _ : state) {
    processed += Fn(messages, array);
    benchmark::DoNotOptimize(array.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(processed));
  state.counters["msgs"] = static_cast<double>(messages);
}

}  // namespace

// The work runs on sender threads, so rates divide by wall-clock time
// (UseRealTime), not by the main thread's CPU time.
BENCHMARK(BM_Messaging<run_hama>)->Name("Table3/Hama")->Arg(100000)->Arg(500000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Messaging<run_powergraph>)->Name("Table3/PowerGraph")->Arg(100000)
    ->Arg(500000)->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_Messaging<run_cyclops>)->Name("Table3/Cyclops")->Arg(100000)->Arg(500000)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

BENCHMARK_MAIN();
