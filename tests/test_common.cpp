// Unit tests for the common substrate: RNG, bitset, spinlock, thread pool,
// simulated-parallel execution, serialization, stats, tables.

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "cyclops/common/bitset.hpp"
#include "cyclops/common/check.hpp"
#include "cyclops/common/exec.hpp"
#include "cyclops/common/rng.hpp"
#include "cyclops/common/serialize.hpp"
#include "cyclops/common/spinlock.hpp"
#include "cyclops/common/stats.hpp"
#include "cyclops/common/sync.hpp"
#include "cyclops/common/table.hpp"
#include "cyclops/common/thread_pool.hpp"

namespace cyclops {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_LT(same, 3);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000000007ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyUnitVariance) {
  Rng rng(11);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.next_normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(Rng, LognormalMatchesParameters) {
  Rng rng(13);
  // E[log X] = mu, Var[log X] = sigma^2.
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double lx = std::log(rng.next_lognormal(0.4, 1.2));
    sum += lx;
    sq += lx * lx;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 0.4, 0.05);
  EXPECT_NEAR(sq / n - mean * mean, 1.44, 0.1);
}

TEST(Mix64, InjectiveOnSmallRange) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 10000u);
}

TEST(DenseBitset, SetTestClear) {
  DenseBitset bs(130);
  EXPECT_EQ(bs.count(), 0u);
  bs.set(0);
  bs.set(64);
  bs.set(129);
  EXPECT_TRUE(bs.test(0));
  EXPECT_TRUE(bs.test(64));
  EXPECT_TRUE(bs.test(129));
  EXPECT_FALSE(bs.test(1));
  EXPECT_EQ(bs.count(), 3u);
  bs.clear(64);
  EXPECT_FALSE(bs.test(64));
  EXPECT_EQ(bs.count(), 2u);
}

TEST(DenseBitset, SetAllRespectsTail) {
  DenseBitset bs(70);
  bs.set_all();
  EXPECT_EQ(bs.count(), 70u);
  bs.clear_all();
  EXPECT_EQ(bs.count(), 0u);
  EXPECT_FALSE(bs.any());
}

TEST(DenseBitset, ForEachVisitsInOrder) {
  DenseBitset bs(200);
  const std::vector<std::size_t> expected{3, 64, 65, 199};
  for (auto i : expected) bs.set(i);
  std::vector<std::size_t> seen;
  bs.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expected);
}

TEST(DenseBitset, ForEachInMatchesTestLoop) {
  // Range ends on, beside and between word boundaries; every ordered pair
  // of them, so empty (begin == end), inverted (begin > end) and one-word
  // ranges all occur.
  const std::vector<std::size_t> marks{0, 1, 2, 31, 62, 63, 64, 65, 100, 127, 128, 129, 130,
                                       191, 192, 500, 511, 512, 513, 999, 1000};
  Rng rng(2718);
  for (const std::size_t n : {0, 1, 63, 64, 65, 130, 1000}) {
    for (const double density : {0.02, 0.5, 1.0}) {
      DenseBitset bs(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (rng.next_bool(density)) bs.set(i);
      }
      std::vector<std::size_t> grid;
      for (const std::size_t m : marks) {
        if (m <= n) grid.push_back(m);
      }
      for (const std::size_t begin : grid) {
        for (const std::size_t end : grid) {
          std::vector<std::size_t> want;
          for (std::size_t i = begin; i < end; ++i) {
            if (bs.test(i)) want.push_back(i);
          }
          std::vector<std::size_t> seen;
          bs.for_each_in(begin, end, [&](std::size_t i) { seen.push_back(i); });
          ASSERT_EQ(seen, want) << "n=" << n << " density=" << density << " [" << begin
                                << ", " << end << ")";
        }
      }
    }
  }
}

TEST(DenseBitset, ConcurrentSetIsLossless) {
  DenseBitset bs(10000);
  std::vector<Thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < 10000; i += 4) bs.set(i);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bs.count(), 10000u);
}

TEST(CheckDeathTest, FailureReportsExpressionFileAndLine) {
  // The diagnostic must carry the stringized expression and the call site —
  // that is what makes a cold-path CHECK in a recovery loop debuggable from
  // a CI log alone.
  EXPECT_DEATH(CYCLOPS_CHECK(2 + 2 == 5), "CYCLOPS_CHECK failed: 2 \\+ 2 == 5");
  EXPECT_DEATH(CYCLOPS_CHECK(2 + 2 == 5), "at .*test_common\\.cpp:[0-9]+ in ");
}

TEST(CheckDeathTest, PassingCheckIsSilent) {
  CYCLOPS_CHECK(1 + 1 == 2);
  CYCLOPS_DCHECK(1 + 1 == 2);
}

TEST(SpinLock, CountsAcquisitionsAndExcludes) {
  SpinLock lock;
  std::uint64_t counter = 0;
  std::vector<Thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        lock.lock();
        ++counter;
        lock.unlock();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 4000u);
  EXPECT_EQ(lock.acquisitions(), 4000u);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 0u);  // no worker threads; runs inline
  int count = 0;
  pool.parallel_tasks(5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 5);
}

TEST(ThreadPool, ReusableAcrossCalls) {
  ThreadPool pool(2);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel_tasks(7, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 7);
  }
}

TEST(Exec, ChunkRangePartitionsExactly) {
  for (std::size_t n : {0u, 1u, 7u, 64u, 100u}) {
    for (std::size_t chunks : {1u, 2u, 3u, 7u, 13u}) {
      std::size_t covered = 0;
      std::size_t prev_end = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        const ChunkRange r = chunk_range(n, chunks, c);
        EXPECT_EQ(r.begin, prev_end);
        EXPECT_LE(r.begin, r.end);
        covered += r.end - r.begin;
        prev_end = r.end;
      }
      EXPECT_EQ(covered, n);
      EXPECT_EQ(prev_end, n);
    }
  }
}

TEST(Exec, TimedExecutorsReturnsMaxTime) {
  ThreadPool pool(1);
  static double sink = 0;
  const double t = timed_executors(pool, 3, [](std::size_t i) {
    if (i == 1) {
      double x = 0;
      for (int k = 0; k < 2000000; ++k) x += k;
      sink = x;  // keep the loop observable
    }
  });
  EXPECT_GT(t, 0.0);
  EXPECT_GT(sink, 0.0);
}

TEST(Serialize, RoundTripScalars) {
  ByteWriter w;
  w.write<std::uint32_t>(42);
  w.write<double>(3.5);
  w.write_string("cyclops");
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read<std::uint32_t>(), 42u);
  EXPECT_EQ(r.read<double>(), 3.5);
  EXPECT_EQ(r.read_string(), "cyclops");
  EXPECT_TRUE(r.exhausted());
}

TEST(Serialize, RoundTripVector) {
  ByteWriter w;
  const std::vector<std::uint64_t> v{1, 2, 3, 99};
  w.write_vector(v);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.read_vector<std::uint64_t>(), v);
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> v{1, 2, 3, 4, 5};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_EQ(s.min, 1);
  EXPECT_EQ(s.max, 5);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_EQ(s.p50, 3);
}

TEST(Stats, ImbalanceOfUniformIsOne) {
  const std::vector<double> v{5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(imbalance(v), 1.0);
  const std::vector<double> skew{10, 0, 0, 0};
  EXPECT_DOUBLE_EQ(imbalance(skew), 4.0);
}

TEST(Stats, LogHistogramBuckets) {
  LogHistogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.buckets()[0], 1u);  // value 0
  EXPECT_EQ(h.buckets()[1], 1u);  // [1,2)
  EXPECT_EQ(h.buckets()[2], 2u);  // [2,4)
  EXPECT_EQ(h.buckets()[11], 1u); // [1024,2048)
}

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.add_row({"alpha", Table::fmt(1.234, 2)});
  t.add_row({"b", Table::fmt_int(42)});
  const std::string out = t.render("demo");
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("1.23"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

}  // namespace
}  // namespace cyclops
