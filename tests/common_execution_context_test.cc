// Tests for ExecutionContext: deterministic RNG sub-streams, parallel
// execution correctness under uneven loads (the shared-counter work
// distribution), and exception propagation out of parallel regions.
#include "common/execution_context.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

namespace comfedsv {
namespace {

TEST(ExecutionContextTest, InlineContextHasParallelismOne) {
  ExecutionContext ctx(0);
  EXPECT_EQ(ctx.parallelism(), 1);
  ExecutionContext ctx1(1);
  EXPECT_EQ(ctx1.parallelism(), 1);
  ExecutionContext ctx4(4);
  EXPECT_EQ(ctx4.parallelism(), 4);
}

TEST(ExecutionContextTest, SubStreamsDependOnlyOnSeedAndSalt) {
  ExecutionContext a(1, /*seed=*/42);
  ExecutionContext b(4, /*seed=*/42);  // thread count must not matter

  Rng ra = a.MakeRng(7);
  Rng rb = b.MakeRng(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ra.NextUint64(), rb.NextUint64());
  }

  // Distinct salts give distinct streams.
  Rng r1 = a.MakeRng(1);
  Rng r2 = a.MakeRng(2);
  bool any_different = false;
  for (int i = 0; i < 16; ++i) {
    if (r1.NextUint64() != r2.NextUint64()) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(ExecutionContextTest, SubStreamsAreIndependentOfCallOrder) {
  ExecutionContext a(1, 9);
  ExecutionContext b(1, 9);
  // a draws salt 5 after drawing many other salts; b draws it first.
  for (uint64_t s = 100; s < 150; ++s) a.MakeRng(s).NextUint64();
  Rng ra = a.MakeRng(5);
  Rng rb = b.MakeRng(5);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(ra.NextUint64(), rb.NextUint64());
}

TEST(ExecutionContextTest, TaskRngsAreDeterministicPerIndex) {
  ExecutionContext a(2, 123);
  ExecutionContext b(8, 123);
  std::vector<Rng> sa = a.MakeTaskRngs(0xF00D, 16);
  std::vector<Rng> sb = b.MakeTaskRngs(0xF00D, 16);
  ASSERT_EQ(sa.size(), 16u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(sa[i].NextUint64(), sb[i].NextUint64()) << "stream " << i;
  }
  // Adjacent task streams differ.
  std::vector<Rng> sc = a.MakeTaskRngs(0xF00D, 2);
  EXPECT_NE(sc[0].NextUint64(), sc[1].NextUint64());
}

TEST(ExecutionContextTest, ParallelForCoversUnevenLoadsExactlyOnce) {
  ExecutionContext ctx(3);
  const int n = 301;
  std::vector<std::atomic<int>> hits(n);
  ctx.ParallelFor(n, [&](int i) {
    // Deliberately uneven work so the shared-counter distribution has to
    // rebalance across workers.
    volatile double sink = 0.0;
    for (int k = 0; k < (i % 7) * 1000; ++k) sink = sink + k;
    hits[i].fetch_add(1);
  });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ExecutionContextTest, ParallelForPropagatesExceptions) {
  ExecutionContext ctx(4);
  EXPECT_THROW(
      ctx.ParallelFor(64,
                      [&](int i) {
                        if (i == 13) throw std::runtime_error("boom");
                      }),
      std::runtime_error);

  // The pool is intact after a failed region: the next region works and
  // covers everything.
  std::atomic<int> count{0};
  ctx.ParallelFor(32, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(ExecutionContextTest, InlineParallelForPropagatesExceptions) {
  ExecutionContext ctx(1);
  EXPECT_THROW(ctx.ParallelFor(4,
                               [&](int i) {
                                 if (i == 2) throw std::logic_error("x");
                               }),
               std::logic_error);
}

TEST(ExecutionContextTest, ExceptionAbandonsRemainingWorkQuickly) {
  // After a task throws, the region should not run all remaining indices.
  // The ordering is made deterministic. Index 0 waits until the other
  // worker holds an index (so both shards are off the queue), then queues
  // a marker task and throws; every other index waits for the marker.
  // The marker needs a free worker, and the only one that can free up is
  // the thrower, once it has recorded the failure and left its shard — so
  // the other worker cannot race through the range while the thrower
  // unwinds.
  ExecutionContext ctx(2);
  std::atomic<int> executed{0};
  std::atomic<bool> other_started{false};
  std::atomic<bool> failure_recorded{false};
  const int n = 100000;
  try {
    ctx.ParallelFor(n, [&](int i) {
      executed.fetch_add(1);
      if (i == 0) {
        while (!other_started.load()) std::this_thread::yield();
        ctx.pool().Submit([&] { failure_recorded.store(true); });
        throw std::runtime_error("stop");
      }
      other_started.store(true);
      while (!failure_recorded.load()) std::this_thread::yield();
    });
    FAIL() << "expected exception";
  } catch (const std::runtime_error&) {
  }
  EXPECT_LT(executed.load(), n);
}

TEST(ExecutionContextTest, NestedParallelForRunsInlineOnWorkers) {
  // A region issued from inside a region of the same pool must not
  // deadlock on its own barrier; it runs inline on the issuing worker.
  ExecutionContext ctx(4);
  const int outer = 16, inner = 32;
  std::vector<std::atomic<int>> hits(outer * inner);
  std::vector<long> values(outer * inner, -1);
  ctx.ParallelFor(outer, [&](int i) {
    ParallelFor(&ctx, inner, [&](int j) {
      hits[i * inner + j].fetch_add(1);
      values[i * inner + j] = static_cast<long>(i) * 1000 + j;
    });
  });
  for (int i = 0; i < outer; ++i) {
    for (int j = 0; j < inner; ++j) {
      EXPECT_EQ(hits[i * inner + j].load(), 1) << i << "," << j;
      EXPECT_EQ(values[i * inner + j], static_cast<long>(i) * 1000 + j);
    }
  }

  // Exceptions from a nested region reach the outermost caller.
  EXPECT_THROW(ctx.ParallelFor(8,
                               [&](int i) {
                                 ctx.ParallelFor(8, [&](int j) {
                                   if (i == 3 && j == 5) {
                                     throw std::runtime_error("nested");
                                   }
                                 });
                               }),
               std::runtime_error);
  std::atomic<int> count{0};
  ctx.ParallelFor(32, [&](int) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 32);
}

TEST(FreeParallelForTest, NullContextRunsInlineInOrder) {
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&](int i) { order.push_back(i); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(FreeParallelForTest, ForwardsToContextPool) {
  ExecutionContext ctx(4);
  std::vector<std::atomic<int>> hits(64);
  ParallelFor(&ctx, 64, [&](int i) { hits[i].fetch_add(1); });
  for (int i = 0; i < 64; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ExecutionContextTest, LogRespectsContextLevel) {
  ExecutionContext quiet(1, 0, LogLevel::kError);
  EXPECT_FALSE(quiet.ShouldLog(LogLevel::kInfo));
  EXPECT_TRUE(quiet.ShouldLog(LogLevel::kError));
  quiet.Log(LogLevel::kInfo, "dropped");  // must not crash
}

}  // namespace
}  // namespace comfedsv
