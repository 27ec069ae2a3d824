#ifndef OIR_TESTS_TEST_UTIL_H_
#define OIR_TESTS_TEST_UTIL_H_

// Shared helpers for the test suite.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/db.h"
#include "core/index.h"
#include "testing/crash_point.h"
#include "util/random.h"

namespace oir::test {

// Gtest-friendly status assertion.
#define ASSERT_OK(expr)                                 \
  do {                                                  \
    ::oir::Status _st = (expr);                         \
    ASSERT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

#define EXPECT_OK(expr)                                 \
  do {                                                  \
    ::oir::Status _st = (expr);                         \
    EXPECT_TRUE(_st.ok()) << _st.ToString();            \
  } while (0)

// Seed for randomized tests: OIR_TEST_SEED in the environment overrides
// the test's default, so any failure is reproducible with the exact
// workload that provoked it. Pair with OIR_SCOPED_SEED_TRACE so every
// gtest failure message carries the repro line.
inline uint64_t TestSeed(uint64_t default_seed = 1) {
  const char* env = std::getenv("OIR_TEST_SEED");
  if (env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 10);
  }
  return default_seed;
}

// Attaches "repro: OIR_TEST_SEED=<seed>" to every assertion failure in the
// enclosing scope.
#define OIR_SCOPED_SEED_TRACE(seed) \
  SCOPED_TRACE(::testing::Message() << "repro: OIR_TEST_SEED=" << (seed))

inline std::unique_ptr<Db> MakeDb(uint32_t page_size = 2048,
                                  size_t pool_pages = 1 << 14) {
  DbOptions opts;
  opts.page_size = page_size;
  opts.buffer_pool_pages = pool_pages;
  std::unique_ptr<Db> db;
  Status s = Db::Open(opts, &db);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return db;
}

// Abandons an in-flight transaction the way a crash would: neither
// committed nor aborted, it stays in the TransactionManager's active table
// (which owns it from here on) when CrashAndRecover runs, and recovery
// sees a loser.
inline void AbandonTxn(Db* db, std::unique_ptr<Transaction> txn) {
  db->txn_manager()->Abandon(std::move(txn));
}

// Fixed-width decimal key: sortable, deterministic.
inline std::string NumKey(uint64_t n, int width = 12) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%0*llu", width,
                static_cast<unsigned long long>(n));
  return std::string(buf);
}

// Inserts keys NumKey(i) with rid i for every i in `ids`, one transaction.
inline void InsertMany(Db* db, const std::vector<uint64_t>& ids,
                       int width = 12) {
  auto txn = db->BeginTxn();
  for (uint64_t i : ids) {
    Status s = db->index()->Insert(txn.get(), NumKey(i, width), i);
    ASSERT_TRUE(s.ok()) << "insert " << i << ": " << s.ToString();
  }
  ASSERT_OK(db->Commit(txn.get()));
}

inline void DeleteMany(Db* db, const std::vector<uint64_t>& ids,
                       int width = 12) {
  auto txn = db->BeginTxn();
  for (uint64_t i : ids) {
    Status s = db->index()->Delete(txn.get(), NumKey(i, width), i);
    ASSERT_TRUE(s.ok()) << "delete " << i << ": " << s.ToString();
  }
  ASSERT_OK(db->Commit(txn.get()));
}

// Returns all (user key, rid) pairs via a full scan.
inline std::vector<std::pair<std::string, RowId>> ScanAll(Db* db) {
  std::vector<std::pair<std::string, RowId>> out;
  auto txn = db->BeginTxn();
  auto cur = db->index()->NewCursor(txn.get());
  Status s = cur->SeekToFirst();
  EXPECT_TRUE(s.ok()) << s.ToString();
  while (cur->Valid()) {
    out.emplace_back(cur->user_key().ToString(), cur->rid());
    s = cur->Next();
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  EXPECT_TRUE(db->Commit(txn.get()).ok());
  return out;
}

// Validates the tree and checks it contains exactly the given rids (as
// NumKey(i) keys).
inline void ExpectTreeContains(Db* db, const std::set<uint64_t>& ids,
                               int width = 12) {
  TreeStats stats;
  Status s = db->tree()->Validate(&stats);
  ASSERT_TRUE(s.ok()) << "validate: " << s.ToString();
  EXPECT_EQ(stats.num_keys, ids.size());
  auto rows = ScanAll(db);
  ASSERT_EQ(rows.size(), ids.size());
  size_t i = 0;
  for (uint64_t id : ids) {
    EXPECT_EQ(rows[i].first, NumKey(id, width)) << "at " << i;
    EXPECT_EQ(rows[i].second, id) << "at " << i;
    ++i;
  }
}

// Parks the thread that reaches hit `hit` of crash point `name` until
// Release() (the registry must be enabled). Several may be armed one
// after another: re-arming replaces the registry's armed point, not a
// handler that is already running.
struct Parking {
  std::atomic<bool> parked{false};
  std::atomic<bool> released{false};

  void Arm(const char* name, uint64_t hit) {
    fault::CrashPointRegistry::Get().Arm(name, hit, [this] {
      parked.store(true);
      while (!released.load()) std::this_thread::yield();
    });
  }
  // True once parked; false after a 60 s deadline.
  bool WaitParked() {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (!parked.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    return parked.load();
  }
  void Release() { released.store(true); }
};

}  // namespace oir::test

#endif  // OIR_TESTS_TEST_UTIL_H_
