// Unit tests for the util substrate: Status, Slice, coding, crc32c,
// Random, Histogram, counters, clock.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>

#include "util/clock.h"
#include "util/coding.h"
#include "util/counters.h"
#include "util/crc32c.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/slice.h"
#include "util/status.h"

namespace oir {
namespace {

TEST(StatusTest, OkIsDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCodesRoundTrip) {
  EXPECT_TRUE(Status::NotFound("x").IsNotFound());
  EXPECT_TRUE(Status::Corruption("x").IsCorruption());
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::IOError("x").IsIOError());
  EXPECT_TRUE(Status::Busy("x").IsBusy());
  EXPECT_TRUE(Status::Aborted("x").IsAborted());
  EXPECT_TRUE(Status::NoSpace("x").IsNoSpace());
  EXPECT_TRUE(Status::NotSupported("x").IsNotSupported());
  EXPECT_FALSE(Status::NotFound("x").ok());
}

TEST(StatusTest, MessagePreserved) {
  Status s = Status::Corruption("bad page 42");
  EXPECT_EQ(s.message(), "bad page 42");
  EXPECT_EQ(s.ToString(), "Corruption: bad page 42");
}

TEST(StatusTest, ReturnIfErrorMacro) {
  auto f = [](bool fail) -> Status {
    OIR_RETURN_IF_ERROR(fail ? Status::Busy("b") : Status::OK());
    return Status::NotFound("reached end");
  };
  EXPECT_TRUE(f(true).IsBusy());
  EXPECT_TRUE(f(false).IsNotFound());
}

TEST(SliceTest, BasicAccessors) {
  Slice s("hello");
  EXPECT_EQ(s.size(), 5u);
  EXPECT_FALSE(s.empty());
  EXPECT_EQ(s[1], 'e');
  EXPECT_EQ(s.ToString(), "hello");
  Slice empty;
  EXPECT_TRUE(empty.empty());
}

TEST(SliceTest, Compare) {
  EXPECT_LT(Slice("a").compare(Slice("b")), 0);
  EXPECT_GT(Slice("b").compare(Slice("a")), 0);
  EXPECT_EQ(Slice("ab").compare(Slice("ab")), 0);
  // Prefix sorts before extension.
  EXPECT_LT(Slice("ab").compare(Slice("abc")), 0);
  // Unsigned byte comparison.
  std::string hi("\xff", 1);
  EXPECT_LT(Slice("a").compare(Slice(hi)), 0);
}

TEST(SliceTest, StartsWithAndRemovePrefix) {
  Slice s("abcdef");
  EXPECT_TRUE(s.starts_with(Slice("abc")));
  EXPECT_FALSE(s.starts_with(Slice("abd")));
  s.remove_prefix(3);
  EXPECT_EQ(s.ToString(), "def");
}

TEST(CodingTest, FixedRoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xbeef);
  PutFixed32(&buf, 0xdeadbeefu);
  PutFixed64(&buf, 0x0123456789abcdefull);
  Slice in(buf);
  uint16_t a;
  uint32_t b;
  uint64_t c;
  ASSERT_TRUE(GetFixed16(&in, &a));
  ASSERT_TRUE(GetFixed32(&in, &b));
  ASSERT_TRUE(GetFixed64(&in, &c));
  EXPECT_EQ(a, 0xbeef);
  EXPECT_EQ(b, 0xdeadbeefu);
  EXPECT_EQ(c, 0x0123456789abcdefull);
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, VarintRoundTrip) {
  std::string buf;
  std::vector<uint64_t> values = {0, 1, 127, 128, 16383, 16384,
                                  1ull << 32, ~0ull};
  for (uint64_t v : values) PutVarint64(&buf, v);
  Slice in(buf);
  for (uint64_t v : values) {
    uint64_t got;
    ASSERT_TRUE(GetVarint64(&in, &got));
    EXPECT_EQ(got, v);
  }
  EXPECT_TRUE(in.empty());
}

TEST(CodingTest, Varint32Boundaries) {
  for (uint32_t v : {0u, 1u, 0x7fu, 0x80u, 0x3fffu, 0x4000u, ~0u}) {
    std::string buf;
    PutVarint32(&buf, v);
    EXPECT_EQ(static_cast<int>(buf.size()), VarintLength(v));
    Slice in(buf);
    uint32_t got;
    ASSERT_TRUE(GetVarint32(&in, &got));
    EXPECT_EQ(got, v);
  }
}

TEST(CodingTest, VarintMalformed) {
  // Five continuation bytes with no terminator.
  std::string buf(6, '\xff');
  Slice in(buf);
  uint32_t v;
  EXPECT_FALSE(GetVarint32(&in, &v));
}

TEST(CodingTest, LengthPrefixedSlice) {
  std::string buf;
  PutLengthPrefixedSlice(&buf, Slice("payload"));
  PutLengthPrefixedSlice(&buf, Slice(""));
  Slice in(buf);
  Slice a, b;
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &a));
  ASSERT_TRUE(GetLengthPrefixedSlice(&in, &b));
  EXPECT_EQ(a.ToString(), "payload");
  EXPECT_TRUE(b.empty());
  // Truncated payload is rejected.
  std::string bad;
  PutVarint32(&bad, 100);
  bad += "short";
  Slice bin(bad);
  Slice out;
  EXPECT_FALSE(GetLengthPrefixedSlice(&bin, &out));
}

TEST(Crc32cTest, KnownValues) {
  // Standard check value: crc32c("123456789") = 0xe3069283.
  EXPECT_EQ(crc32c::Value("123456789", 9), 0xe3069283u);
  // crc of 32 zero bytes = 0x8a9136aa.
  char zeros[32] = {0};
  EXPECT_EQ(crc32c::Value(zeros, sizeof(zeros)), 0x8a9136aau);
}

TEST(Crc32cTest, ExtendEqualsConcat) {
  const char* s = "hello world, this is a log record";
  uint32_t whole = crc32c::Value(s, strlen(s));
  uint32_t split = crc32c::Extend(crc32c::Value(s, 10), s + 10,
                                  strlen(s) - 10);
  EXPECT_EQ(whole, split);
}

TEST(Crc32cTest, MaskRoundTripAndDiffers) {
  uint32_t crc = crc32c::Value("abc", 3);
  EXPECT_NE(crc32c::Mask(crc), crc);
  EXPECT_EQ(crc32c::Unmask(crc32c::Mask(crc)), crc);
}

TEST(RandomTest, DeterministicForSeed) {
  Random a(42), b(42), c(43);
  bool same = true, diff = false;
  for (int i = 0; i < 100; ++i) {
    uint64_t va = a.Next();
    same &= (va == b.Next());
    diff |= (va != c.Next());
  }
  EXPECT_TRUE(same);
  EXPECT_TRUE(diff);
}

TEST(RandomTest, UniformInRange) {
  Random r(1);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = r.Range(10, 20);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 20u);
  }
}

TEST(RandomTest, BytesLengthAndCharset) {
  Random r(7);
  std::string s = r.Bytes(64);
  EXPECT_EQ(s.size(), 64u);
  for (char ch : s) {
    EXPECT_GE(ch, 'a');
    EXPECT_LE(ch, 'z');
  }
}

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v);
  EXPECT_EQ(h.Count(), 100u);
  EXPECT_EQ(h.Min(), 1u);
  EXPECT_EQ(h.Max(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_GE(h.Percentile(99), 90.0);
  EXPECT_LE(h.Percentile(50), 70.0);
}

TEST(HistogramTest, MergeAndClear) {
  Histogram a, b;
  a.Add(5);
  b.Add(10);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_EQ(a.Max(), 10u);
  a.Clear();
  EXPECT_EQ(a.Count(), 0u);
}

TEST(HistogramTest, EmptyPercentilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 0.0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, PercentileBoundsClampToMinMax) {
  Histogram h;
  h.Add(10);
  h.Add(20);
  h.Add(1000);
  EXPECT_DOUBLE_EQ(h.Percentile(0), 10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(-5), 10.0);
  EXPECT_DOUBLE_EQ(h.Percentile(100), 1000.0);
  EXPECT_DOUBLE_EQ(h.Percentile(200), 1000.0);
  // Every interior percentile stays inside [min, max].
  for (double p = 1; p < 100; p += 7) {
    EXPECT_GE(h.Percentile(p), 10.0) << p;
    EXPECT_LE(h.Percentile(p), 1000.0) << p;
  }
}

TEST(HistogramTest, SingleValuePercentilesAreExact) {
  Histogram h;
  for (int i = 0; i < 50; ++i) h.Add(42);
  EXPECT_DOUBLE_EQ(h.Percentile(1), 42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 42.0);
  EXPECT_DOUBLE_EQ(h.Percentile(99), 42.0);
}

TEST(HistogramTest, MergePreservesPercentileInterpolation) {
  Histogram a, b;
  for (uint64_t v = 1; v <= 500; ++v) a.Add(v);
  for (uint64_t v = 501; v <= 1000; ++v) b.Add(v);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 1000u);
  EXPECT_EQ(a.Min(), 1u);
  EXPECT_EQ(a.Max(), 1000u);
  // Percentiles are monotone in p and roughly track the uniform ideal.
  double prev = 0;
  for (double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    double v = a.Percentile(p);
    EXPECT_GE(v, prev) << p;
    // Bucketized estimate: generous band around the exact value.
    EXPECT_GT(v, p * 10.0 * 0.5) << p;
    EXPECT_LT(v, p * 10.0 * 2.0 + 10.0) << p;
    prev = v;
  }
}

TEST(HistogramTest, ToJsonIsWellFormedWithIntegerBounds) {
  Histogram h;
  for (uint64_t v = 1; v <= 100; ++v) h.Add(v * 3);
  std::string j = h.ToJson();
  EXPECT_NE(j.find("\"count\":100"), std::string::npos) << j;
  EXPECT_NE(j.find("\"buckets\":["), std::string::npos) << j;
  // Bucket bounds are emitted as integers: no '.' may appear inside any
  // "le" value.
  size_t pos = 0;
  while ((pos = j.find("\"le\":", pos)) != std::string::npos) {
    pos += 5;
    size_t end = j.find_first_of(",}", pos);
    ASSERT_NE(end, std::string::npos);
    std::string num = j.substr(pos, end - pos);
    EXPECT_EQ(num.find('.'), std::string::npos) << num;
    EXPECT_EQ(num.find('e'), std::string::npos) << num;
  }
  Histogram empty;
  EXPECT_NE(empty.ToJson().find("\"count\":0"), std::string::npos);
}

TEST(HistogramTest, ConcurrentAdds) {
  Histogram h;
  std::vector<std::thread> ts;
  for (int t = 0; t < 4; ++t) {
    ts.emplace_back([&h] {
      for (int i = 0; i < 10000; ++i) h.Add(i);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(h.Count(), 40000u);
}

TEST(CountersTest, SnapshotDelta) {
  auto& c = GlobalCounters::Get();
  CounterSnapshot before = c.Snapshot();
  GlobalCounters::Local().log_bytes.fetch_add(100);
  GlobalCounters::Local().latch_acquires.fetch_add(3);
  CounterSnapshot delta = c.Snapshot() - before;
  EXPECT_EQ(delta.log_bytes, 100u);
  EXPECT_EQ(delta.latch_acquires, 3u);
  EXPECT_FALSE(delta.ToString().empty());
}

TEST(CountersTest, ForEachVisitsEveryFieldOnce) {
  // The X-macro generates struct fields, snapshot fields and the visitors
  // from one list; ForEach over the snapshot must see each field exactly
  // once, with a unique name.
  auto& c = GlobalCounters::Get();
  CounterSnapshot before = c.Snapshot();
  GlobalCounters::Local().pool_hits.fetch_add(11);
  GlobalCounters::Local().cond_lock_failures.fetch_add(5);
  CounterSnapshot delta = c.Snapshot() - before;

  std::set<std::string> names;
  uint64_t pool_hits = 0, cond_fail = 0;
  delta.ForEach([&](const char* name, uint64_t v) {
    EXPECT_TRUE(names.insert(name).second) << "duplicate " << name;
    if (std::string(name) == "pool_hits") pool_hits = v;
    if (std::string(name) == "cond_lock_failures") cond_fail = v;
  });
  EXPECT_EQ(pool_hits, 11u);
  EXPECT_EQ(cond_fail, 5u);
  EXPECT_TRUE(names.count("lock_watchdog_fires"));
  // The stripe and the snapshot are generated from the same list: one
  // 8-byte atomic per snapshot field.
  EXPECT_EQ(names.size() * sizeof(std::atomic<uint64_t>),
            sizeof(CounterSnapshot));
  EXPECT_GE(sizeof(CounterStripe), sizeof(CounterSnapshot));
  EXPECT_EQ(alignof(CounterStripe), kCacheLineSize);
}

TEST(ClockTest, MonotoneAndCpuAdvances) {
  uint64_t a = NowNanos();
  uint64_t cpu0 = ThreadCpuNanos();
  volatile uint64_t sink = 0;
  for (int i = 0; i < 1000000; ++i) sink += i;
  EXPECT_GE(NowNanos(), a);
  EXPECT_GT(ThreadCpuNanos(), cpu0);
  EXPECT_GE(ProcessCpuNanos(), ThreadCpuNanos());
}

}  // namespace
}  // namespace oir
