// Self-tests of the benchmark harness's own pieces (harness.h): the
// percentile helper, its >=10-beyond rule and the segmented tails,
// open-loop lateness accounting, emission -> completing-record
// attribution, backlog-growth detection and span self time.  Exits
// non-zero on any failure; run.py runs it before every benchmark run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "harness.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "harness_selftest:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(expr) Check((expr), #expr, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1.0 + std::fabs(b)); }

void TestPercentiles() {
  using perfbench::PercentileSupported;
  using perfbench::SamplesBeyond;
  // p99 of 1000 samples leaves exactly 10 beyond it: supported.
  CHECK(SamplesBeyond(1000, 0.99) == 10);
  CHECK(PercentileSupported(1000, 0.99));
  CHECK(!PercentileSupported(999, 0.99));
  CHECK(PercentileSupported(200, 0.95));
  CHECK(!PercentileSupported(199, 0.95));
  CHECK(!PercentileSupported(0, 0.5));
  CHECK(PercentileSupported(20, 0.5));
  CHECK(!PercentileSupported(19, 0.5));

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // 1..1000, unsorted.
  const perfbench::TailSummary s = perfbench::Summarize(v, 0.99);
  CHECK(s.n == 1000);
  CHECK(s.p50 == 500.0);
  CHECK(s.tail == 990.0);  // Nearest rank: ceil(0.99 * 1000) = 990.
  CHECK(s.tail_supported);
  CHECK(s.highest_supported_q == 0.99);  // p99.9 would leave only 1 beyond.

  const perfbench::TailSummary few = perfbench::Summarize({3.0, 1.0, 2.0}, 0.99);
  CHECK(few.p50 == 2.0);
  CHECK(few.tail == 3.0);
  CHECK(!few.tail_supported);
  CHECK(few.highest_supported_q == 0.0);
  CHECK(perfbench::Summarize({}, 0.99).n == 0);

  // Segmented tails: 1000 samples support five p95 slices of 200.  A
  // burst of 60 slow samples inside the first slice owns the whole-run
  // p95 but moves only that slice's tail, which is trimmed away.
  CHECK(perfbench::MinSamplesFor(0.95) == 200);
  std::vector<perfbench::TimedSample> timed;
  for (int i = 0; i < 1000; ++i) timed.push_back({1000 - i, i >= 940 ? 100.0 : 1.0});
  const perfbench::TailSummary seg = perfbench::SummarizeSegmented(timed, 0.95, 5);
  CHECK(seg.segments == 5);
  CHECK(seg.n == 1000);
  CHECK(seg.tail == 1.0);
  std::vector<double> whole;
  for (const auto& t : timed) whole.push_back(t.value);
  CHECK(perfbench::Summarize(whole, 0.95).tail == 100.0);
  // Medians over the same five slices of 200: the burst sits in the
  // first, whose median it does not reach.
  CHECK(seg.p50_segments == 5);
  CHECK(seg.p50 == 1.0);
  // A stall that slows one slice of five by 10000 is trimmed away; a
  // slower period over two slices of five moves the value by a third.
  std::vector<perfbench::TimedSample> stall, slow;
  for (int i = 0; i < 1000; ++i) {
    stall.push_back({i, (i % 200) + 1.0 + (i < 200 ? 10000.0 : 0.0)});
    slow.push_back({i, (i % 200) + 1.0 + (i < 400 ? 100.0 : 0.0)});
  }
  CHECK(perfbench::SummarizeSegmented(stall, 0.95, 5).p50 == 100.0);
  CHECK(Near(perfbench::SummarizeSegmented(slow, 0.95, 5).p50, 400.0 / 3.0));
  CHECK(perfbench::SummarizeSegmented(slow, 0.95, 1).p50 == 140.0);
  CHECK(perfbench::MiddleMeanOfSlices({3.0, 1.0, 2.0, 9.0, 8.0, 7.0}, 0.5, 2) == 5.0);
  CHECK(perfbench::SummarizeSegmented({{0, 1.0}}, 0.95, 5).p50_segments == 1);
  timed.resize(300);  // Too few for two slices: the whole-run tail.
  const perfbench::TailSummary one = perfbench::SummarizeSegmented(timed, 0.95, 5);
  CHECK(one.segments == 1);
  CHECK(one.tail == perfbench::Summarize(std::vector<double>(300, 1.0), 0.95).tail);

  CHECK(perfbench::Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
  CHECK(perfbench::Median({5.0}) == 5.0);
}

void TestLateness() {
  // Four sends due every 1 ms from t = 1 s; the third is 2 ms late, and
  // a send early (clock skew) counts as on time, never negative.
  const int64_t ms = 1000000;
  const std::vector<int64_t> due = {1000 * ms, 1001 * ms, 1002 * ms, 1003 * ms};
  const std::vector<int64_t> sent = {1000 * ms, 1001 * ms - 5, 1004 * ms, 1004 * ms};
  const perfbench::LatenessReport r = perfbench::SummarizeLateness(due, sent);
  CHECK(r.sends == 4);
  CHECK(Near(r.late_max_ms, 2.0));
  CHECK(Near(r.late_p99_ms, 2.0));
  CHECK(Near(r.late_p50_ms, 0.0));
  // Offered: 3 intervals over 3 ms; achieved: 3 intervals over 4 ms.
  CHECK(Near(r.offered_rate, 1000.0));
  CHECK(Near(r.achieved_rate, 750.0));
  CHECK(Near(r.achieved_over_offered, 0.75));

  const perfbench::LatenessReport on_time = perfbench::SummarizeLateness(due, due);
  CHECK(on_time.late_p99_ms == 0.0);
  CHECK(Near(on_time.achieved_over_offered, 1.0));
  CHECK(perfbench::SummarizeLateness({}, {}).sends == 0);

  CHECK(!perfbench::BacklogGrew({5, 5, 5, 5, 5, 5}, 1.0));
  CHECK(perfbench::BacklogGrew({0, 0, 10, 10, 50, 60}, 1.0));
  CHECK(!perfbench::BacklogGrew({50, 60, 10, 10, 0, 0}, 1.0));
  CHECK(!perfbench::BacklogGrew({0, 100}, 1.0));  // Too few samples.
}

void TestAttribution() {
  // Pushes 0..4 emit {0, 2, 0, 1, 0}; the flush emits 2 more.
  const std::vector<int32_t> c = perfbench::CompletingRecords({0, 2, 0, 1, 0}, 2);
  const std::vector<int32_t> want = {1, 1, 3, 4, 4};
  CHECK(c == want);
  CHECK(perfbench::CompletingRecords({0, 0, 0}, 0).empty());
  CHECK(perfbench::CompletingRecords({1}, 1) == std::vector<int32_t>({0, 0}));
}

void TestSpans() {
  perfbench::SpanRecorder rec({"parent", "child"});
  const int32_t p = rec.Begin(0);
  const int32_t c1 = rec.Begin(1, p);
  rec.End(c1);
  const int32_t c2 = rec.Begin(1, p);
  rec.End(c2);
  rec.End(p);
  const std::vector<perfbench::SpanStats> st = rec.Stats();
  CHECK(st.size() == 2);
  CHECK(st[0].count == 1 && st[1].count == 2);
  CHECK(st[0].self_ns == st[0].total_ns - st[1].total_ns);
  CHECK(st[1].self_ns == st[1].total_ns);
  CHECK(st[0].self_ns >= 0);
  {
    perfbench::ScopedSpan none(nullptr, 0);  // Untraced: records nothing.
    CHECK(none.index() == -1);
  }
  CHECK(rec.spans().size() == 3);
}

}  // namespace

int main() {
  TestPercentiles();
  TestLateness();
  TestAttribution();
  TestSpans();
  if (failures > 0) return 1;
  std::fprintf(stderr, "harness_selftest: all checks passed\n");
  return 0;
}
