// Pure pieces of the pipeline benchmark harness: percentile summaries,
// open-loop lateness accounting, emission -> completing-record
// attribution, and an in-memory span recorder.  They take plain numbers
// and no c2mn types, so harness_selftest.cpp checks them in isolation.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------ percentiles

/// Samples strictly above the nearest-rank q-quantile of n samples.
inline size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  const size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, std::max<size_t>(rank, 1));
}

/// A percentile is reported only when at least this many samples lie
/// beyond it; fewer and the tail value is one or two outliers.
inline constexpr size_t kMinBeyond = 10;

inline bool PercentileSupported(size_t n, double q) {
  return SamplesBeyond(n, q) >= kMinBeyond;
}

/// Nearest-rank quantile of an ascending-sorted sample; 0 when empty.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

/// A timing reported as the median plus one tail percentile, with the
/// sample count and the highest percentile the count supports.
struct TailSummary {
  size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;     ///< The percentile asked for (e.g. 0.99).
  double tail = 0.0;       ///< Its value.
  bool tail_supported = false;
  double highest_supported_q = 0.0;  ///< 0 when not even the median is.
  size_t segments = 1;  ///< Time slices the tail is the median over.
  size_t p50_segments = 1;  ///< Time slices the median is the median over.
};

inline TailSummary Summarize(std::vector<double> samples, double tail_q) {
  std::sort(samples.begin(), samples.end());
  TailSummary s;
  s.n = samples.size();
  s.p50 = SortedQuantile(samples, 0.5);
  s.tail_q = tail_q;
  s.tail = SortedQuantile(samples, tail_q);
  s.tail_supported = PercentileSupported(s.n, tail_q);
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.5}) {
    if (PercentileSupported(s.n, q)) {
      s.highest_supported_q = q;
      break;
    }
  }
  return s;
}

/// The smallest sample count whose q-quantile is supported.
inline size_t MinSamplesFor(double q) {
  size_t n = kMinBeyond;
  while (!PercentileSupported(n, q)) ++n;
  return n;
}

/// A timestamped latency sample: `at` orders samples in time.
struct TimedSample {
  int64_t at;
  double value;
};

/// The q-quantile of each of `segments` consecutive slices of equal
/// count of `values`, averaged over the middle three fifths of them (the
/// lowest and highest fifth, rounded down, are dropped).
inline double MiddleMeanOfSlices(const std::vector<double>& values, double q,
                                 size_t segments) {
  std::vector<double> per_slice;
  for (size_t k = 0; k < segments; ++k) {
    const size_t lo = values.size() * k / segments;
    const size_t hi = values.size() * (k + 1) / segments;
    std::vector<double> part(values.begin() + static_cast<std::ptrdiff_t>(lo),
                             values.begin() + static_cast<std::ptrdiff_t>(hi));
    std::sort(part.begin(), part.end());
    per_slice.push_back(SortedQuantile(part, q));
  }
  std::sort(per_slice.begin(), per_slice.end());
  const size_t trim = per_slice.size() / 5;
  double sum = 0.0;
  for (size_t i = trim; i + trim < per_slice.size(); ++i) sum += per_slice[i];
  const size_t kept = per_slice.size() - 2 * trim;
  return kept > 0 ? sum / static_cast<double>(kept) : 0.0;
}

/// Samples a slice needs before its own median is reported.
inline constexpr size_t kMinPerMedianSlice = 21;

/// Like Summarize, but the median and the tail each come from up to
/// `max_segments` consecutive time slices of equal sample count: the
/// slices' own medians (tails) averaged over the middle three fifths of
/// them.  A tail slice must support `tail_q` on its own, a median slice
/// must hold kMinPerMedianSlice samples.  A stall confined to a few
/// slices is dropped with them; a host that runs slower for part of the
/// run moves the value in proportion to that part, not all or nothing.
inline TailSummary SummarizeSegmented(std::vector<TimedSample> samples,
                                      double tail_q, size_t max_segments) {
  std::sort(samples.begin(), samples.end(),
            [](const TimedSample& a, const TimedSample& b) { return a.at < b.at; });
  std::vector<double> all(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) all[i] = samples[i].value;
  TailSummary s = Summarize(all, tail_q);
  const auto slices = [&](size_t per_slice) {
    return std::max<size_t>(1, std::min(max_segments, all.size() / per_slice));
  };
  s.p50_segments = slices(kMinPerMedianSlice);
  s.segments = slices(MinSamplesFor(tail_q));
  if (s.p50_segments > 1) s.p50 = MiddleMeanOfSlices(all, 0.5, s.p50_segments);
  if (s.segments > 1) s.tail = MiddleMeanOfSlices(all, tail_q, s.segments);
  return s;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ----------------------------------------------------- open-loop schedule

/// How closely an open-loop generator kept to its schedule.  Lateness of
/// one send is max(0, sent - due).  The offered rate is the sends over
/// the span of their due times; the achieved rate is the sends over the
/// span from the first due time to the last actual send, so a generator
/// that keeps up reads achieved / offered = 1.
struct LatenessReport {
  size_t sends = 0;
  double late_p50_ms = 0.0;
  double late_p99_ms = 0.0;
  double late_max_ms = 0.0;
  double offered_rate = 0.0;
  double achieved_rate = 0.0;
  double achieved_over_offered = 0.0;
};

inline LatenessReport SummarizeLateness(const std::vector<int64_t>& due_ns,
                                        const std::vector<int64_t>& sent_ns) {
  LatenessReport r;
  r.sends = std::min(due_ns.size(), sent_ns.size());
  if (r.sends == 0) return r;
  std::vector<double> late_ms(r.sends);
  int64_t first_due = due_ns[0], last_due = due_ns[0], last_sent = sent_ns[0];
  for (size_t i = 0; i < r.sends; ++i) {
    late_ms[i] = static_cast<double>(std::max<int64_t>(0, sent_ns[i] - due_ns[i])) * 1e-6;
    first_due = std::min(first_due, due_ns[i]);
    last_due = std::max(last_due, due_ns[i]);
    last_sent = std::max(last_sent, sent_ns[i]);
  }
  std::sort(late_ms.begin(), late_ms.end());
  r.late_p50_ms = SortedQuantile(late_ms, 0.5);
  r.late_p99_ms = SortedQuantile(late_ms, 0.99);
  r.late_max_ms = late_ms.back();
  // n sends at rate R occupy (n - 1) / R seconds.
  const double n = static_cast<double>(r.sends - 1);
  const double due_span_s = static_cast<double>(last_due - first_due) * 1e-9;
  const double sent_span_s = static_cast<double>(last_sent - first_due) * 1e-9;
  if (due_span_s > 0.0 && sent_span_s > 0.0) {
    r.offered_rate = n / due_span_s;
    r.achieved_rate = n / sent_span_s;
    r.achieved_over_offered = r.achieved_rate / r.offered_rate;
  }
  return r;
}

/// True when the backlog grew through the run: the mean of the last
/// third of the depth samples exceeds the first third's by more than
/// `slack` operations.
inline bool BacklogGrew(const std::vector<double>& depth_samples,
                        double slack) {
  const size_t third = depth_samples.size() / 3;
  if (third == 0) return false;
  double first = 0.0, last = 0.0;
  for (size_t i = 0; i < third; ++i) {
    first += depth_samples[i];
    last += depth_samples[depth_samples.size() - third + i];
  }
  return (last - first) / static_cast<double>(third) > slack;
}

// ------------------------------------------------------------ attribution

/// For a stream whose i-th push emitted `per_push[i]` m-semantics and
/// whose final flush emitted `flush_count` more, the index of the record
/// whose push completed each emission, in emission order.  Flush
/// emissions are completed by the close that follows the last record and
/// are attributed to that record (index n - 1).
inline std::vector<int32_t> CompletingRecords(const std::vector<int>& per_push,
                                              int flush_count) {
  std::vector<int32_t> out;
  for (size_t i = 0; i < per_push.size(); ++i) {
    out.insert(out.end(), static_cast<size_t>(per_push[i]),
               static_cast<int32_t>(i));
  }
  const int32_t last = per_push.empty() ? 0 : static_cast<int32_t>(per_push.size() - 1);
  out.insert(out.end(), static_cast<size_t>(std::max(flush_count, 0)), last);
  return out;
}

// ------------------------------------------------------------------ spans

/// One timed call into a layer.  `parent` is the index of the enclosing
/// span in the same recorder (-1 for none); `request` groups the spans of
/// one record.
struct Span {
  int32_t name = 0;
  int32_t parent = -1;
  int64_t request = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Per-name aggregate over a set of spans.  Self time is a span's
/// duration minus the part its child spans cover.
struct SpanStats {
  std::string name;
  size_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;
  std::vector<double> durations_ns;
};

/// Spans kept in memory, written out once the run ends.  Single writer
/// per recorder; give each thread its own.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::vector<std::string> names)
      : names_(std::move(names)) {}

  int32_t Begin(int32_t name, int32_t parent = -1, int64_t request = -1) {
    spans_.push_back({name, parent, request, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t span) { spans_[static_cast<size_t>(span)].end_ns = NowNs(); }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Aggregates by name; index i of the result is name i.
  std::vector<SpanStats> Stats() const {
    std::vector<SpanStats> out(names_.size());
    for (size_t i = 0; i < names_.size(); ++i) out[i].name = names_[i];
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      SpanStats& st = out[static_cast<size_t>(s.name)];
      const int64_t d = s.end_ns - s.start_ns;
      ++st.count;
      st.total_ns += d;
      st.self_ns += d - child_ns[i];
      st.durations_ns.push_back(static_cast<double>(d));
    }
    return out;
  }

 private:
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

/// RAII span; a null recorder records nothing (the untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, int32_t name, int32_t parent = -1,
             int64_t request = -1)
      : rec_(rec), index_(rec != nullptr ? rec->Begin(name, parent, request) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  SpanRecorder* rec_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
