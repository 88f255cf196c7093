// Shared vocabulary of the benchmark driver: the run plan, the report every
// scenario writes its metrics and operation counts into, sample sets, and
// the tracing bookkeeping of traced runs.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "trace/trace.h"

namespace perfbench {

inline int64_t NowNanos() { return sq::trace::NowNanos(); }

/// What one scenario is asked to do.
struct Plan {
  /// Sizes the scenario's timed work; the same in every workload.
  double seconds = 10;
  uint64_t seed = 1;
  bool trace = false;
  /// Directory for run-time files (snapshot logs); inside the checkout.
  std::string out_dir;
  /// Perfetto file of a traced run.
  std::string trace_file;
  /// Process start, for `setup_s`: the time from it until the scenario's
  /// first measurement could start.
  int64_t process_start_nanos = 0;
};

/// Timings of one operation class, in nanoseconds.
class Samples {
 public:
  void Add(int64_t nanos) { values_.push_back(nanos); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile, p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  double Mean() const;
  /// Highest of 50/90/99/99.9/99.99 with at least ten samples beyond it
  /// (0 when fewer than forty samples: report the median alone).
  double SupportedTail() const;

 private:
  std::vector<int64_t> values_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything a run reports.
class Report {
 public:
  void EndToEnd(const std::string& name, double value, const char* unit) {
    end_to_end_[name] = Metric{value, unit};
  }
  void Layer(const std::string& name, double value, const char* unit) {
    per_layer_[name] = Metric{value, unit};
  }
  /// Records a correctness verdict; a false one makes the run incorrect.
  void Check(bool ok, const std::string& what);
  /// Counts one attempted operation; a non-OK status counts as failed.
  /// Returns `status.ok()`.
  bool Op(const sq::Status& status, const char* what);
  /// Prints a timing summary line to stderr: median, tail and sample count.
  void Describe(const char* name, const Samples& s, double scale,
                const char* unit) const;

  const std::map<std::string, Metric>& end_to_end() const {
    return end_to_end_;
  }
  const std::map<std::string, Metric>& per_layer() const { return per_layer_; }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> per_layer_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  bool correct_ = true;
  std::set<std::string> reported_failures_;
};

/// Bookkeeping of traced runs. Untraced runs switch tracing off for the
/// whole process; traced runs record the checkpoint, storage and kv spans
/// the engine emits on its own, and query/net spans only for a bounded
/// number of calls per operation class, so the span journal never evicts.
class TraceBook {
 public:
  /// Calls of one class traced per run.
  static constexpr int kCallsPerClass = 6;

  explicit TraceBook(bool enabled);
  bool enabled() const { return enabled_; }

  /// Remembers that the program's trace `trace_id` belongs to `cls`.
  void Tag(uint64_t trace_id, const std::string& cls);
  /// Class of a trace id ("" if untagged).
  std::string ClassOf(uint64_t trace_id) const;
  /// Traced calls of `cls` (the divisor of its per-call self times).
  int64_t Calls(const std::string& cls) const;

  /// One benchmark span around a call into a layer's public function.
  /// Whether query and net spans are recorded is decided per call: the
  /// first kCallsPerClass timed calls of each class are traced.
  class Call {
   public:
    Call(TraceBook* book, const std::string& cls, const char* span_name);
    ~Call();
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;
    /// Tags the program's own trace id of this call (e.g. a query's).
    void Tag(uint64_t trace_id);

   private:
    TraceBook* book_;
    std::string cls_;
    std::unique_ptr<sq::trace::ScopedSpan> span_;
  };

  /// Switches query and net spans on or off (traced runs only; off
  /// between traced calls).
  void SetQueryTracing(bool on);

 private:
  bool enabled_;
  std::map<uint64_t, std::string> class_of_;
  std::map<std::string, int64_t> calls_;
};

/// Spans of one process, with the node id they came from (-1 = local).
struct ProcessSpans {
  int32_t node = -1;
  std::vector<sq::trace::TraceSpan> spans;
  /// Names of remote spans (TraceSpan::name is a static string locally).
  std::vector<std::string> names;
  /// Spans the remote journal dropped (-1: unknown); local drops come from
  /// trace::DroppedSpans().
  int64_t dropped = 0;
};

/// Self time of every span (its duration minus the part of its interval
/// covered by its children), summed by (class, span name). Checkpoint
/// trees are filed under class "checkpoint"; remote `rpc.serve` spans are
/// subtracted from their client-side `rpc.call` parents by duration.
std::map<std::pair<std::string, std::string>, double> SelfTimesMs(
    const TraceBook& book, const std::vector<ProcessSpans>& processes,
    int64_t* checkpoint_traces);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
