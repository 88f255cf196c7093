// perfbench: one scenario of the end-to-end benchmark of the S-QUERY
// engine, in a process of its own.
//
//   perfbench --scenario <q6-ingest|dh-query|cluster-query> --seed <n>
//             --seconds <s> --trace <0|1> [--out-dir <dir>]
//             [--trace-file <path>]
//
// Prints as its last line one JSON object with the correctness verdict,
// the operation counts and the metrics: the end-to-end ones untraced
// (--trace 0), the per-layer ones traced (--trace 1). run.py runs the
// three scenarios of a workload and merges their results; see README.md.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <unistd.h>

#include "checks.h"
#include "common/hash.h"
#include "scenarios.h"

namespace perfbench {

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  return sq::CombineHashes(sq::HashInt64(static_cast<int64_t>(seed)),
                           sq::HashInt64(static_cast<int64_t>(salt)));
}

double InterpolatedPercentile(const sq::Histogram::State& state, double p) {
  // Mirrors the bucket layout of sq::Histogram (Histogram::BucketLowerBound
  // is private): values below 64 have a bucket each; above, 32 sub-buckets
  // per power of two. Belongs behind Histogram's own interface.
  static_assert(sq::Histogram::kSubBuckets == 64,
                "InterpolatedPercentile assumes Histogram's bucket layout");
  constexpr int kSub = sq::Histogram::kSubBuckets;
  constexpr int kHalf = kSub / 2;
  auto lower = [](int index) -> double {
    if (index < kSub) return index;
    const int rel = index - kSub;
    const int shift = rel / kHalf + 1;
    const int sub = rel % kHalf + kHalf;
    return static_cast<double>(static_cast<int64_t>(sub) << shift);
  };
  if (state.count == 0) return 0;
  const double rank = p / 100.0 * static_cast<double>(state.count);
  double before = 0;
  for (size_t i = 0; i < state.buckets.size(); ++i) {
    const double c = static_cast<double>(state.buckets[i]);
    if (c > 0 && before + c >= rank) {
      const double lo = lower(static_cast<int>(i));
      const double hi = lower(static_cast<int>(i) + 1);
      const double v = lo + (rank - before) / c * (hi - lo);
      return std::clamp(v, static_cast<double>(state.min),
                        static_cast<double>(state.max));
    }
    before += c;
  }
  return static_cast<double>(state.max);
}

namespace {

constexpr const char* kScenarios[] = {"q6-ingest", "dh-query", "cluster-query"};

// Spans whose self time the traced run reports, per operation class: the
// layer boundaries each class records (the traced run lists every span it
// saw per class on stderr). The kv `lock_wait` span is recorded only when a
// key lock is contended, which these workloads never do.
struct SpanSet {
  const char* cls;
  const char* suffix;  // metric suffix; "" = none
  std::vector<const char*> spans;
};
const std::vector<const char*> kJoinSpans = {
    "parse", "plan", "scan", "partition_scan", "join", "filter", "aggregate"};
const std::vector<const char*> kAggregateSpans = {
    "parse", "plan", "scan", "partition_aggregate", "aggregate", "merge"};
const std::vector<SpanSet>& ReportedSpans() {
  static const std::vector<SpanSet> sets = {
      {"checkpoint", "",
       {"align_wait", "phase1_capture", "phase1", "phase2", "log_append",
        "fsync", "log_commit"}},
      {"q1", "q1", kJoinSpans},
      {"q2", "q2", kJoinSpans},
      {"q3", "q3", kJoinSpans},
      {"q4", "q4", kJoinSpans},
      {"group", "group", kAggregateSpans},
      {"filter", "filter", kAggregateSpans},
      {"point", "point", {"parse", "plan", "scan", "point_lookup"}},
      {"cluster_scan", "cluster_scan", {"rpc.call", "rpc.serve", "merge"}},
      {"cluster_group", "cluster_group", {"rpc.call", "rpc.serve", "merge"}},
      {"cluster_point", "cluster_point", {"rpc.call", "rpc.serve"}},
  };
  return sets;
}

void ReportTrace(const TraceBook& book, std::vector<ProcessSpans> processes,
                 bool checkpoint_spans, Report* report) {
  ProcessSpans local;
  local.spans = sq::trace::SnapshotSpans();
  for (const sq::trace::TraceSpan& s : local.spans) local.names.push_back(s.name);
  size_t total = local.spans.size();
  for (const ProcessSpans& p : processes) total += p.spans.size();
  processes.push_back(std::move(local));

  int64_t checkpoints = 0;
  const auto self = SelfTimesMs(book, processes, &checkpoints);
  // Every span name seen per class, to keep ReportedSpans honest.
  std::map<std::string, std::set<std::string>> seen;
  for (const auto& [key, ms] : self) seen[key.first].insert(key.second);
  for (const auto& [cls, names] : seen) {
    std::string line;
    for (const std::string& n : names) line += " " + n;
    std::fprintf(stderr, "  spans of %s:%s\n", cls.c_str(), line.c_str());
  }
  for (const SpanSet& set : ReportedSpans()) {
    // Report only the classes this scenario ran; checkpoint spans come from
    // q6-ingest (the dh job's one settling checkpoint is set-up).
    const bool is_checkpoint = set.cls == std::string("checkpoint");
    if (is_checkpoint && !checkpoint_spans) continue;
    const double per = is_checkpoint ? static_cast<double>(checkpoints)
                                     : static_cast<double>(book.Calls(set.cls));
    if (per == 0) continue;
    for (const char* span : set.spans) {
      auto it = self.find({set.cls, span});
      std::string name = std::string("trace.self_ms.") + span;
      if (set.suffix[0] != '\0') name += std::string(".") + set.suffix;
      report->Layer(name, it == self.end() ? 0 : it->second / per, "ms");
    }
  }
  // A remote journal that could not say how many it dropped counts as one
  // that dropped some.
  int64_t dropped = sq::trace::DroppedSpans();
  for (const ProcessSpans& p : processes) {
    dropped += std::max<int64_t>(p.dropped, 0);
  }
  const bool complete =
      dropped == 0 && std::none_of(processes.begin(), processes.end(),
                                   [](const ProcessSpans& p) {
                                     return p.dropped < 0;
                                   });
  report->Layer("trace.dropped_spans", static_cast<double>(dropped), "spans");
  report->Layer("trace.complete", complete ? 1 : 0, "bool");
  report->Layer("trace.spans", static_cast<double>(total), "spans");
  if (!complete) {
    std::fprintf(stderr, "trace: %lld spans dropped; self times incomplete\n",
                 static_cast<long long>(dropped));
  }
}

void PrintJson(const Report& report, bool trace) {
  const auto& metrics = trace ? report.per_layer() : report.end_to_end();
  std::string out = "{\"correct\": ";
  out += report.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted());
  out += ", \"failed\": " + std::to_string(report.failed());
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    out += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value +
           ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --scenario <q6-ingest|dh-query|cluster-query> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--trace-file <path>]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const int64_t process_start = NowNanos();
  std::string scenario;
  Plan plan;
  plan.process_start_nanos = process_start;
  std::string out_dir = ".bench_out";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--scenario") {
      scenario = value;
    } else if (flag == "--seed") {
      plan.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      plan.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      plan.trace = value == "1";
    } else if (flag == "--out-dir") {
      out_dir = value;
    } else if (flag == "--trace-file") {
      plan.trace_file = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 == 0 || plan.seconds <= 0 ||
      std::find(std::begin(kScenarios), std::end(kScenarios), scenario) ==
          std::end(kScenarios)) {
    return Usage();
  }
  if (plan.trace_file.empty()) {
    plan.trace_file = out_dir + "/" + scenario + ".trace.json";
  }
  plan.out_dir = out_dir + "/run-" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(plan.out_dir, ec);
  if (ec) Fatal("cannot create " + plan.out_dir + ": " + ec.message());

  TraceBook book(plan.trace);
  book.SetQueryTracing(false);
  Report report;
  const std::string self_test = SelfTest();
  report.Check(self_test.empty(), "checker self-test: " + self_test);

  std::vector<ProcessSpans> remote_spans;
  if (scenario == "q6-ingest") {
    RunQ6Ingest(plan, &report, &book);
  } else if (scenario == "dh-query") {
    RunDhQuery(plan, &report, &book);
  } else {
    RunClusterQuery(plan, &report, &book, &remote_spans);
  }
  if (plan.trace) {
    if (scenario != "cluster-query") {
      const sq::Status s = sq::trace::ExportChromeJson(plan.trace_file);
      std::fprintf(stderr, "trace: Perfetto file %s (%s)\n",
                   plan.trace_file.c_str(), s.ToString().c_str());
    }
    ReportTrace(book, std::move(remote_spans), scenario == "q6-ingest",
                &report);
  }
  std::filesystem::remove_all(plan.out_dir, ec);

  for (const auto* metrics : {&report.end_to_end(), &report.per_layer()}) {
    for (const auto& [name, m] : *metrics) {
      std::fprintf(stderr, "  %-44s %14.6g %s\n", name.c_str(), m.value,
                   m.unit.c_str());
    }
  }
  PrintJson(report, plan.trace);
  return 0;
}
