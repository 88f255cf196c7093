#include "bench.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  std::vector<int64_t> v = values_;
  const size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(v.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(index),
                   v.end());
  return static_cast<double>(v[index]);
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  return static_cast<double>(
             std::accumulate(values_.begin(), values_.end(), int64_t{0})) /
         static_cast<double>(values_.size());
}

double Samples::SupportedTail() const {
  double best = 0;
  for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (static_cast<double>(values_.size()) * (100.0 - p) / 100.0 >= 10.0) {
      best = p;
    }
  }
  return values_.size() < 40 ? 0 : best;
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

bool Report::Op(const sq::Status& status, const char* what) {
  ++attempted_;
  if (status.ok()) return true;
  ++failed_;
  // One line per distinct failure, not one per operation.
  const std::string line = std::string(what) + ": " + status.ToString();
  if (reported_failures_.insert(line).second) {
    std::fprintf(stderr, "operation failed: %s\n", line.c_str());
  }
  return false;
}

void Report::Describe(const char* name, const Samples& s, double scale,
                      const char* unit) const {
  const double tail = s.SupportedTail();
  if (tail > 50) {
    std::fprintf(stderr, "  %-28s n=%-7zu p50=%.4g %s  p%g=%.4g %s\n", name,
                 s.size(), s.Median() / scale, unit, tail,
                 s.Percentile(tail) / scale, unit);
  } else {
    std::fprintf(stderr, "  %-28s n=%-7zu p50=%.4g %s\n", name, s.size(),
                 s.Median() / scale, unit);
  }
}

// ---------------------------------------------------------------------------
// Tracing.

namespace {

sq::trace::TraceConfig BaseConfig(bool enabled) {
  sq::trace::TraceConfig config;
  config.enabled = enabled;
  config.sample_every.fill(1);
  return config;
}

constexpr size_t Index(sq::trace::Category c) { return static_cast<size_t>(c); }

}  // namespace

TraceBook::TraceBook(bool enabled) : enabled_(enabled) {
  sq::trace::SetConfig(BaseConfig(enabled));
}

void TraceBook::SetQueryTracing(bool on) {
  if (!enabled_) return;
  sq::trace::TraceConfig config = BaseConfig(true);
  const uint32_t every = on ? 1 : 0;
  config.sample_every[Index(sq::trace::Category::kQuery)] = every;
  config.sample_every[Index(sq::trace::Category::kNet)] = every;
  config.sample_every[Index(sq::trace::Category::kOther)] = every;
  sq::trace::SetConfig(config);
}

void TraceBook::Tag(uint64_t trace_id, const std::string& cls) {
  if (trace_id != 0) class_of_[trace_id] = cls;
}

std::string TraceBook::ClassOf(uint64_t trace_id) const {
  auto it = class_of_.find(trace_id);
  return it == class_of_.end() ? "" : it->second;
}

int64_t TraceBook::Calls(const std::string& cls) const {
  auto it = calls_.find(cls);
  return it == calls_.end() ? 0 : it->second;
}

TraceBook::Call::Call(TraceBook* book, const std::string& cls,
                      const char* span_name)
    : book_(book), cls_(cls) {
  if (!book_->enabled_ || book_->calls_[cls_] >= kCallsPerClass) return;
  ++book_->calls_[cls_];
  book_->SetQueryTracing(true);
  span_ = std::make_unique<sq::trace::ScopedSpan>(
      sq::trace::Category::kOther, span_name,
      sq::trace::RootContext(sq::trace::NewTraceId()));
  Tag(span_->context().trace_id);
}

void TraceBook::Call::Tag(uint64_t trace_id) {
  if (span_ != nullptr) book_->Tag(trace_id, cls_);
}

TraceBook::Call::~Call() {
  if (span_ == nullptr) return;
  span_.reset();
  book_->SetQueryTracing(false);
}

std::map<std::pair<std::string, std::string>, double> SelfTimesMs(
    const TraceBook& book, const std::vector<ProcessSpans>& processes,
    int64_t* checkpoint_traces) {
  using sq::trace::TraceSpan;
  std::map<std::pair<std::string, std::string>, double> out;
  // Client-side rpc.call span id -> summed durations of its remote serves.
  std::map<uint64_t, int64_t> served;
  for (const ProcessSpans& p : processes) {
    if (p.node < 0) continue;
    for (size_t i = 0; i < p.spans.size(); ++i) {
      if (p.names[i] == "rpc.serve") {
        served[p.spans[i].parent_id] += p.spans[i].duration_nanos();
      }
    }
  }
  *checkpoint_traces = 0;
  for (const ProcessSpans& p : processes) {
    std::map<uint64_t, std::vector<const TraceSpan*>> children;
    for (const TraceSpan& s : p.spans) {
      if (s.parent_id != 0) children[s.parent_id].push_back(&s);
    }
    for (size_t i = 0; i < p.spans.size(); ++i) {
      const TraceSpan& s = p.spans[i];
      const std::string& name = p.names[i];
      // Checkpoint trees use the checkpoint id as their trace id (below
      // 2^32); query and benchmark traces use ids above it.
      std::string cls;
      if (s.trace_id < (uint64_t{1} << 32)) {
        cls = "checkpoint";
        if (name == "checkpoint" && p.node < 0) ++*checkpoint_traces;
      } else {
        cls = book.ClassOf(s.trace_id);
      }
      if (cls.empty()) continue;
      // Union of the children's intervals, clipped to this span.
      std::vector<std::pair<int64_t, int64_t>> iv;
      if (auto it = children.find(s.span_id); it != children.end()) {
        for (const TraceSpan* c : it->second) {
          const int64_t a = std::max(c->start_nanos, s.start_nanos);
          const int64_t b = std::min(c->end_nanos, s.end_nanos);
          if (b > a) iv.emplace_back(a, b);
        }
      }
      std::sort(iv.begin(), iv.end());
      int64_t covered = 0;
      int64_t cur_a = 0;
      int64_t cur_b = -1;
      for (const auto& [a, b] : iv) {
        if (cur_b < a) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
      int64_t self = s.duration_nanos() - covered;
      if (p.node < 0 && name == "rpc.call") {
        if (auto it = served.find(s.span_id); it != served.end()) {
          self -= it->second;
        }
      }
      out[{cls, name}] += static_cast<double>(std::max<int64_t>(self, 0)) / 1e6;
    }
  }
  return out;
}

}  // namespace perfbench
