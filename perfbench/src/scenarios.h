// The three scenarios the workloads are made of. A workload runs each of
// them in several processes of its own, the same in every workload, so
// that every run reports every metric; run.py merges their results.

#ifndef PERFBENCH_SCENARIOS_H_
#define PERFBENCH_SCENARIOS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "common/histogram.h"

namespace perfbench {

/// NEXMark q6 ingest with checkpoints and a JOIN client beside it.
void RunQ6Ingest(const Plan& plan, Report* report, TraceBook* book);

/// Delivery Hero snapshot queries against a settled, stopped job.
void RunDhQuery(const Plan& plan, Report* report, TraceBook* book);

/// Coordinator queries over three forked NodeServer processes on loopback.
/// Traced runs return the nodes' spans and dropped-span counts in
/// `remote_spans` and write the merged Perfetto file themselves.
void RunClusterQuery(const Plan& plan, Report* report, TraceBook* book,
                     std::vector<ProcessSpans>* remote_spans);

/// Percentile of a histogram's raw state, interpolated linearly inside the
/// bucket that holds the rank. The histogram itself reports bucket bounds,
/// which would read the same in run after run and hide small changes.
double InterpolatedPercentile(const sq::Histogram::State& state, double p);

/// Seed mixing shared by the input generators.
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// Exits with an error (no result line) when set-up cannot proceed.
[[noreturn]] void Fatal(const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_SCENARIOS_H_
