// q6-ingest: NEXMark query 6 over 10K sellers with S-QUERY live+snapshot
// state, aligned checkpoints on a fixed schedule and the durable snapshot
// log (fsync on commit), beside a fixed-rate client that runs the JOIN of
// the two operators' snapshot tables.
//
// Phase 1 ingests at a fixed rate well under saturation and measures
// source->sink latency. Phase 2 ingests a bounded stream unthrottled and
// measures throughput over that fixed amount of work. Every job runs over
// a fresh grid and log.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <thread>

#include "checks.h"
#include "common/metric_names.h"
#include "dataflow/execution.h"
#include "kv/grid.h"
#include "nexmark/nexmark.h"
#include "query/query_service.h"
#include "scenarios.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"
#include "storage/durable_listener.h"
#include "storage/snapshot_log.h"

namespace perfbench {
namespace {

using sq::nexmark::kAverageVertex;
using sq::nexmark::kSinkVertex;
using sq::nexmark::kWinningBidsVertex;

constexpr int64_t kSellers = 10000;
constexpr int32_t kOperatorParallelism = 2;
// Events/s in phase 1: well under the unthrottled rate, also when a shared
// 4-vCPU VM slows to about 270k ev/s (200k ev/s saturated there).
constexpr double kFixedRate = 150000;
constexpr int64_t kBoundedEvents = 600000;  // the throughput job
constexpr int64_t kCheckpointEveryNanos = 500'000'000;
constexpr int64_t kQueryEveryNanos = 100'000'000;  // 10 JOINs/s (Fig. 15)
constexpr int64_t kWarmupNanos = 500'000'000;
// The latency phase lasts this share of --seconds, warm-up included.
constexpr double kLatencyShare = 0.5;
constexpr double kMinLatencySeconds = 2;
constexpr int64_t kThroughputQueries = 12;
// Retention beyond the default two versions, so a JOIN and the COUNT(*)
// that bounds it can both read the ssid the JOIN was pinned to.
constexpr int kRetainedVersions = 4;

constexpr char kJoinSql[] =
    "SELECT COUNT(*) AS hot FROM snapshot_winningbids w JOIN snapshot_q6avg a "
    "USING(seller) WHERE maxPrice > average";
constexpr char kOpenAuctionsSql[] = "SELECT COUNT(*) FROM snapshot_winningbids";

void SleepUntil(int64_t nanos) {
  const int64_t now = NowNanos();
  if (nanos > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(nanos - now));
  }
}

/// The q6 state after `events` bids, computed here from nexmark::BidAt: the
/// last `window` closing prices of each seller, in stream order.
Q6State ReferenceQ6(const sq::nexmark::NexmarkConfig& config, int64_t events) {
  const int64_t auctions = events / config.bids_per_auction;
  std::vector<int64_t> best(static_cast<size_t>(auctions), 0);
  std::map<int64_t, std::vector<int64_t>> prices;
  for (int64_t offset = 0; offset < events; ++offset) {
    const sq::nexmark::Bid bid = sq::nexmark::BidAt(config, offset);
    int64_t& b = best[static_cast<size_t>(bid.auction_id)];
    b = std::max(b, bid.price);
    if (bid.closes_auction) prices[bid.seller_id].push_back(b);
  }
  Q6State out;
  for (const auto& [seller, list] : prices) {
    const size_t n = std::min<size_t>(list.size(),
                                      static_cast<size_t>(config.window_size));
    double sum = 0;
    for (size_t i = list.size() - n; i < list.size(); ++i) {
      sum += static_cast<double>(list[i]);
    }
    out[seller] = SellerState{static_cast<int64_t>(n),
                              sum / static_cast<double>(n)};
  }
  return out;
}

Q6State FromLibraryReference(
    const std::map<int64_t, sq::nexmark::Q6SellerState>& ref) {
  Q6State out;
  for (const auto& [seller, s] : ref) {
    out[seller] = SellerState{static_cast<int64_t>(s.last_prices.size()),
                              s.average};
  }
  return out;
}

Q6State FromObjects(
    const std::vector<std::pair<sq::kv::Value, sq::kv::Object>>& objects) {
  Q6State out;
  for (const auto& [key, value] : objects) {
    out[key.AsInt64()] = SellerState{value.Get("count").AsInt64(),
                                     value.Get("average").AsDouble()};
  }
  return out;
}

/// One q6 job with its grid, registry, durable log and instrumentation.
struct Env {
  sq::MetricsRegistry metrics;
  std::unique_ptr<sq::kv::Grid> grid;
  std::unique_ptr<sq::state::SnapshotRegistry> registry;
  std::unique_ptr<sq::storage::SnapshotLog> log;
  std::unique_ptr<sq::storage::DurableSnapshotListener> durable;
  sq::dataflow::CheckpointListenerChain chain;
  sq::state::SQueryStateStats state_stats;
  sq::Histogram latency;
  std::unique_ptr<sq::query::QueryService> query;
  std::unique_ptr<sq::dataflow::Job> job;
  std::string log_dir;
  int64_t started_nanos = 0;  // just before Job::Start

  ~Env() {
    if (job != nullptr) (void)job->Stop();
  }
};

sq::storage::StorageOptions LogOptions(const std::string& dir,
                                       sq::MetricsRegistry* metrics) {
  sq::storage::StorageOptions options;
  options.dir = dir;
  options.sync_on_commit = true;
  options.metrics = metrics;
  return options;
}

std::unique_ptr<Env> StartEnv(const sq::nexmark::NexmarkConfig& config,
                              const std::string& log_dir) {
  auto env = std::make_unique<Env>();
  env->log_dir = log_dir;
  env->grid = std::make_unique<sq::kv::Grid>(sq::kv::GridConfig{});
  sq::state::SnapshotRegistry::Options registry_options;
  registry_options.retained_versions = kRetainedVersions;
  registry_options.metrics = &env->metrics;
  env->registry = std::make_unique<sq::state::SnapshotRegistry>(
      env->grid.get(), registry_options);
  std::error_code ec;
  std::filesystem::remove_all(log_dir, ec);
  auto log = sq::storage::SnapshotLog::Open(LogOptions(log_dir, &env->metrics));
  if (!log.ok()) Fatal("snapshot log: " + log.status().ToString());
  env->log = std::move(*log);
  env->durable = std::make_unique<sq::storage::DurableSnapshotListener>(
      env->grid.get(), env->log.get());
  // The log before the registry: a snapshot is on disk before queries can
  // resolve it as the latest.
  env->chain.Add(env->durable.get());
  env->chain.Add(env->registry.get());
  env->query = std::make_unique<sq::query::QueryService>(
      env->grid.get(), env->registry.get(), nullptr, &env->metrics);
  env->query->AttachDurableStorage(env->log.get());

  sq::state::SQueryConfig state_config;
  state_config.parallelism = kOperatorParallelism;
  state_config.retained_versions = kRetainedVersions;
  state_config.metrics = &env->metrics;
  sq::dataflow::JobConfig job_config;
  job_config.checkpoint_interval_ms = 0;  // the benchmark triggers them
  job_config.partitioner = &env->grid->partitioner();
  job_config.listener = &env->chain;
  job_config.metrics = &env->metrics;
  job_config.checkpoint_mode = sq::dataflow::CheckpointMode::kAligned;
  job_config.state_store_factory = sq::state::MakeSQueryStateStoreFactory(
      env->grid.get(), state_config, &env->state_stats);
  auto job = sq::dataflow::Job::Create(
      sq::nexmark::BuildQ6Graph(config, /*source_parallelism=*/1,
                                kOperatorParallelism, &env->latency),
      std::move(job_config));
  if (!job.ok()) Fatal("q6 job: " + job.status().ToString());
  env->job = std::move(*job);
  env->started_nanos = NowNanos();
  if (sq::Status s = env->job->Start(); !s.ok()) {
    Fatal("q6 start: " + s.ToString());
  }
  return env;
}

/// What one segment measured.
struct PhaseStats {
  Samples commit_nanos;      // TriggerCheckpoint calls after warm-up
  Samples join_nanos;        // from when each JOIN was due
  Samples lateness_nanos;    // how late the client issued each JOIN
  std::vector<std::string> errors;
  int64_t attempted = 0;
  int64_t failed = 0;
  // Sampled every 10 ms after warm-up.
  std::map<std::string, double> depth_sum;
  int64_t depth_samples = 0;
  double max_source_lag_ms = 0;
  int64_t elapsed_nanos = 0;  // start -> last closing bid at q6avg
};

/// Triggers checkpoints on a fixed schedule until stopped.
void CheckpointLoop(sq::dataflow::Job* job, int64_t first_due,
                    int64_t measure_from, const std::atomic<bool>* stop,
                    PhaseStats* stats) {
  for (int64_t due = first_due; !stop->load(); due += kCheckpointEveryNanos) {
    SleepUntil(due);
    if (stop->load()) break;
    const int64_t t0 = NowNanos();
    sq::trace::ScopedSpan span(sq::trace::Category::kOther,
                               "bench.trigger_checkpoint",
                               sq::trace::RootContext(sq::trace::NewTraceId()));
    auto r = job->TriggerCheckpoint();
    const int64_t t1 = NowNanos();
    if (!r.ok()) {
      stats->errors.push_back("checkpoint: " + r.status().ToString());
      continue;
    }
    if (t0 >= measure_from) stats->commit_nanos.Add(t1 - t0);
  }
}

/// Issues `count` JOINs, one every 100 ms from `first_due`, each pinned to
/// the newest committed ssid and followed by the COUNT(*) that bounds it.
void QueryLoop(Env* env, TraceBook* book, int64_t first_due, int64_t count,
               PhaseStats* stats) {
  // The schedule starts once there is a snapshot to query.
  if (!env->registry->WaitForCommit(1, 60'000)) {
    stats->errors.push_back("checkpoint: none committed within 60 s");
    return;
  }
  first_due = std::max(first_due, NowNanos());
  for (int64_t i = 0; i < count; ++i) {
    const int64_t due = first_due + i * kQueryEveryNanos;
    SleepUntil(due);
    sq::query::QueryOptions options;
    options.snapshot_id = env->registry->latest_committed();
    options.parallelism = 1;  // one client thread, as in the paper's Fig. 15
    const int64_t issued = NowNanos();
    sq::Result<sq::query::QueryResult> join = [&] {
      TraceBook::Call call(book, "ingest_join", "bench.execute_with_stats");
      auto r = env->query->ExecuteWithStats(kJoinSql, options);
      if (r.ok()) call.Tag(r->trace_id);
      return r;
    }();
    const int64_t done = NowNanos();
    auto open = env->query->Execute(kOpenAuctionsSql, options);
    stats->attempted += 2;
    if (!join.ok()) {
      ++stats->failed;
      stats->errors.push_back("join: " + join.status().ToString());
    } else {
      stats->join_nanos.Add(done - due);
      stats->lateness_nanos.Add(issued - due);
    }
    if (!open.ok()) {
      ++stats->failed;
      stats->errors.push_back("open auctions: " + open.status().ToString());
    }
    if (join.ok() && open.ok()) {
      const std::string bound =
          CheckJoinBound(join->result.rows.at(0).at(0).AsInt64(),
                         open->rows.at(0).at(0).AsInt64());
      if (!bound.empty()) stats->errors.push_back("CHECK " + bound);
    }
  }
}

/// Runs one segment on a started job until its last closing bid reached
/// the sink, with the checkpoint schedule and the JOIN client beside it.
PhaseStats RunSegment(Env* env, TraceBook* book, int64_t events, double rate,
                      int64_t warmup, int64_t queries) {
  PhaseStats stats;
  const int64_t start = env->started_nanos;
  const int64_t closing = events / 5;
  const int64_t measure_from = start + warmup;
  std::atomic<bool> stop{false};
  std::thread checkpointer(CheckpointLoop, env->job.get(),
                           start + kCheckpointEveryNanos, measure_from, &stop,
                           &stats);
  PhaseStats query_stats;
  std::thread client(QueryLoop, env, book, measure_from + kQueryEveryNanos,
                     queries, &query_stats);
  bool reset = warmup == 0;
  const int64_t deadline = start + 120'000'000'000LL;
  while (true) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const int64_t now = NowNanos();
    if (!reset && now >= measure_from) {
      env->latency.Reset();
      reset = true;
    }
    if (env->job->ProcessedCount(kAverageVertex) >= closing &&
        stats.elapsed_nanos == 0) {
      stats.elapsed_nanos = now - start;
    }
    if (env->job->ProcessedCount(kSinkVertex) >= closing) break;
    if (now > deadline) Fatal("q6 segment did not finish");
    if (now < measure_from) continue;
    for (const sq::dataflow::OperatorStats& op :
         env->job->CollectOperatorStats()) {
      stats.depth_sum[op.vertex] += static_cast<double>(op.queue_depth);
    }
    ++stats.depth_samples;
    if (rate > 0) {
      const double scheduled = std::min(
          static_cast<double>(events),
          static_cast<double>(now - start) / 1e9 * rate);
      const double delivered = static_cast<double>(
          env->job->ProcessedCount(kWinningBidsVertex));
      stats.max_source_lag_ms = std::max(
          stats.max_source_lag_ms, (scheduled - delivered) / rate * 1e3);
    }
  }
  client.join();
  stop.store(true);
  checkpointer.join();
  stats.join_nanos = query_stats.join_nanos;
  stats.lateness_nanos = query_stats.lateness_nanos;
  stats.attempted = query_stats.attempted;
  stats.failed = query_stats.failed;
  stats.errors.insert(stats.errors.end(), query_stats.errors.begin(),
                      query_stats.errors.end());
  return stats;
}

/// The checks every segment ends with: a final committed checkpoint, then
/// exactly-once sink output, an empty winningbids, and live and snapshot
/// q6avg equal to the reference.
void CheckSegment(Env* env, const Q6State& reference, int64_t events,
                  Report* report) {
  auto final_ckpt = env->job->TriggerCheckpoint();
  report->Check(final_ckpt.ok(), "final checkpoint");
  if (!final_ckpt.ok()) return;
  const std::string sink = CompareCount(
      "sink records vs closing bids", events / 5,
      env->job->ProcessedCount(kSinkVertex));
  report->Check(sink.empty(), sink);
  auto open = env->query->ScanLiveObjects(kWinningBidsVertex);
  report->Check(open.ok() && open->empty(), "winningbids is empty at the end");
  auto live = env->query->ScanLiveObjects(kAverageVertex);
  report->Check(live.ok(), "live q6avg scan");
  if (live.ok()) {
    const std::string diff = CompareQ6(reference, FromObjects(*live));
    report->Check(diff.empty(), "live " + diff);
  }
  std::vector<sq::kv::Value> sellers;
  for (int64_t s = 0; s < kSellers; ++s) sellers.emplace_back(s);
  auto snap = env->query->GetSnapshotObjects(kAverageVertex, sellers,
                                             *final_ckpt);
  report->Check(snap.ok(), "snapshot q6avg read");
  if (snap.ok()) {
    const std::string diff = CompareQ6(reference, FromObjects(*snap));
    report->Check(diff.empty(), "snapshot " + diff);
  }
}

/// Reopens the snapshot log, replays it into a fresh grid and compares the
/// latest snapshot of every q6 table with the in-memory one.
void CheckLogReplay(Env* env, Report* report) {
  const int64_t latest = env->registry->latest_committed();
  (void)env->job->Stop();
  env->query->AttachDurableStorage(nullptr);
  env->chain = sq::dataflow::CheckpointListenerChain();
  env->durable.reset();
  env->log.reset();
  auto log = sq::storage::SnapshotLog::Open(LogOptions(env->log_dir, nullptr));
  report->Check(log.ok(), "snapshot log reopens");
  if (!log.ok()) return;
  report->Check((*log)->LatestDurable() == latest,
                "log's latest durable ssid equals memory's latest");
  sq::kv::Grid fresh(sq::kv::GridConfig{});
  auto info = (*log)->ReplayInto(&fresh, kRetainedVersions);
  report->Check(info.ok(), "snapshot log replays");
  if (!info.ok()) return;
  for (const char* vertex : {kWinningBidsVertex, kAverageVertex}) {
    const std::string table = sq::state::SnapshotTableName(vertex);
    std::map<sq::kv::Value, sq::kv::Object> memory;
    std::map<sq::kv::Value, sq::kv::Object> replayed;
    if (auto* t = env->grid->GetSnapshotTable(table)) {
      t->ScanAt(latest, [&memory](const sq::kv::Value& k, int64_t,
                                  const sq::kv::Object& v) { memory[k] = v; });
    }
    if (auto* t = fresh.GetSnapshotTable(table)) {
      t->ScanAt(latest, [&replayed](const sq::kv::Value& k, int64_t,
                                    const sq::kv::Object& v) {
        replayed[k] = v;
      });
    }
    report->Check(!memory.empty() || std::string(vertex) == kWinningBidsVertex,
                  table + " has a latest snapshot");
    report->Check(memory == replayed,
                  table + " replayed from the log equals memory (" +
                      std::to_string(replayed.size()) + " vs " +
                      std::to_string(memory.size()) + " keys)");
  }
}

/// Moves a segment's operation counts and failed checks into the report.
void MergeOps(const PhaseStats& stats, Report* report) {
  for (int64_t i = 0; i < stats.attempted - stats.failed; ++i) {
    (void)report->Op(sq::Status::OK(), "q6 query");
  }
  for (const std::string& e : stats.errors) {
    if (e.rfind("CHECK ", 0) == 0) {
      report->Check(false, e.substr(6));
    } else if (e.rfind("checkpoint", 0) == 0) {
      report->Check(false, e);
    } else {
      (void)report->Op(sq::Status::Internal(e), "q6 query");
    }
  }
}

std::unique_ptr<Env> StartSegment(const sq::nexmark::NexmarkConfig& config,
                                  const std::string& log_dir) {
  auto env = StartEnv(config, log_dir);
  auto first = env->job->TriggerCheckpoint();
  if (!first.ok()) Fatal("q6 first checkpoint: " + first.status().ToString());
  return env;
}

}  // namespace

void RunQ6Ingest(const Plan& plan, Report* report, TraceBook* book) {
  sq::nexmark::NexmarkConfig base;
  base.num_sellers = kSellers;
  base.seed = MixSeed(plan.seed, 6);
  base.linger = true;  // keep the job alive for the final checkpoint

  sq::nexmark::NexmarkConfig fixed = base;
  const double latency_s = std::max(kMinLatencySeconds,
                                    kLatencyShare * plan.seconds);
  fixed.total_events = static_cast<int64_t>(latency_s * kFixedRate) / 5 * 5;
  fixed.target_rate = kFixedRate;
  const int64_t fixed_queries = static_cast<int64_t>(
      (latency_s - static_cast<double>(kWarmupNanos) / 1e9) *
      1e9 / static_cast<double>(kQueryEveryNanos)) - 1;
  sq::nexmark::NexmarkConfig bounded = base;
  bounded.total_events = kBoundedEvents;

  Samples commit;
  Samples joins;
  Samples lateness;
  Samples phase1_ns;
  Samples phase2_ns;
  int64_t committed = 0;
  auto absorb = [&](Env* env, const PhaseStats& stats) {
    commit.Append(stats.commit_nanos);
    joins.Append(stats.join_nanos);
    lateness.Append(stats.lateness_nanos);
    for (const auto& row : env->job->RecentCheckpoints()) {
      if (!row.committed) continue;
      phase1_ns.Add(row.phase1_nanos);
      phase2_ns.Add(row.phase2_nanos);
    }
    committed += env->job->checkpoint_stats().committed.load();
    MergeOps(stats, report);
  };

  // Fixed-rate job: latency.
  sq::Histogram::State latency;
  double max_source_lag_ms = 0;
  {
    auto env = StartSegment(fixed, plan.out_dir + "/q6-latency");
    // Set-up: the job is started and its first checkpoint committed.
    report->EndToEnd(
        "setup_s",
        static_cast<double>(NowNanos() - plan.process_start_nanos) / 1e9, "s");
    PhaseStats stats = RunSegment(env.get(), book, fixed.total_events,
                                  kFixedRate, kWarmupNanos, fixed_queries);
    latency = env->latency.Snapshot();
    max_source_lag_ms = stats.max_source_lag_ms;
    CheckSegment(env.get(), ReferenceQ6(fixed, fixed.total_events),
                 fixed.total_events, report);
    absorb(env.get(), stats);
  }

  // Unthrottled bounded job: throughput. It also feeds the per-layer
  // counters and the log replay check.
  const Q6State reference = ReferenceQ6(bounded, bounded.total_events);
  const std::string cross = CompareQ6(
      FromLibraryReference(
          sq::nexmark::ComputeQ6Reference(bounded, bounded.total_events)),
      reference);
  report->Check(cross.empty(), "q6 reference vs ComputeQ6Reference: " + cross);
  auto env = StartSegment(bounded, plan.out_dir + "/q6-throughput");
  PhaseStats last =
      RunSegment(env.get(), book, bounded.total_events, /*rate=*/0,
                 /*warmup=*/0, kThroughputQueries);
  const double rate = static_cast<double>(kBoundedEvents) /
                      (static_cast<double>(last.elapsed_nanos) / 1e9);
  const std::vector<sq::dataflow::OperatorStats> ops =
      env->job->CollectOperatorStats();
  CheckSegment(env.get(), reference, bounded.total_events, report);
  absorb(env.get(), last);
  const int64_t live_puts = env->state_stats.live_puts.load();
  const int64_t snapshot_entries =
      env->state_stats.snapshot_entries_written.load();
  const int64_t last_committed = env->job->checkpoint_stats().committed.load();
  const int64_t fsync_p50 =
      env->metrics.GetHistogram(sq::metric_names::kStorageFsyncNanos)
          ->Summarize()
          .p50;
  const int64_t persisted =
      env->metrics.GetCounter(sq::metric_names::kStoragePersistedBytes)
          ->Value();
  const int64_t commits =
      env->metrics.GetCounter(sq::metric_names::kStorageCommits)->Value();
  CheckLogReplay(env.get(), report);
  env.reset();

  report->EndToEnd("ingest_events_per_s", rate, "events/s");
  report->EndToEnd("ingest_latency_p50_ms",
                   InterpolatedPercentile(latency, 50) / 1e6, "ms");
  report->EndToEnd("ingest_latency_p99_ms",
                   InterpolatedPercentile(latency, 99) / 1e6, "ms");
  report->EndToEnd("checkpoint_commit_ms", commit.Median() / 1e6, "ms");
  report->EndToEnd("ingest_query_ms", joins.Median() / 1e6, "ms");

  std::fprintf(stderr,
               "q6-ingest: %lld events at %.0f ev/s (%lld latency samples, "
               "p50 %.4g ms, p99 %.4g ms, p99.9 %.4g ms), %lld events "
               "unthrottled at %.0f ev/s\n",
               static_cast<long long>(fixed.total_events), kFixedRate,
               static_cast<long long>(latency.count),
               InterpolatedPercentile(latency, 50) / 1e6,
               InterpolatedPercentile(latency, 99) / 1e6,
               InterpolatedPercentile(latency, 99.9) / 1e6,
               static_cast<long long>(kBoundedEvents), rate);
  report->Describe("checkpoint commit", commit, 1e6, "ms");
  report->Describe("JOIN from due", joins, 1e6, "ms");

  // Per-layer.
  for (const char* v : {kWinningBidsVertex, kAverageVertex, kSinkVertex}) {
    int32_t instances = 0;
    for (const auto& op : ops) instances += op.vertex == v ? 1 : 0;
    report->Layer(std::string("dataflow.queue_depth_mean.") + v,
                  last.depth_samples == 0
                      ? 0
                      : last.depth_sum[v] /
                            static_cast<double>(last.depth_samples) /
                            std::max(instances, 1),
                  "records");
  }
  for (const char* v : {kWinningBidsVertex, kAverageVertex}) {
    double sum = 0;
    int32_t n = 0;
    for (const auto& op : ops) {
      if (op.vertex != v) continue;
      sum += static_cast<double>(op.p50_nanos);
      ++n;
    }
    report->Layer(std::string("dataflow.proc_p50_ns.") + v,
                  n == 0 ? 0 : sum / n, "ns");
  }
  report->Layer("dataflow.source_lag_ms", max_source_lag_ms, "ms");
  report->Layer("checkpoint.phase1_ms", phase1_ns.Median() / 1e6, "ms");
  report->Layer("checkpoint.phase2_ms", phase2_ns.Median() / 1e6, "ms");
  report->Layer("checkpoint.committed", static_cast<double>(committed),
                "count");
  report->Layer("state.live_puts_per_event",
                static_cast<double>(live_puts) /
                    static_cast<double>(kBoundedEvents),
                "puts/event");
  report->Layer("state.snapshot_entries_per_checkpoint",
                last_committed == 0 ? 0
                                    : static_cast<double>(snapshot_entries) /
                                          static_cast<double>(last_committed),
                "entries");
  report->Layer("storage.fsync_ms", static_cast<double>(fsync_p50) / 1e6,
                "ms");
  report->Layer("storage.bytes_per_checkpoint",
                commits == 0 ? 0
                             : static_cast<double>(persisted) /
                                   static_cast<double>(commits),
                "bytes");
  report->Layer("query.ingest_query_lateness_ms", lateness.Mean() / 1e6, "ms");
}

}  // namespace perfbench
