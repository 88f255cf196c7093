// cluster-query: three forked NodeServer processes on loopback hold 100K
// rows shaped like `orderinfo`, loaded through ClusterClient::Apply and
// committed with RunCheckpoint. One coordinator QueryService runs a
// scan-aggregate, a GROUP BY and point lookups round-robin, plus a fixed
// number of coordinator direct-object reads per round, which fail today
// (see the README) and are counted as failed operations.

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <functional>

#include "checks.h"
#include "common/metric_names.h"
#include "common/rng.h"
#include "kv/grid.h"
#include "kv/partitioner.h"
#include "net/cluster_client.h"
#include "net/node_server.h"
#include "query/query_service.h"
#include "scenarios.h"
#include "state/snapshot_registry.h"

namespace perfbench {
namespace {

constexpr int32_t kNodes = 3;
constexpr int32_t kPartitions = sq::kv::kDefaultPartitionCount;
constexpr int64_t kRows = 100000;
constexpr int64_t kLoadChunk = 10000;
constexpr int32_t kZones = 12;
constexpr int32_t kCoordinatorNodeId = 99;
// Per round: one scan-aggregate, one GROUP BY, kPoints point lookups and
// kDirects coordinator direct-object reads of kDirectKeys keys.
constexpr int kPoints = 16;
constexpr int kDirects = 1;
constexpr int kDirectKeys = 16;
// Rounds per second of --seconds (at least kMinRounds); a round takes
// about 0.27 s on the reference host.
constexpr double kRoundsPerSecond = 2.0 / 3;
constexpr int kMinRounds = 3;

constexpr char kTable[] = "snapshot_orders";
constexpr char kScanSql[] = "SELECT COUNT(*), SUM(total) FROM snapshot_orders";
constexpr char kGroupSql[] =
    "SELECT deliveryZone, COUNT(*), SUM(total) FROM snapshot_orders "
    "GROUP BY deliveryZone";
const char* const kCategories[] = {"restaurant", "groceries", "pharmacy",
                                   "electronics", "flowers", "convenience"};
const char* const kRpcTypes[] = {"scan_partition", "aggregate_partition",
                                 "point_lookup"};

std::string PointSql(int64_t key) {
  return "SELECT total, deliveryZone, customerLat FROM snapshot_orders "
         "WHERE key = " +
         std::to_string(key);
}

sq::kv::Object RowAt(uint64_t seed, int64_t key) {
  sq::Rng rng(MixSeed(seed, static_cast<uint64_t>(key)));
  sq::kv::Object o;
  o.Set("deliveryZone",
        sq::kv::Value("zone-" + std::to_string(rng.NextBounded(kZones))));
  o.Set("vendorCategory", sq::kv::Value(kCategories[rng.NextBounded(6)]));
  o.Set("customerLat", sq::kv::Value(52.0 + rng.NextDouble()));
  o.Set("customerLon", sq::kv::Value(4.0 + rng.NextDouble()));
  o.Set("total", sq::kv::Value(static_cast<int64_t>(1 + rng.NextBounded(1000))));
  return o;
}

/// Child body: one node serving its partition range until killed.
[[noreturn]] void RunNode(int32_t node_id, bool trace, int port_fd) {
  sq::trace::TraceConfig config;
  config.enabled = trace;
  config.sample_every.fill(1);
  sq::trace::SetConfig(config);
  sq::kv::Grid grid(sq::kv::GridConfig{
      .node_count = 1, .partition_count = kPartitions, .backup_count = 0});
  sq::state::SnapshotRegistry registry(
      &grid, sq::state::SnapshotRegistry::Options{.async_prune = false});
  sq::query::QueryService query(&grid, &registry);
  query.set_node_id(node_id);
  // `__metrics` carries the node's trace.dropped_spans counter.
  query.RegisterEngineIntrospection(nullptr, sq::MetricsRegistry::Default());
  sq::net::NodeServerOptions options;
  options.node_id = node_id;
  options.owned = sq::kv::PartitionRangeOf(node_id, kNodes, kPartitions);
  options.partition_count = kPartitions;
  options.query = &query;
  options.grid = &grid;
  options.registry = &registry;
  options.checkpoint = &registry;
  sq::net::NodeServer server(options);
  if (!server.Start().ok()) _exit(2);
  const int32_t port = server.port();
  if (::write(port_fd, &port, sizeof(port)) != sizeof(port)) _exit(3);
  ::close(port_fd);
  for (;;) ::pause();
}

/// Three forked node processes and the coordinator that routes to them.
/// Forked while the benchmark has no other thread; the destructor kills
/// and reaps the nodes.
class Cluster {
 public:
  explicit Cluster(bool trace);
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  std::vector<pid_t> pids;
  sq::net::ClusterTopology topology;
  sq::MetricsRegistry metrics;  // client side
  std::unique_ptr<sq::net::ClusterClient> client;
  std::unique_ptr<sq::kv::Grid> grid;  // the coordinator's own, unused
  std::unique_ptr<sq::state::SnapshotRegistry> registry;
  std::unique_ptr<sq::query::QueryService> coordinator;
};

Cluster::Cluster(bool trace) {
  topology.partition_count = kPartitions;
  const pid_t parent = ::getpid();
  for (int32_t i = 0; i < kNodes; ++i) {
    int fds[2];
    if (::pipe(fds) != 0) Fatal("pipe");
    const pid_t pid = ::fork();
    if (pid < 0) Fatal("fork");
    if (pid == 0) {
      ::close(fds[0]);
      // Die with the benchmark, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) _exit(4);
      RunNode(i, trace, fds[1]);
    }
    ::close(fds[1]);
    pids.push_back(pid);
    int32_t port = 0;
    size_t got = 0;
    while (got < sizeof(port)) {
      const ssize_t n = ::read(fds[0], reinterpret_cast<char*>(&port) + got,
                               sizeof(port) - got);
      if (n <= 0) Fatal("node " + std::to_string(i) + " did not start");
      got += static_cast<size_t>(n);
    }
    ::close(fds[0]);
    topology.nodes.push_back(sq::net::NodeAddress{i, "127.0.0.1", port});
  }
  client = std::make_unique<sq::net::ClusterClient>(
      topology, sq::net::RpcOptions{}, &metrics);
  grid = std::make_unique<sq::kv::Grid>(sq::kv::GridConfig{
      .node_count = 1, .partition_count = kPartitions, .backup_count = 0});
  registry = std::make_unique<sq::state::SnapshotRegistry>(
      grid.get(), sq::state::SnapshotRegistry::Options{.async_prune = false});
  coordinator =
      std::make_unique<sq::query::QueryService>(grid.get(), registry.get());
  coordinator->set_node_id(kCoordinatorNodeId);
  coordinator->AttachCluster(client.get());
}

Cluster::~Cluster() {
  coordinator.reset();  // joins its scan pool before the nodes go
  client.reset();
  for (pid_t pid : pids) {
    (void)::kill(pid, SIGKILL);
    int status = 0;
    (void)::waitpid(pid, &status, 0);
  }
}

/// The nodes' span journals, read through the federated `__spans` table,
/// with each node's count of spans its journal dropped.
std::vector<ProcessSpans> CollectClusterSpans(Cluster* cluster) {
  std::vector<ProcessSpans> out;
  auto rows = cluster->coordinator->Execute(
      "SELECT node, trace_id, span_id, parent_id, name, start_nanos, "
      "duration_nanos FROM __spans");
  if (!rows.ok()) {
    std::fprintf(stderr, "federated __spans: %s\n",
                 rows.status().ToString().c_str());
    return out;
  }
  std::map<int64_t, ProcessSpans> by_node;
  for (const sq::sql::Row& r : rows->rows) {
    const int64_t node = r.at(0).AsInt64();
    if (node == kCoordinatorNodeId) continue;  // the local journal
    ProcessSpans& p = by_node[node];
    p.node = static_cast<int32_t>(node);
    sq::trace::TraceSpan s;
    s.trace_id = static_cast<uint64_t>(r.at(1).AsInt64());
    s.span_id = static_cast<uint64_t>(r.at(2).AsInt64());
    s.parent_id = static_cast<uint64_t>(r.at(3).AsInt64());
    s.start_nanos = r.at(5).AsInt64();
    s.end_nanos = s.start_nanos + r.at(6).AsInt64();
    p.spans.push_back(s);
    p.names.push_back(r.at(4).ToString());
  }
  for (auto& [node, p] : by_node) {
    auto metrics = cluster->client->FetchSystemTable("__metrics", p.node);
    if (!metrics.ok()) {
      std::fprintf(stderr, "node %d __metrics: %s\n", p.node,
                   metrics.status().ToString().c_str());
      p.dropped = -1;
    } else {
      for (const sq::kv::Object& row : metrics->rows) {
        if (row.Get("name").ToString() ==
            sq::metric_names::kTraceDroppedSpans) {
          p.dropped = row.Get("value").AsInt64();
        }
      }
    }
    out.push_back(std::move(p));
  }
  return out;
}

/// Expected answers: sums over the generated rows, and the same SQL
/// against an in-process single grid.
struct Expected {
  int64_t total_sum = 0;
  std::map<std::string, std::pair<int64_t, int64_t>> by_zone;
  std::map<std::string, sq::sql::ResultSet> one_grid;
};

Expected Reference(const std::vector<sq::kv::Object>& rows,
                   int64_t first_point) {
  Expected e;
  for (const sq::kv::Object& o : rows) {
    const int64_t t = o.Get("total").AsInt64();
    e.total_sum += t;
    auto& z = e.by_zone[o.Get("deliveryZone").string_value()];
    z.first += 1;
    z.second += t;
  }
  sq::kv::Grid local_grid(sq::kv::GridConfig{
      .node_count = 1, .partition_count = kPartitions, .backup_count = 0});
  sq::state::SnapshotRegistry local_registry(
      &local_grid, sq::state::SnapshotRegistry::Options{.async_prune = false});
  sq::kv::SnapshotTable* table = local_grid.GetOrCreateSnapshotTable(kTable);
  for (int64_t k = 0; k < kRows; ++k) {
    table->Write(1, sq::kv::Value(k), rows[static_cast<size_t>(k)]);
  }
  local_registry.OnCheckpointCommitted(1);
  sq::query::QueryService local(&local_grid, &local_registry);
  for (const auto& [cls, sql] :
       {std::pair<std::string, std::string>{"scan", kScanSql},
        {"group", kGroupSql},
        {"point", PointSql(first_point)}}) {
    auto r = local.Execute(sql);
    if (!r.ok()) Fatal("in-process reference: " + r.status().ToString());
    e.one_grid[cls] = std::move(*r);
  }
  return e;
}

struct ClassStats {
  Samples nanos;
  int64_t runs = 0;
  int64_t rpcs = 0;
  int64_t bytes_in = 0;
};


}  // namespace

void RunClusterQuery(const Plan& plan, Report* report, TraceBook* book,
                     std::vector<ProcessSpans>* remote_spans) {
  const uint64_t seed = MixSeed(plan.seed, 9);
  std::vector<sq::kv::Object> rows;
  rows.reserve(static_cast<size_t>(kRows));
  for (int64_t k = 0; k < kRows; ++k) rows.push_back(RowAt(seed, k));
  const int64_t first_point = static_cast<int64_t>(
      sq::Rng(MixSeed(plan.seed, 11)).NextBounded(kRows));
  const int rounds =
      std::max(kMinRounds, static_cast<int>(std::lround(
                               plan.seconds * kRoundsPerSecond)));
  sq::Rng rng(MixSeed(plan.seed, 10));
  Cluster cluster(plan.trace);
  sq::net::ClusterClient& client = *cluster.client;
  sq::query::QueryService& coordinator = *cluster.coordinator;

  // Set-up: load and commit through the client.
  const int64_t load0 = NowNanos();
  for (int64_t from = 0; from < kRows; from += kLoadChunk) {
    std::vector<sq::net::DeltaEntry> entries;
    for (int64_t k = from; k < std::min(kRows, from + kLoadChunk); ++k) {
      entries.push_back(sq::net::DeltaEntry{sq::kv::Value(k), false,
                                            rows[static_cast<size_t>(k)]});
    }
    if (sq::Status s = client.Apply(kTable, 1, entries); !s.ok()) {
      Fatal("cluster load: " + s.ToString());
    }
  }
  if (sq::Status s = client.RunCheckpoint(1); !s.ok()) {
    Fatal("cluster commit: " + s.ToString());
  }
  const int64_t load1 = NowNanos();
  report->EndToEnd(
      "setup_s",
      static_cast<double>(load1 - plan.process_start_nanos) / 1e9, "s");
  // Built after the timed set-up: it is the checker's work.
  const Expected expected = Reference(rows, first_point);

  auto check_scan = [&](const sq::sql::ResultSet& rs) -> std::string {
    if (rs.rows.size() != 1 || rs.rows[0].size() != 2) return "scan: shape";
    std::string d = CompareCount("scan count", kRows, rs.rows[0][0].AsInt64());
    if (d.empty()) {
      d = CompareCount("scan sum", expected.total_sum, rs.rows[0][1].AsInt64());
    }
    return d;
  };
  auto check_group = [&](const sq::sql::ResultSet& rs) -> std::string {
    GroupCounts want_count;
    GroupCounts want_sum;
    for (const auto& [zone, cs] : expected.by_zone) {
      want_count[zone] = cs.first;
      want_sum[zone] = cs.second;
    }
    std::string d = CompareGroups(want_count, ReadGroups(rs, 0, 1));
    if (d.empty()) d = CompareGroups(want_sum, ReadGroups(rs, 0, 2));
    return d;
  };
  auto check_point = [&](int64_t key, const sq::sql::ResultSet& rs)
      -> std::string {
    const sq::kv::Object& o = rows[static_cast<size_t>(key)];
    if (rs.rows.size() != 1 || rs.rows[0].size() != 3) return "point: shape";
    if (rs.rows[0][0] != o.Get("total") ||
        rs.rows[0][1] != o.Get("deliveryZone") ||
        rs.rows[0][2] != o.Get("customerLat")) {
      return "point: key " + std::to_string(key) + " differs";
    }
    return "";
  };

  std::map<std::string, sq::Counter*> rpc_counters;
  for (const char* t : kRpcTypes) {
    rpc_counters[t] = cluster.metrics.GetCounter(
        std::string(sq::metric_names::kNetClientRpcsPrefix) + t);
  }
  sq::Counter* bytes_in =
      cluster.metrics.GetCounter(sq::metric_names::kNetClientBytesIn);
  auto rpcs_now = [&] {
    int64_t n = 0;
    for (const auto& [t, counter] : rpc_counters) n += counter->Value();
    return n;
  };

  std::map<std::string, ClassStats> classes;
  auto run_sql = [&](const std::string& cls, const std::string& sql,
                     bool timed,
                     const std::function<std::string(
                         const sq::sql::ResultSet&)>& check) {
    ClassStats& s = classes[cls];
    const int64_t rpcs0 = rpcs_now();
    const int64_t bytes0 = bytes_in->Value();
    const int64_t t0 = NowNanos();
    auto r = [&] {
      if (!timed) return coordinator.ExecuteWithStats(sql);
      TraceBook::Call call(book, "cluster_" + cls,
                           "bench.execute_with_stats");
      auto res = coordinator.ExecuteWithStats(sql);
      if (res.ok()) call.Tag(res->trace_id);
      return res;
    }();
    const int64_t t1 = NowNanos();
    if (!report->Op(r.ok() ? sq::Status::OK() : r.status(),
                    ("cluster " + cls).c_str())) {
      return;
    }
    if (timed) {
      s.nanos.Add(t1 - t0);
      ++s.runs;
      s.rpcs += rpcs_now() - rpcs0;
      s.bytes_in += bytes_in->Value() - bytes0;
    } else {
      const std::string d =
          CompareResultSets(expected.one_grid.at(cls), r->result);
      report->Check(d.empty(), "cluster " + cls + " vs one grid: " + d);
    }
    const std::string d = check(r->result);
    report->Check(d.empty(), "cluster " + cls + ": " + d);
  };
  auto run_point = [&](int64_t key, bool timed) {
    run_sql("point", PointSql(key), timed,
            [&, key](const sq::sql::ResultSet& rs) {
              return check_point(key, rs);
            });
  };
  // The coordinator's direct-object read of the same committed snapshot.
  auto run_direct = [&] {
    std::vector<sq::kv::Value> keys;
    KeyedObjects want;
    for (int i = 0; i < kDirectKeys; ++i) {
      const int64_t key = static_cast<int64_t>(rng.NextBounded(kRows));
      keys.emplace_back(key);
      want[sq::kv::Value(key)] = rows[static_cast<size_t>(key)];
    }
    auto r = coordinator.GetSnapshotObjects("orders", keys);
    if (!report->Op(r.ok() ? sq::Status::OK() : r.status(),
                    "cluster coordinator GetSnapshotObjects")) {
      return;
    }
    KeyedObjects got;
    for (const auto& [k, v] : *r) got[k] = v;
    const std::string d =
        CompareObjects(want, got, {"total", "deliveryZone", "customerLat"});
    report->Check(d.empty(), "cluster direct: " + d);
  };

  // Cold pass, untimed, compared with the single grid as well.
  run_sql("scan", kScanSql, false, check_scan);
  run_sql("group", kGroupSql, false, check_group);
  run_point(first_point, false);
  for (int round = 0; round < rounds; ++round) {
    run_sql("scan", kScanSql, true, check_scan);
    run_sql("group", kGroupSql, true, check_group);
    for (int k = 0; k < kPoints; ++k) {
      run_point(static_cast<int64_t>(rng.NextBounded(kRows)), true);
    }
    for (int k = 0; k < kDirects; ++k) run_direct();
  }

  for (const char* t : kRpcTypes) {
    const sq::Histogram::State h =
        cluster.metrics
            .GetHistogram(
                std::string(sq::metric_names::kNetClientRpcNanosPrefix) + t)
            ->Snapshot();
    report->Layer(std::string("net.rpc_p50_us.") + t,
                  InterpolatedPercentile(h, 50) / 1e3, "us");
  }
  if (book->enabled()) {
    *remote_spans = CollectClusterSpans(&cluster);
    const sq::Status s = coordinator.ExportClusterTrace(plan.trace_file);
    std::fprintf(stderr, "trace: Perfetto file %s (%s)\n",
                 plan.trace_file.c_str(), s.ToString().c_str());
  }

  report->EndToEnd("cluster_scan_rows_per_s",
                   static_cast<double>(kRows) /
                       (classes["scan"].nanos.Median() / 1e9),
                   "rows/s");
  report->EndToEnd("cluster_group_query_ms",
                   classes["group"].nanos.Median() / 1e6, "ms");
  report->EndToEnd("cluster_point_query_us",
                   classes["point"].nanos.Median() / 1e3, "us");
  std::fprintf(stderr, "cluster-query: %d nodes, %lld rows, %d rounds\n",
               kNodes, static_cast<long long>(kRows), rounds);
  report->Describe("scan-aggregate", classes["scan"].nanos, 1e6, "ms");
  report->Describe("GROUP BY", classes["group"].nanos, 1e6, "ms");
  report->Describe("point", classes["point"].nanos, 1e3, "us");

  for (const auto& [cls, c] : classes) {
    const double runs = static_cast<double>(std::max<int64_t>(c.runs, 1));
    report->Layer("net.rpcs_per_query." + cls,
                  static_cast<double>(c.rpcs) / runs, "rpcs");
    report->Layer("net.bytes_in_per_query." + cls,
                  static_cast<double>(c.bytes_in) / runs, "bytes");
  }
  report->Layer("net.load_rows_per_s",
                static_cast<double>(kRows) /
                    (static_cast<double>(load1 - load0) / 1e9),
                "rows/s");
}

}  // namespace perfbench
