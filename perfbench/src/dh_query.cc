// dh-query: the Delivery Hero job settles 50K orders, takes a final
// checkpoint and is stopped, so nothing else runs while one closed-loop
// client runs the query classes round-robin against the snapshot state:
// the paper's Queries 1-4 (joins), a single-table GROUP BY, a filtered
// COUNT, key point lookups and 64-key direct-object reads.

#include <chrono>
#include <cmath>
#include <functional>
#include <thread>

#include "checks.h"
#include "common/clock.h"
#include "common/rng.h"
#include "dataflow/execution.h"
#include "dh/delivery.h"
#include "kv/grid.h"
#include "query/query_service.h"
#include "scenarios.h"
#include "sql/parser.h"
#include "state/snapshot_registry.h"
#include "state/squery_state_store.h"

namespace perfbench {
namespace {

constexpr int64_t kOrders = 50000;
constexpr int64_t kRiders = 5000;
// 2.5 laps of the order state machine: the first half of the orders end
// NOTIFIED, the second half VENDOR_ACCEPTED.
constexpr int64_t kEventsPerSource = kOrders * 5 / 2;
constexpr int32_t kOperatorParallelism = 2;
constexpr int kDirectKeys = 64;
// Per round, after each of Queries 1-4: kGroups GROUP BYs, kFilters
// filtered COUNTs, kPoints point lookups and kDirects direct-object reads.
// The joins take most of a round's time; the cheaper classes run often
// enough that each process's medians rest on dozens of samples or more.
constexpr int kGroups = 8;
constexpr int kFilters = 32;
constexpr int kPoints = 64;
constexpr int kDirects = 16;
// Rounds per second of --seconds (at least kMinRounds); a round takes
// about 1.3 s on the reference host.
constexpr double kRoundsPerSecond = 1.0 / 6;
constexpr int kMinRounds = 1;

constexpr char kGroupSql[] =
    "SELECT vendorCategory, COUNT(*) FROM snapshot_orderinfo "
    "GROUP BY vendorCategory";
constexpr char kFilterSql[] =
    "SELECT COUNT(*) FROM snapshot_orderstate WHERE orderState = 'NOTIFIED'";

std::string PointSql(int64_t order) {
  return "SELECT orderState, seq FROM snapshot_orderstate WHERE key = " +
         std::to_string(order);
}

/// Expected answers, computed from the dh event constructors.
struct Expected {
  GroupCounts q[4];
  GroupCounts group;
  int64_t notified = 0;
  std::vector<sq::kv::Object> state;  // by order id: orderState, seq
};

Expected Reference(const sq::dh::DeliveryConfig& config, int64_t now_micros) {
  Expected e;
  e.state.resize(static_cast<size_t>(kOrders));
  for (int64_t order = 0; order < kOrders; ++order) {
    const sq::kv::Object info =
        sq::dh::OrderInfoAt(config, order, 0, now_micros).payload;
    const int64_t last_lap = (kEventsPerSource - 1 - order) / kOrders;
    const sq::kv::Object status =
        sq::dh::OrderStatusAt(config, order + last_lap * kOrders, 0,
                              now_micros)
            .payload;
    const std::string zone = info.Get("deliveryZone").ToString();
    const std::string category = info.Get("vendorCategory").ToString();
    const std::string st = status.Get("orderState").string_value();
    e.group[category] += 1;
    if (st == "VENDOR_ACCEPTED") {
      e.q[2][zone] += 1;
      if (status.Get("lateTimestamp").AsInt64() < now_micros) e.q[0][zone] += 1;
    }
    if (st == "NOTIFIED" || st == "ACCEPTED") e.q[1][category] += 1;
    if (st == "PICKED_UP" || st == "LEFT_PICKUP" || st == "NEAR_CUSTOMER") {
      e.q[3][zone] += 1;
    }
    if (st == "NOTIFIED") ++e.notified;
    sq::kv::Object& s = e.state[static_cast<size_t>(order)];
    s.Set("orderState", status.Get("orderState"));
    s.Set("seq", status.Get("seq"));
  }
  return e;
}

GroupCounts ToCounts(const std::map<std::string, int64_t>& m) {
  GroupCounts out;
  for (const auto& [k, v] : m) {
    if (v != 0) out[k] = v;
  }
  return out;
}

/// Timings and scan counters of one query class.
struct ClassStats {
  Samples nanos;
  double cold_ms = 0;
  int64_t runs = 0;
  int64_t rows_scanned = 0;
  int64_t vectorized = 0;
  Samples parse_nanos;
};

}  // namespace

void RunDhQuery(const Plan& plan, Report* report, TraceBook* book) {
  sq::dh::DeliveryConfig config;
  config.num_orders = kOrders;
  config.num_riders = kRiders;
  config.total_events = kEventsPerSource;
  config.linger = true;
  config.seed = MixSeed(plan.seed, 7);

  // Set-up: settle the job, take the final checkpoint, stop the job.
  sq::MetricsRegistry metrics;
  sq::kv::Grid grid(sq::kv::GridConfig{});
  sq::state::SnapshotRegistry registry(
      &grid, sq::state::SnapshotRegistry::Options{.metrics = &metrics});
  {
    sq::state::SQueryConfig state_config;
    state_config.parallelism = kOperatorParallelism;
    state_config.metrics = &metrics;
    sq::dataflow::JobConfig job_config;
    job_config.checkpoint_interval_ms = 0;
    job_config.partitioner = &grid.partitioner();
    job_config.listener = &registry;
    job_config.metrics = &metrics;
    job_config.state_store_factory =
        sq::state::MakeSQueryStateStoreFactory(&grid, state_config);
    auto job = sq::dataflow::Job::Create(
        sq::dh::BuildDeliveryGraph(config, kOperatorParallelism, nullptr),
        std::move(job_config));
    if (!job.ok()) Fatal("dh job: " + job.status().ToString());
    if (sq::Status s = (*job)->Start(); !s.ok()) Fatal("dh start: " + s.ToString());
    const int64_t deadline = NowNanos() + 120'000'000'000LL;
    for (const char* v : {sq::dh::kOrderInfoVertex, sq::dh::kOrderStateVertex,
                          sq::dh::kRiderLocationVertex}) {
      while ((*job)->ProcessedCount(v) < kEventsPerSource) {
        if (NowNanos() > deadline) Fatal("dh job did not settle");
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    auto ckpt = (*job)->TriggerCheckpoint();
    if (!ckpt.ok()) Fatal("dh checkpoint: " + ckpt.status().ToString());
    if (sq::Status s = (*job)->Stop(); !s.ok()) Fatal("dh stop: " + s.ToString());
  }
  sq::query::QueryService query(&grid, &registry, nullptr, &metrics);
  report->EndToEnd(
      "setup_s",
      static_cast<double>(NowNanos() - plan.process_start_nanos) / 1e9, "s");

  // Expected answers (outside any timing).
  const int64_t now_micros = sq::UnixMicros();
  const Expected expected = Reference(config, now_micros);
  const sq::dh::DeliveryReference library =
      sq::dh::ComputeReference(config, kEventsPerSource, now_micros);
  const std::map<std::string, int64_t>* library_q[4] = {
      &library.q1_late_per_zone, &library.q2_ready_per_category,
      &library.q3_preparing_per_zone, &library.q4_transit_per_zone};
  for (int i = 0; i < 4; ++i) {
    const std::string diff = CompareGroups(ToCounts(*library_q[i]),
                                           ToCounts(expected.q[i]));
    report->Check(diff.empty(), "dh reference vs ComputeReference Q" +
                                    std::to_string(i + 1) + ": " + diff);
  }

  const std::string join_sql[4] = {sq::dh::Query1(), sq::dh::Query2(),
                                   sq::dh::Query3(), sq::dh::Query4()};
  const char* join_class[4] = {"q1", "q2", "q3", "q4"};
  std::map<std::string, ClassStats> classes;
  sq::Rng rng(MixSeed(plan.seed, 8));
  Samples resolve_nanos;

  // One SQL query of class `cls`; `check` verifies its answer.
  auto run_sql = [&](const std::string& cls, const std::string& sql,
                     bool timed, const std::function<std::string(
                                     const sq::sql::ResultSet&)>& check) {
    ClassStats& c = classes[cls];
    if (timed && book->enabled()) {
      const int64_t p0 = NowNanos();
      (void)sq::sql::ParseStatement(sql);
      c.parse_nanos.Add(NowNanos() - p0);
    }
    const int64_t t0 = NowNanos();
    sq::Result<sq::query::QueryResult> r = [&] {
      if (!timed) return query.ExecuteWithStats(sql);
      TraceBook::Call call(book, cls, "bench.execute_with_stats");
      auto res = query.ExecuteWithStats(sql);
      if (res.ok()) call.Tag(res->trace_id);
      return res;
    }();
    const int64_t t1 = NowNanos();
    if (!report->Op(r.ok() ? sq::Status::OK() : r.status(), cls.c_str())) {
      return;
    }
    if (timed) {
      c.nanos.Add(t1 - t0);
      ++c.runs;
      c.rows_scanned += r->stats.rows_scanned;
      c.vectorized += r->stats.used_vectorized ? 1 : 0;
    } else {
      c.cold_ms = static_cast<double>(t1 - t0) / 1e6;
    }
    const std::string diff = check(r->result);
    report->Check(diff.empty(), "dh " + cls + ": " + diff);
  };
  auto check_join = [&](int i) {
    return [&, i](const sq::sql::ResultSet& rs) {
      return CompareGroups(expected.q[i], ReadGroups(rs, 1, 0));
    };
  };
  auto check_group = [&](const sq::sql::ResultSet& rs) {
    return CompareGroups(expected.group, ReadGroups(rs, 0, 1));
  };
  auto check_filter = [&](const sq::sql::ResultSet& rs) {
    return rs.rows.size() != 1
               ? std::string("filter: not one row")
               : CompareCount("filter", expected.notified,
                              rs.rows[0].at(0).AsInt64());
  };
  auto run_point = [&](bool timed) {
    const int64_t order = static_cast<int64_t>(rng.NextBounded(kOrders));
    run_sql("point", PointSql(order), timed,
            [&, order](const sq::sql::ResultSet& rs) -> std::string {
              const sq::kv::Object& want =
                  expected.state[static_cast<size_t>(order)];
              if (rs.rows.size() != 1) return "point: not one row";
              if (rs.rows[0].at(0) != want.Get("orderState") ||
                  rs.rows[0].at(1) != want.Get("seq")) {
                return "point: order " + std::to_string(order) + " is " +
                       rs.rows[0].at(0).ToString();
              }
              return "";
            });
    if (timed) resolve_nanos.Add(query.last_ssid_resolve_nanos());
  };
  auto run_direct = [&](bool timed) {
    std::vector<sq::kv::Value> keys;
    KeyedObjects want;
    for (int i = 0; i < kDirectKeys; ++i) {
      const int64_t order = static_cast<int64_t>(rng.NextBounded(kOrders));
      keys.emplace_back(order);
      want[sq::kv::Value(order)] = expected.state[static_cast<size_t>(order)];
    }
    ClassStats& c = classes["direct"];
    const int64_t t0 = NowNanos();
    auto r = [&] {
      if (!timed) {
        return query.GetSnapshotObjects(sq::dh::kOrderStateVertex, keys);
      }
      TraceBook::Call call(book, "direct", "bench.get_snapshot_objects");
      return query.GetSnapshotObjects(sq::dh::kOrderStateVertex, keys);
    }();
    const int64_t t1 = NowNanos();
    if (!report->Op(r.ok() ? sq::Status::OK() : r.status(), "direct")) return;
    if (timed) {
      c.nanos.Add(t1 - t0);
      ++c.runs;
      resolve_nanos.Add(query.last_ssid_resolve_nanos());
    } else {
      c.cold_ms = static_cast<double>(t1 - t0) / 1e6;
    }
    KeyedObjects got;
    for (const auto& [k, v] : *r) got[k] = v;
    const std::string diff = CompareObjects(want, got, {"orderState", "seq"});
    report->Check(diff.empty(), "dh direct: " + diff);
  };

  // Cold pass: the first run of each class after the final checkpoint
  // builds the columnar views; it is reported on its own, not timed.
  for (int i = 0; i < 4; ++i) {
    run_sql(join_class[i], join_sql[i], false, check_join(i));
  }
  run_sql("group", kGroupSql, false, check_group);
  run_sql("filter", kFilterSql, false, check_filter);
  run_point(false);
  run_direct(false);

  const int rounds =
      std::max(kMinRounds, static_cast<int>(std::lround(
                               plan.seconds * kRoundsPerSecond)));
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < 4; ++i) {
      run_sql(join_class[i], join_sql[i], true, check_join(i));
      for (int k = 0; k < kGroups; ++k) {
        run_sql("group", kGroupSql, true, check_group);
      }
      for (int k = 0; k < kFilters; ++k) {
        run_sql("filter", kFilterSql, true, check_filter);
      }
      for (int k = 0; k < kPoints; ++k) run_point(true);
      for (int k = 0; k < kDirects; ++k) run_direct(true);
    }
  }

  Samples joins;
  for (const char* c : join_class) joins.Append(classes[c].nanos);
  report->EndToEnd("join_query_ms", joins.Median() / 1e6, "ms");
  report->EndToEnd("group_query_ms", classes["group"].nanos.Median() / 1e6,
                   "ms");
  report->EndToEnd("filter_query_ms", classes["filter"].nanos.Median() / 1e6,
                   "ms");
  report->EndToEnd("point_query_us", classes["point"].nanos.Median() / 1e3,
                   "us");
  report->EndToEnd("direct_get_us", classes["direct"].nanos.Median() / 1e3,
                   "us");
  std::fprintf(stderr, "dh-query: %lld orders, %d rounds\n",
               static_cast<long long>(kOrders), rounds);
  report->Describe("Queries 1-4", joins, 1e6, "ms");
  for (const char* c : {"group", "filter"}) {
    report->Describe(c, classes[c].nanos, 1e6, "ms");
  }
  for (const char* c : {"point", "direct"}) {
    report->Describe(c, classes[c].nanos, 1e3, "us");
  }

  for (const auto& [cls, c] : classes) {
    report->Layer("kv.cold_query_ms." + cls, c.cold_ms, "ms");
    if (cls == "direct") continue;
    const double runs = static_cast<double>(std::max<int64_t>(c.runs, 1));
    report->Layer("sql.rows_scanned_per_row." + cls,
                  static_cast<double>(c.rows_scanned) / runs /
                      static_cast<double>(kOrders),
                  "rows/row");
    report->Layer("sql.vectorized." + cls,
                  static_cast<double>(c.vectorized) / runs, "share");
    report->Layer("sql.parse_us." + cls, c.parse_nanos.Median() / 1e3, "us");
  }
  report->Layer("query.ssid_resolve_us", resolve_nanos.Mean() / 1e3, "us");
}

}  // namespace perfbench
