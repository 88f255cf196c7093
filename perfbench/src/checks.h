// Correctness checkers. Each compares an answer of the program with an
// expected answer the benchmark computed on its own, and returns an empty
// string when they agree or a description of the first difference.
// SelfTest feeds every checker a deliberately wrong answer and fails unless
// each one is rejected.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "kv/object.h"
#include "kv/value.h"
#include "sql/result_set.h"

namespace perfbench {

namespace kv = sq::kv;
namespace sql = sq::sql;

/// q6 state of one seller: closed auctions in its window and their average.
struct SellerState {
  int64_t count = 0;
  double average = 0;
};
using Q6State = std::map<int64_t, SellerState>;

std::string CompareQ6(const Q6State& expected, const Q6State& actual);

/// Exact equality of two counts (sink records vs closing bids, COUNT(*)).
std::string CompareCount(const char* what, int64_t expected, int64_t actual);

/// A JOIN of snapshot_winningbids with snapshot_q6avg pinned to one ssid
/// yields at most one row per open auction at that ssid.
std::string CheckJoinBound(int64_t join_count, int64_t open_auctions);

/// Per-group counts of a GROUP BY answer, read from `rs` as (group column,
/// count column) and compared with `expected` (absent group = count 0).
using GroupCounts = std::map<std::string, int64_t>;
GroupCounts ReadGroups(const sql::ResultSet& rs, int group_col, int count_col);
std::string CompareGroups(const GroupCounts& expected,
                          const GroupCounts& actual);

/// Objects by key: every expected key present with equal `fields`, and no
/// key the expectation does not name.
using KeyedObjects = std::map<kv::Value, kv::Object>;
std::string CompareObjects(const KeyedObjects& expected,
                           const KeyedObjects& actual,
                           const std::vector<std::string>& fields);

/// Row-for-row equality of two result sets after sorting their rows.
std::string CompareResultSets(const sql::ResultSet& expected,
                              const sql::ResultSet& actual);

/// Runs every checker on a right and a wrong answer; returns "" when each
/// accepts the right one and rejects the wrong one.
std::string SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
