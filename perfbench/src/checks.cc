#include "checks.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::string CompareQ6(const Q6State& expected, const Q6State& actual) {
  if (expected.size() != actual.size()) {
    return "q6: " + std::to_string(actual.size()) + " sellers, expected " +
           std::to_string(expected.size());
  }
  for (const auto& [seller, want] : expected) {
    auto it = actual.find(seller);
    if (it == actual.end()) {
      return "q6: seller " + std::to_string(seller) + " missing";
    }
    // Averages of at most ten integer prices are exact in a double, so any
    // difference is a wrong window, not rounding.
    if (it->second.count != want.count || it->second.average != want.average) {
      return "q6: seller " + std::to_string(seller) + " has count " +
             std::to_string(it->second.count) + " average " +
             std::to_string(it->second.average) + ", expected " +
             std::to_string(want.count) + " / " +
             std::to_string(want.average);
    }
  }
  return "";
}

std::string CompareCount(const char* what, int64_t expected, int64_t actual) {
  if (expected == actual) return "";
  return std::string(what) + ": " + std::to_string(actual) + ", expected " +
         std::to_string(expected);
}

std::string CheckJoinBound(int64_t join_count, int64_t open_auctions) {
  if (join_count >= 0 && join_count <= open_auctions) return "";
  return "join: " + std::to_string(join_count) + " rows exceed the " +
         std::to_string(open_auctions) + " open auctions at its ssid";
}

GroupCounts ReadGroups(const sql::ResultSet& rs, int group_col,
                       int count_col) {
  GroupCounts out;
  for (const sql::Row& row : rs.rows) {
    if (static_cast<int>(row.size()) <= std::max(group_col, count_col)) {
      out["<short row>"] += 1;
      continue;
    }
    out[row[group_col].ToString()] += row[count_col].AsInt64();
  }
  return out;
}

std::string CompareGroups(const GroupCounts& expected,
                          const GroupCounts& actual) {
  std::map<std::string, int64_t> all = expected;
  for (const auto& [k, v] : actual) all.emplace(k, 0);
  for (const auto& [key, unused] : all) {
    auto e = expected.find(key);
    auto a = actual.find(key);
    const int64_t want = e == expected.end() ? 0 : e->second;
    const int64_t got = a == actual.end() ? 0 : a->second;
    if (want != got) {
      return "group '" + key + "': " + std::to_string(got) + ", expected " +
             std::to_string(want);
    }
  }
  return "";
}

std::string CompareObjects(const KeyedObjects& expected,
                           const KeyedObjects& actual,
                           const std::vector<std::string>& fields) {
  if (expected.size() != actual.size()) {
    return "objects: " + std::to_string(actual.size()) + " keys, expected " +
           std::to_string(expected.size());
  }
  for (const auto& [key, want] : expected) {
    auto it = actual.find(key);
    if (it == actual.end()) return "objects: key " + key.ToString() + " missing";
    for (const std::string& f : fields) {
      if (it->second.Get(f) != want.Get(f)) {
        return "objects: key " + key.ToString() + " field " + f + " is " +
               it->second.Get(f).ToString() + ", expected " +
               want.Get(f).ToString();
      }
    }
  }
  return "";
}

std::string CompareResultSets(const sql::ResultSet& expected,
                              const sql::ResultSet& actual) {
  if (expected.columns.size() != actual.columns.size()) {
    return "result: " + std::to_string(actual.columns.size()) +
           " columns, expected " + std::to_string(expected.columns.size());
  }
  if (expected.rows.size() != actual.rows.size()) {
    return "result: " + std::to_string(actual.rows.size()) +
           " rows, expected " + std::to_string(expected.rows.size());
  }
  std::vector<sql::Row> a = expected.rows;
  std::vector<sql::Row> b = actual.rows;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) {
      std::string got;
      for (const kv::Value& v : b[i]) got += v.ToString() + " ";
      return "result: row " + std::to_string(i) + " differs (" + got + ")";
    }
  }
  return "";
}

namespace {

/// "" when `right` is "" and `wrong` is not.
std::string Expect(const char* checker, const std::string& right,
                   const std::string& wrong) {
  if (!right.empty()) {
    return std::string(checker) + " rejected a right answer: " + right;
  }
  if (wrong.empty()) {
    return std::string(checker) + " accepted a wrong answer";
  }
  return "";
}

}  // namespace

std::string SelfTest() {
  std::vector<std::string> failures;
  auto note = [&failures](std::string s) {
    if (!s.empty()) failures.push_back(std::move(s));
  };

  Q6State q6{{1, {3, 250.0}}, {2, {10, 104.5}}};
  Q6State q6_wrong_avg = q6;
  q6_wrong_avg[2].average = 104.6;
  Q6State q6_wrong_window = q6;
  q6_wrong_window[1].count = 4;
  Q6State q6_missing = q6;
  q6_missing.erase(1);
  note(Expect("CompareQ6", CompareQ6(q6, q6), CompareQ6(q6, q6_wrong_avg)));
  note(Expect("CompareQ6", "", CompareQ6(q6, q6_wrong_window)));
  note(Expect("CompareQ6", "", CompareQ6(q6, q6_missing)));

  note(Expect("CompareCount", CompareCount("n", 7, 7),
              CompareCount("n", 7, 8)));
  note(Expect("CheckJoinBound", CheckJoinBound(5, 5), CheckJoinBound(6, 5)));

  sql::ResultSet groups;
  groups.columns = {"count", "zone"};
  groups.rows = {{kv::Value(int64_t{3}), kv::Value("zone-1")},
                 {kv::Value(int64_t{4}), kv::Value("zone-2")}};
  const GroupCounts want{{"zone-1", 3}, {"zone-2", 4}};
  sql::ResultSet groups_wrong = groups;
  groups_wrong.rows[1][0] = kv::Value(int64_t{5});
  sql::ResultSet groups_extra = groups;
  groups_extra.rows.push_back({kv::Value(int64_t{1}), kv::Value("zone-9")});
  note(Expect("CompareGroups", CompareGroups(want, ReadGroups(groups, 1, 0)),
              CompareGroups(want, ReadGroups(groups_wrong, 1, 0))));
  note(Expect("CompareGroups", "",
              CompareGroups(want, ReadGroups(groups_extra, 1, 0))));

  KeyedObjects objects;
  objects[kv::Value(int64_t{1})].Set("state", kv::Value("NOTIFIED"));
  objects[kv::Value(int64_t{2})].Set("state", kv::Value("ACCEPTED"));
  KeyedObjects objects_wrong = objects;
  objects_wrong[kv::Value(int64_t{2})].Set("state", kv::Value("DELIVERED"));
  KeyedObjects objects_missing = objects;
  objects_missing.erase(kv::Value(int64_t{1}));
  note(Expect("CompareObjects", CompareObjects(objects, objects, {"state"}),
              CompareObjects(objects, objects_wrong, {"state"})));
  note(Expect("CompareObjects", "",
              CompareObjects(objects, objects_missing, {"state"})));

  sql::ResultSet reordered = groups;
  std::swap(reordered.rows[0], reordered.rows[1]);
  note(Expect("CompareResultSets", CompareResultSets(groups, reordered),
              CompareResultSets(groups, groups_wrong)));
  note(Expect("CompareResultSets", "", CompareResultSets(groups, groups_extra)));

  std::string out;
  for (const std::string& f : failures) out += (out.empty() ? "" : "; ") + f;
  return out;
}

}  // namespace perfbench
