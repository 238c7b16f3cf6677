#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.h"
#include "mal/interp.h"
#include "tpch/queries.h"

namespace obench {

namespace {

using Rows = std::vector<std::vector<double>>;

Rows Canonicalize(const std::vector<mal::Value>& returns) {
  std::size_t nrows = 0;
  std::vector<std::vector<double>> columns;
  for (const mal::Value& v : returns) {
    std::vector<double> col;
    if (std::holds_alternative<double>(v)) {
      col.push_back(std::get<double>(v));
    } else if (std::holds_alternative<std::int64_t>(v)) {
      col.push_back(static_cast<double>(std::get<std::int64_t>(v)));
    } else if (std::holds_alternative<cstore::BatPtr>(v)) {
      const cstore::BatPtr& b = std::get<cstore::BatPtr>(v);
      col.reserve(b->size());
      switch (b->type()) {
        case cstore::ValType::kInt:
          for (auto x : b->ints()) col.push_back(x);
          break;
        case cstore::ValType::kFloat:
          for (auto x : b->floats()) col.push_back(x);
          break;
        case cstore::ValType::kOid:
          for (auto x : b->oids()) col.push_back(static_cast<double>(x));
          break;
      }
    }
    nrows = std::max(nrows, col.size());
    columns.push_back(std::move(col));
  }
  Rows rows(nrows);
  for (const auto& col : columns) {
    for (std::size_t i = 0; i < nrows; ++i) {
      rows[i].push_back(i < col.size() ? col[i] : 0);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Empty when `got` matches `want`; otherwise the first difference.
std::string Mismatch(const Rows& want, const Rows& got) {
  std::ostringstream out;
  if (want.size() != got.size()) {
    out << want.size() << " rows expected, " << got.size() << " returned";
    return out.str();
  }
  for (std::size_t r = 0; r < want.size(); ++r) {
    if (want[r].size() != got[r].size()) {
      out << "row " << r << ": " << want[r].size() << " columns expected, "
          << got[r].size() << " returned";
      return out.str();
    }
    for (std::size_t c = 0; c < want[r].size(); ++c) {
      double tol = std::abs(want[r][c]) * 5e-4 + 1e-2;
      // Written so that a NaN on either side counts as a mismatch.
      if (!(std::abs(want[r][c] - got[r][c]) <= tol)) {
        out << "row " << r << " col " << c << ": expected " << want[r][c]
            << ", got " << got[r][c];
        return out.str();
      }
    }
  }
  return "";
}

}  // namespace

Oracle::Oracle(const tpch::TpchDb& db, const std::vector<int>& queries) {
  auto session = mal::Session::Open("seq");
  OCELOT_CHECK(session.ok()) << session.status().ToString();
  for (int q : queries) {
    auto plan = tpch::BuildQuery(q, db);
    OCELOT_CHECK(plan.ok()) << "Q" << q << ": " << plan.status().ToString();
    auto res = mal::Run(*plan, db.catalog, session->get());
    OCELOT_CHECK(res.ok()) << "oracle Q" << q << ": " << res.status().ToString();
    rows_[q] = Canonicalize(res->returns);
  }
}

std::string Oracle::Check(int query, const std::vector<mal::Value>& returns) const {
  auto it = rows_.find(query);
  if (it == rows_.end()) return "no reference result";
  return Mismatch(it->second, Canonicalize(returns));
}

std::string Oracle::SelfCheck() const {
  for (const auto& [q, want] : rows_) {
    if (want.empty() || want[0].empty()) continue;
    if (std::string m = Mismatch(want, want); !m.empty()) {
      return "Q" + std::to_string(q) + " differs from itself: " + m;
    }
    Rows perturbed = want;
    double& v = perturbed[0][0];
    v += 2 * (std::abs(v) * 5e-4 + 1e-2);
    if (Mismatch(want, perturbed).empty()) {
      return "Q" + std::to_string(q) + " with a perturbed value still passes";
    }
    return "";
  }
  return "every reference result is empty";
}

}  // namespace obench
