#ifndef OCELOT_BENCHMARK_ORACLE_H_
#define OCELOT_BENCHMARK_ORACLE_H_

#include <map>
#include <string>
#include <vector>

#include "mal/program.h"
#include "tpch/dbgen.h"

namespace obench {

/// Reference results of the TPC-H queries, computed once on the sequential
/// engine ("seq") over the database the workload measures. Results compare
/// as in tests/tpch_test.cc: every returned column widened to double, rows
/// sorted (engines may order ties and group ids differently), each value
/// within 5e-4·|want| + 1e-2.
class Oracle {
 public:
  Oracle(const tpch::TpchDb& db, const std::vector<int>& queries);

  /// Empty when `returns` matches the reference result of `query`.
  std::string Check(int query, const std::vector<mal::Value>& returns) const;

  /// Proves the comparison can fail: the reference of one query with one
  /// value perturbed must be rejected while the unperturbed copy passes.
  /// Returns an empty string on success, else what went wrong.
  std::string SelfCheck() const;

 private:
  std::map<int, std::vector<std::vector<double>>> rows_;
};

}  // namespace obench

#endif  // OCELOT_BENCHMARK_ORACLE_H_
