// Levelwise discovery of minimal functional dependencies from data.
//
// This is the unguided baseline the paper cites as ref [12] (Mannila &
// Räihä, "Algorithms for Inferring Functional Dependencies from Relations"):
// enumerate candidate LHS sets level by level, verify each candidate FD
// against the extension by comparing partition sizes (TANE-style, over the
// table's memoized query-cache partitions), and keep only minimal
// dependencies. The DBRE method of the paper avoids this whole
// search by checking just the FDs suggested by the equi-join workload;
// experiment P3 quantifies the difference.
#ifndef DBRE_DEPS_FD_MINER_H_
#define DBRE_DEPS_FD_MINER_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "deps/fd.h"
#include "relational/table.h"

namespace dbre {

struct FdMinerOptions {
  // Maximum LHS size to explore (level cap).
  size_t max_lhs_size = 3;
  // Hard cap on verified candidates, as a runaway guard; 0 = unlimited.
  size_t max_checks = 0;
};

struct FdMinerStats {
  size_t candidates_checked = 0;  // partition-based FD verifications
  size_t partitions_built = 0;    // single-column partitions materialized
  size_t discovered = 0;
};

// Mines all minimal FDs X → a of `table` with |X| ≤ options.max_lhs_size,
// with NULL grouped as an ordinary value (two NULLs agree; FD checks
// elsewhere skip NULL-LHS rows instead). Results are sorted.
Result<std::vector<FunctionalDependency>> MineFds(
    const Table& table, const FdMinerOptions& options = {},
    FdMinerStats* stats = nullptr);

}  // namespace dbre

#endif  // DBRE_DEPS_FD_MINER_H_
