// Approximate minimum degree (AMD) fill-reducing ordering.
//
// Computed on the pattern of A + Aᵀ, so unsymmetric MNA systems (voltage
// source rows, driver stamps) still get a symmetric elimination order. The
// algorithm is the quotient-graph minimum-degree of Amestoy/Davis/Duff with
// element absorption and approximate external degrees — no supernode
// detection, which keeps the code small; grid-sized circuit matrices (the
// Table-1 workloads) are well inside its comfort zone.
//
// Determinism contract: ties are broken by smallest node index through an
// indexed (degree, node) min-heap, every container update is sequential,
// and no randomness or wall-clock enters — the ordering is a pure function
// of the sparsity pattern, so factorisations that share a pattern share an
// ordering bit-for-bit (the property the symbolic-reuse path relies on).
#pragma once

#include <cstddef>
#include <vector>

#include "la/sparse.hpp"

namespace ind::la {

/// Fill-reducing elimination order for the pattern of A + Aᵀ:
/// order[k] = the original row/column eliminated at step k. Requires a
/// square matrix. O(nnz · avg-degree) time, O(nnz) quotient-graph memory.
std::vector<std::size_t> amd_order(const CscMatrix& a);

}  // namespace ind::la
