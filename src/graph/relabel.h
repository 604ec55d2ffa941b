#ifndef CAD_GRAPH_RELABEL_H_
#define CAD_GRAPH_RELABEL_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "linalg/sparse_matrix.h"

namespace cad {

/// \brief A node permutation with its inverse.
///
/// `new_id[i]` is the solver-space position of original node i, and
/// `old_id[p]` is the original node stored at solver-space position p
/// (old_id[new_id[i]] == i). The permutation is a *private memory layout*
/// of the solver: everything observable — right-hand sides, embeddings,
/// scores, reports — is stated in original ids, and the contract is that a
/// relabeled solve replays the exact floating-point operation sequence of
/// the unrelabeled solve (see PermuteCsrRows and
/// CgSolveContext::reduction_order), so results are bit-identical, not
/// merely close.
struct Relabeling {
  std::vector<uint32_t> new_id;
  std::vector<uint32_t> old_id;

  size_t size() const { return new_id.size(); }
};

/// \brief Degree-descending relabeling: position 0 gets the highest-degree
/// node (unweighted degree; ties broken by ascending original id, so the
/// permutation is deterministic). On power-law graphs this packs the hub
/// rows — the ones nearly every SpMM gather touches — into a contiguous
/// cache-resident prefix of the solution block.
Relabeling DegreeOrderRelabeling(const WeightedGraph& graph);

/// \brief Applies `relabeling` to both axes of a square CSR matrix while
/// preserving each row's *stored entry order* (new row new_id[i] holds
/// original row i's entries, in original storage order, with columns mapped
/// through new_id).
///
/// Preserving stored order is the whole point: a CSR row sweep accumulates
/// in storage order, so the permuted matrix reproduces every per-row
/// partial-sum sequence of the original bit for bit. The price is that the
/// permuted matrix's rows are no longer column-sorted; it is constructed
/// with CsrMatrix's unsorted-rows tag and only valid for kernels documented
/// to work in stored order (Multiply*, Diagonal). Requires a square matrix
/// matching the relabeling's size.
CsrMatrix PermuteCsrRows(const CsrMatrix& matrix,
                         const Relabeling& relabeling);

}  // namespace cad

#endif  // CAD_GRAPH_RELABEL_H_
