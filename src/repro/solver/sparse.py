"""CSR utilities shared by the sparse solver core.

The formulation-to-solution path (compile -> presolve -> LP relaxation
-> backend) stores constraint matrices as ``scipy.sparse`` CSR: on
catalog-scale instances the coefficient matrices are well under 1%
dense, so a dense ``O(rows x vars)`` standard form would be both the
compile-time and the memory bottleneck.  This module keeps the small
amount of CSR plumbing in one place:

* :func:`csr_from_rows` assembles a canonical CSR matrix straight from
  per-constraint ``(cols, vals)`` row fragments — one ``concatenate``,
  no intermediate dense rows;
* :func:`matrix_nbytes` / :func:`dense_equivalent_nbytes` are the byte
  accounting behind the ``solver.matrix.nbytes`` gauge and the
  service cache's LRU-by-bytes sizing;
* :func:`matrices_equal` and :func:`digest_update` give the session
  layer exact equality and content digests without densifying;
* :func:`pack_bitset` builds uint64 row-support bitsets for the
  sparse dominated-column presolve rule.

Everything here treats matrices as immutable values: canonical form
(sorted indices, no explicit zeros, no duplicates) is established at
construction and never revisited.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse as sp

__all__ = [
    "csr_from_rows",
    "dense_equivalent_nbytes",
    "digest_update",
    "matrices_equal",
    "matrix_nbytes",
    "pack_bitset",
]


def csr_from_rows(
    rows: list[tuple[np.ndarray, np.ndarray]], num_columns: int
) -> sp.csr_matrix:
    """Assemble a canonical CSR matrix from ``(cols, vals)`` fragments.

    Each fragment must already be canonical for its row: ``cols``
    strictly increasing, ``vals`` free of explicit zeros (the compile
    row memo guarantees both).  Assembly is then pure concatenation —
    ``O(nnz + rows)`` — and the result needs no ``sum_duplicates`` /
    ``sort_indices`` pass.
    """
    if not rows:
        return sp.csr_matrix((0, num_columns), dtype=np.float64)
    # A uniform int32 index dtype matters: mixing int32 indices with an
    # int64 indptr makes scipy unify (and silently copy) on every
    # construction from these arrays.
    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    np.cumsum([cols.size for cols, _ in rows], out=indptr[1:])
    if indptr[-1] == 0:
        return sp.csr_matrix((len(rows), num_columns), dtype=np.float64)
    indices = np.concatenate([cols.astype(np.int32, copy=False) for cols, _ in rows])
    data = np.concatenate([vals for _, vals in rows])
    matrix = sp.csr_matrix(
        (data, indices, indptr), shape=(len(rows), num_columns), copy=False
    )
    matrix.has_sorted_indices = True
    matrix.has_canonical_format = True
    return matrix


def matrix_nbytes(matrix: np.ndarray | sp.spmatrix) -> int:
    """Actual payload bytes of a constraint matrix or a dense vector.

    CSR cost is ``data + indices + indptr`` — what the matrix really
    occupies — not the dense ``rows x vars x 8`` its shape implies.
    The ndarray branch serves the 1-D fields of a standard form
    (``c``, the rhs vectors, the bounds).
    """
    if sp.issparse(matrix):
        return int(matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes)
    return int(matrix.nbytes)


def dense_equivalent_nbytes(matrix: sp.spmatrix) -> int:
    """Bytes a dense float64 materialization of ``matrix`` would take."""
    rows, cols = matrix.shape
    return int(rows) * int(cols) * 8


def matrices_equal(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """Exact (bitwise-value) equality of two canonical CSR matrices.

    Two canonical CSR matrices are equal iff their shapes and three
    arrays match.
    """
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def digest_update(hasher, matrix: np.ndarray | sp.spmatrix) -> None:
    """Feed a matrix's or a dense vector's exact content into a running hash.

    A CSR matrix hashes its shape, a ``csr`` tag and its canonical
    triple; the ndarray branch serves the 1-D fields of a standard
    form (``c``, the rhs vectors, the bounds), which hash shape and
    raw bytes.
    """
    hasher.update(str(matrix.shape).encode())
    if sp.issparse(matrix):
        matrix = matrix.tocsr()
        hasher.update(b"csr")
        hasher.update(np.ascontiguousarray(matrix.indptr).tobytes())
        hasher.update(np.ascontiguousarray(matrix.indices).tobytes())
        hasher.update(np.ascontiguousarray(matrix.data).tobytes())
    else:
        hasher.update(np.ascontiguousarray(matrix).tobytes())


def pack_bitset(row_lists: list[np.ndarray], num_rows: int) -> np.ndarray:
    """Pack per-column row-support sets into a uint64 bitset matrix.

    ``row_lists[k]`` holds the (active-row-local) indices where column
    ``k`` is nonzero; the result has shape ``(len(row_lists), words)``
    with bit ``r`` of word ``r // 64`` set.  The dominated-column rule
    uses these for vectorized subset tests over thousands of columns.
    """
    words = max(1, -(-num_rows // 64))
    bits = np.zeros((len(row_lists), words), dtype=np.uint64)
    for k, rows in enumerate(row_lists):
        if rows.size:
            np.bitwise_or.at(
                bits[k],
                rows // 64,
                np.uint64(1) << (rows % 64).astype(np.uint64),
            )
    return bits
