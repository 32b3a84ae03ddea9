"""Combinatorial tables for exterior algebra in fixed low dimension.

A k-form on R^n is stored densely over the C(n, k) strictly increasing
multi-indices, ordered as itertools.combinations emits them.  Everything here
is a cached integer/float table, or a kernel that reads one and broadcasts
over leading batch axes.

The dense structure tensors (wedge_tensor, contraction_tensor) are almost all
zeros, so the bilinear kernels (forms.wedge, forms.contract and moser's
Pfaffian solve) read only their nonzero terms, as the signed gather tables
(left, right, sign) of wedge_terms and contraction_terms.  Each table has
shape (n_out, m), every output collecting the same number m of terms, and
signed_gather reads output K of x and y as
sum_m sign[K, m] x[left[K, m]] y[right[K, m]]: one gathered product and one
signed sum.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, permutations
from math import comb

import numpy as np


def ncomp(dim: int, k: int) -> int:
    return comb(dim, k)


@lru_cache(maxsize=None)
def index_sets(dim: int, k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(combinations(range(dim), k))


@lru_cache(maxsize=None)
def index_rank(dim: int, k: int) -> dict:
    return {s: p for p, s in enumerate(index_sets(dim, k))}


def _cross_inversions(left, right) -> int:
    return sum(1 for i in left for j in right if i > j)


@lru_cache(maxsize=None)
def wedge_tensor(dim: int, k: int, l: int) -> np.ndarray:
    """Structure constants S with (a ^ b)_K = S[I, J, K] a_I b_J."""
    if k + l > dim:
        raise ValueError("degree of wedge exceeds dimension")
    rank_out = index_rank(dim, k + l)
    S = np.zeros((ncomp(dim, k), ncomp(dim, l), ncomp(dim, k + l)))
    for ia, I in enumerate(index_sets(dim, k)):
        set_i = set(I)
        for jb, J in enumerate(index_sets(dim, l)):
            if set_i & set(J):
                continue
            sign = -1.0 if _cross_inversions(I, J) % 2 else 1.0
            S[ia, jb, rank_out[tuple(sorted(I + J))]] = sign
    return S


@lru_cache(maxsize=None)
def contraction_tensor(dim: int, k: int) -> np.ndarray:
    """Table C with (iota_v a)_J = v^i a_I C[i, I, J]."""
    if k < 1:
        raise ValueError("cannot contract a 0-form")
    rank_out = index_rank(dim, k - 1)
    C = np.zeros((dim, ncomp(dim, k), ncomp(dim, k - 1)))
    for pk, K in enumerate(index_sets(dim, k)):
        for pos, i in enumerate(K):
            J = K[:pos] + K[pos + 1:]
            C[i, pk, rank_out[J]] = -1.0 if pos % 2 else 1.0
    return C


def _gather_terms(T: np.ndarray) -> tuple:
    """The nonzero terms of a structure tensor T[left, right, out], grouped
    by output as signed gather tables (left, right, sign), each of shape
    (n_out, m); within an output they run in increasing (left, right)
    order. T must give every output the same number m of terms."""
    left, right, out = np.nonzero(T)
    sign = T[left, right, out]
    order = np.argsort(out, kind="stable")
    tables = tuple(a[order].reshape(T.shape[2], -1)
                   for a in (left, right, sign))
    for a in tables:
        a.flags.writeable = False   # cached: shared by every caller
    return tables


@lru_cache(maxsize=None)
def wedge_terms(dim: int, k: int, l: int) -> tuple:
    """Gather tables of the wedge of a k-form and an l-form: each of the
    C(dim, k + l) outputs collects C(k + l, k) terms."""
    return _gather_terms(wedge_tensor(dim, k, l))


@lru_cache(maxsize=None)
def contraction_terms(dim: int, k: int) -> tuple:
    """Gather tables of iota_v a for a vector v (left) and a k-form a
    (right): each of the C(dim, k - 1) outputs collects dim - k + 1 terms."""
    return _gather_terms(contraction_tensor(dim, k))


def signed_gather(x: np.ndarray, y: np.ndarray, terms: tuple) -> np.ndarray:
    """sum_m sign[K, m] x[..., left[K, m]] y[..., right[K, m]] over the
    gather tables terms = (left, right, sign), broadcasting x and y."""
    left, right, sign = terms
    return np.einsum("...km,km->...k", x[..., left] * y[..., right], sign)


@lru_cache(maxsize=None)
def star_arrays(dim: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Euclidean Hodge star as a gather: (*a)[q] = sign[q] * a[perm[q]]."""
    rank_in = index_rank(dim, k)
    out_sets = index_sets(dim, dim - k)
    perm = np.empty(len(out_sets), dtype=np.intp)
    sign = np.empty(len(out_sets))
    for q, C in enumerate(out_sets):
        I = tuple(i for i in range(dim) if i not in C)
        perm[q] = rank_in[I]
        sign[q] = -1.0 if _cross_inversions(I, C) % 2 else 1.0
    return perm, sign


@lru_cache(maxsize=None)
def _subset_array(dim: int, k: int) -> np.ndarray:
    return np.array(index_sets(dim, k), dtype=np.intp).reshape(ncomp(dim, k), k)


def _det3(H: np.ndarray) -> np.ndarray:
    """Cofactor determinant of a batch of 3x3 matrices, in H's own dtype
    (LAPACK has no extended-precision path)."""
    return (H[..., 0, 0] * (H[..., 1, 1] * H[..., 2, 2]
                            - H[..., 1, 2] * H[..., 2, 1])
            - H[..., 0, 1] * (H[..., 1, 0] * H[..., 2, 2]
                              - H[..., 1, 2] * H[..., 2, 0])
            + H[..., 0, 2] * (H[..., 1, 0] * H[..., 2, 1]
                              - H[..., 1, 1] * H[..., 2, 0]))


def compound_matrix(L: np.ndarray, k: int) -> np.ndarray:
    """k-th compound: C[..., P, Q] = det(L[rows P, cols Q]) over index sets."""
    dim = L.shape[-1]
    if k == 0:
        return np.ones(L.shape[:-2] + (1, 1), dtype=L.dtype)
    rows = _subset_array(dim, k)
    nk = rows.shape[0]
    r_idx = rows[:, None, :, None]          # (nk, 1, k, 1)
    c_idx = rows[None, :, None, :]          # (1, nk, 1, k)
    sub = L[..., r_idx, c_idx]              # (..., nk, nk, k, k)
    if k == 1:
        return sub[..., 0, 0]
    if k == 2:
        return sub[..., 0, 0] * sub[..., 1, 1] - sub[..., 0, 1] * sub[..., 1, 0]
    if k == 3:
        return _det3(sub)
    return np.linalg.det(sub)


@lru_cache(maxsize=None)
def _perm_table(k: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    out = []
    for p in permutations(range(k)):
        inv = sum(1 for a in range(k) for b in range(a + 1, k) if p[a] > p[b])
        out.append((p, -1 if inv % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def _tensor_gather(dim: int, k: int) -> np.ndarray:
    """coeffs_to_tensor as a gather from [a, 0, -a]: T.flat[q] = ext[idx[q]]."""
    n = ncomp(dim, k)
    idx = np.full((dim,) * k, n, dtype=np.intp)
    for p, K in enumerate(index_sets(dim, k)):
        for perm, sign in _perm_table(k):
            idx[tuple(K[q] for q in perm)] = p if sign > 0 else n + 1 + p
    return idx.ravel()


def coeffs_to_tensor(coeffs: np.ndarray, dim: int, k: int) -> np.ndarray:
    """Expand increasing-index storage to the full antisymmetric array."""
    lead = coeffs.shape[:-1]
    ext = np.concatenate(
        (coeffs, np.zeros(lead + (1,), coeffs.dtype), -coeffs), axis=-1)
    return np.take(ext, _tensor_gather(dim, k), axis=-1).reshape(
        lead + (dim,) * k)


@lru_cache(maxsize=None)
def _coeff_positions(dim: int, k: int) -> np.ndarray:
    """Flat position of each increasing multi-index in a (dim,)*k array."""
    return np.ravel_multi_index(_subset_array(dim, k).T, (dim,) * k)


def tensor_to_coeffs(T: np.ndarray, dim: int, k: int) -> np.ndarray:
    """Read increasing-index coefficients back off a k-index array."""
    lead = T.shape[:T.ndim - k]
    return np.take(T.reshape(lead + (dim ** k,)), _coeff_positions(dim, k),
                   axis=-1)
