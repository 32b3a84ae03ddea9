"""Exact-arithmetic reference implementations used to check the numeric core.

Forms are dicts mapping strictly increasing index tuples to exact Python
scalars (int / Fraction / complex with integer parts).  Everything here is
written against the definitions directly, with no shared code or precomputed
tables, so agreement with the package is meaningful.
"""

import random
from fractions import Fraction
from itertools import combinations


def perm_sign(perm):
    """Sign of the permutation sorting ``perm``; 0 if entries repeat."""
    perm = list(perm)
    if len(set(perm)) != len(perm):
        return 0
    inv = 0
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                inv += 1
    return -1 if inv % 2 else 1


def o_wedge(a, b):
    out = {}
    for I, ca in a.items():
        for J, cb in b.items():
            s = perm_sign(I + J)
            if s == 0:
                continue
            K = tuple(sorted(I + J))
            out[K] = out.get(K, 0) + s * ca * cb
    return {k: v for k, v in out.items() if v != 0}


def o_contract(i, a):
    """Interior product with the i-th coordinate vector."""
    out = {}
    for I, c in a.items():
        if i not in I:
            continue
        p = I.index(i)
        J = I[:p] + I[p + 1:]
        out[J] = out.get(J, 0) + (-1) ** p * c
    return {k: v for k, v in out.items() if v != 0}


def o_star_euclid(a, dim):
    """Euclidean Hodge star for the standard metric and orientation."""
    out = {}
    for I, c in a.items():
        comp = tuple(j for j in range(dim) if j not in I)
        out[comp] = out.get(comp, 0) + perm_sign(I + comp) * c
    return {k: v for k, v in out.items() if v != 0}


def o_eval(a, vectors):
    """Evaluate a k-form dict on a list of k vectors (exact)."""
    k = len(vectors)
    total = 0
    for I, c in a.items():
        for perm in _perms(list(I)):
            s = perm_sign(perm)
            term = c * s
            for slot, idx in enumerate(perm):
                term *= vectors[slot][idx]
            total += term
    return total


def _perms(items):
    if len(items) <= 1:
        yield tuple(items)
        return
    for i in range(len(items)):
        rest = items[:i] + items[i + 1:]
        for tail in _perms(rest):
            yield (items[i],) + tail


def o_pullback(L, a, dim):
    """(L^* a)(v1..vk) = a(L v1, .., L vk) for an exact matrix L (rows L[i])."""
    out = {}
    for J in combinations(range(dim), len(next(iter(a)))) if a else []:
        vecs = [[L[r][j] for r in range(dim)] for j in J]
        val = o_eval(a, vecs)
        if val != 0:
            out[J] = val
    return out


def to_kform(d, dim, k):
    from cyglue.forms import KForm
    comps = {}
    for I, c in d.items():
        if isinstance(c, complex):
            comps[I] = complex(c)
        else:
            comps[I] = float(c)
    return KForm.from_components(dim, k, comps)


def from_kform(a):
    """KForm -> dict with float coefficients, dropping exact zeros."""
    from itertools import combinations as comb
    out = {}
    for I, c in zip(comb(range(a.dim), a.degree), a.coeffs):
        if c != 0:
            out[I] = complex(c) if a.is_complex else float(c)
    return out


def rand_exact_form(rng, dim, k, lo=-3, hi=3):
    """Dense small-integer k-form, exact in float arithmetic."""
    out = {}
    for I in combinations(range(dim), k):
        c = int(rng.integers(lo, hi + 1))
        if c:
            out[I] = c
    return out


def l2_implies_ledger_on_draws(n_trials, seed):
    """Whether the L2 family of Theorem 5.2's ledger implies the other
    eight inequalities on n_trials seeded random admissible rational
    (nu, lam, alpha), kappa being the L2 family's exact slack and the
    ledger the package's gluing._ledger_inequalities."""
    from cyglue import gluing as gl
    rng = random.Random(seed)
    for _ in range(n_trials):
        nu = Fraction(rng.randint(1, 120), rng.randint(1, 12))
        lam = -3 - Fraction(rng.randint(1, 120), rng.randint(1, 12))
        alpha = Fraction(rng.randint(1, 99), 100)
        kappa = min(3 * alpha - lam * (1 - alpha) - 3,
                    3 * alpha + alpha * nu - 3)
        led = gl._ledger_inequalities(nu, lam, alpha, kappa)
        assert led["l2_ac"] and led["l2_conical"]
        if not all(led.values()):
            return False
    return True


FLAT_OMEGA0 = {(0, 1): 1, (2, 3): 1, (4, 5): 1}
FLAT_RE_OMEGA0 = {(0, 2, 4): 1, (0, 3, 5): -1, (1, 2, 5): -1, (1, 3, 4): -1}
FLAT_IM_OMEGA0 = {(1, 2, 4): 1, (0, 2, 5): 1, (0, 3, 4): 1, (1, 3, 5): -1}

PHI0 = {(0, 1, 2): 1, (0, 3, 4): 1, (0, 5, 6): 1, (1, 3, 5): 1,
        (1, 4, 6): -1, (2, 3, 6): -1, (2, 4, 5): -1}
STAR_PHI0 = {(3, 4, 5, 6): 1, (1, 2, 5, 6): 1, (1, 2, 3, 4): 1, (0, 2, 4, 6): 1,
             (0, 2, 3, 5): -1, (0, 1, 4, 5): -1, (0, 1, 3, 6): -1}
