"""Reference values that the benchmark checks qsanov's outputs against.

Nothing here calls qsanov: the combinatorics (frames, frequencies, Kostka
numbers, hook dimensions), the label rule of the projector test, the
closed-form type-two error, the classical Neyman-Pearson optimum over
types and the relative entropy are written out again from their
definitions, so that a checked output never vouches for itself.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce

import numpy as np


def frames(d: int, n: int) -> list[tuple[int, ...]]:
    """Partitions of n into at most d positive parts."""
    out: list[tuple[int, ...]] = []

    def rec(left: int, cap: int, prefix: tuple[int, ...]):
        if left == 0:
            out.append(prefix)
            return
        if len(prefix) == d:
            return
        for p in range(min(left, cap), 0, -1):
            rec(left - p, p, prefix + (p,))

    rec(n, n, ())
    return out


def frequencies(d: int, n: int) -> list[tuple[int, ...]]:
    """Ordered length-d count vectors summing to n."""
    if d == 1:
        return [(n,)]
    return [(c,) + rest for c in range(n + 1) for rest in frequencies(d - 1, n - c)]


def hook_dim(lam) -> int:
    """Dimension of the S_n irrep lam by the hook length formula."""
    lam = tuple(lam)
    n = sum(lam)
    cols = [sum(1 for r in lam if r > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(n) // hooks


@lru_cache(maxsize=None)
def _ssyt(lam: tuple[int, ...], content: tuple[int, ...]) -> int:
    # peel the cells of the last letter off as a horizontal strip
    if not content:
        return 1 if not lam else 0
    k = content[-1]
    total = 0
    rows = len(lam)

    def shrink(i: int, left: int, acc: tuple[int, ...]):
        nonlocal total
        if i == rows:
            if left == 0:
                total += _ssyt(tuple(x for x in acc if x > 0), content[:-1])
            return
        floor = lam[i + 1] if i + 1 < rows else 0
        for new in range(lam[i], floor - 1, -1):
            take = lam[i] - new
            if take > left:
                break
            shrink(i + 1, left - take, acc + (new,))

    shrink(0, k, ())
    return total


def kostka(f, lam) -> int:
    """Number of semistandard tableaux of shape lam and content f."""
    return _ssyt(tuple(lam), tuple(f))


def l1(p, q) -> float:
    return float(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)).sum())


def eigenbasis(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues descending and the matching eigenvector columns."""
    vals, vecs = np.linalg.eigh(np.asarray(sigma, dtype=complex))
    order = np.argsort(-vals, kind="stable")
    return vals[order], vecs[:, order]


def hull_candidates(states, eps: float, hull: bool) -> list[np.ndarray]:
    """Null states probed by the label rule: the states, or a mixing grid.

    The grid has pitch max(eps/4, 1e-3) over the weight simplex.
    """
    states = [np.asarray(s, dtype=complex) for s in states]
    if not hull or len(states) == 1:
        return states
    steps = max(1, math.ceil(1.0 / max(eps / 4.0, 1e-3)))
    out = []
    for counts in frequencies(len(states), steps):
        w = np.array(counts, dtype=float) / steps
        out.append(sum(wi * s for wi, s in zip(w, states)))
    return out


def labels(sigma, states, eps: float, n: int, hull: bool = False) -> set:
    """Label pairs (f, lam) kept by the projector test, from its definition.

    A pair is kept when one probed null state has its diagonal in the
    sigma eigenbasis within eps of f/n and its spectrum within eps of
    lam/n, both in l1.
    """
    d = np.asarray(sigma).shape[0]
    _, basis = eigenbasis(sigma)
    cands = hull_candidates(states, eps, hull)
    diags = [np.real(np.einsum("ji,jk,ki->i", basis.conj(), c, basis)) for c in cands]
    specs = [np.sort(np.linalg.eigvalsh(c))[::-1] for c in cands]
    out = set()
    for f in frequencies(d, n):
        fn = np.array(f, dtype=float) / n
        near_f = [l1(fn, x) <= eps for x in diags]
        for lam in frames(d, n):
            ln = np.array(lam + (0,) * (d - len(lam)), dtype=float) / n
            if any(a and l1(ln, s) <= eps for a, s in zip(near_f, specs)):
                out.add((f, lam))
    return out


def type_two(pairs, t) -> float:
    """Closed-form tr{P sigma^n}: sum of K_{f,lam} d_lam prod t_i^f_i."""
    t = [float(x) for x in t]
    total = 0.0
    for f, lam in pairs:
        weight = math.prod(ti**fi for ti, fi in zip(t, f))
        total += kostka(f, lam) * hook_dim(lam) * weight
    return total


def classical_np_uniform(p_top: float, n: int, target: float) -> float:
    """Optimal beta for p^n against the uniform law on {0,1}^n at power target.

    Words of one type share a likelihood ratio, so the optimal test takes
    whole types in decreasing ratio order and a fraction of the last one.
    """
    p_lo = 1.0 - p_top
    caught = beta = 0.0
    for k in range(n, -1, -1):
        if caught >= target - 1e-15:
            break
        mass = math.comb(n, k) * p_top**k * p_lo ** (n - k)
        q = math.comb(n, k) * 0.5**n
        frac = 1.0 if caught + mass <= target else (target - caught) / mass
        caught += frac * mass
        beta += frac * q
    return beta


def rel_entropy(rho, sigma) -> float:
    """D(rho || sigma) in bits, for nonsingular sigma."""
    r_vals = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    s_vals, s_vecs = np.linalg.eigh(np.asarray(sigma, dtype=complex))
    r_vals = np.clip(r_vals, 0.0, None)
    pos = r_vals > 0
    ent = float((r_vals[pos] * np.log2(r_vals[pos])).sum())
    log_s = (s_vecs * np.log2(s_vals)) @ s_vecs.conj().T
    return ent - float(np.trace(np.asarray(rho) @ log_s).real)


def theta(n: int, eps: float, d: int, t) -> float:
    """Exponent slack (d^2/n) log2(2n) + eps |log2(eps/d)| + d eps max|log2 t|."""
    max_log = max(abs(math.log2(float(x))) for x in t)
    return (d * d / n) * math.log2(2 * n) + eps * abs(math.log2(eps / d)) + d * eps * max_log


def kron_power(a, n: int) -> np.ndarray:
    return reduce(np.kron, [np.asarray(a)] * n)


def haar(d: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))[None, :]


def state(spec, rng: np.random.Generator) -> np.ndarray:
    """State with the given spectrum in a Haar-random eigenbasis."""
    u = haar(len(spec), rng)
    m = u @ np.diag(np.asarray(spec, dtype=float)) @ u.conj().T
    return (m + m.conj().T) / 2.0


def bloch(length: float, rng: np.random.Generator, plane: bool = False) -> np.ndarray:
    """Qubit state with a Bloch vector of fixed length in a random direction.

    With `plane=True` the direction lies in the x-z plane (a real state).
    """
    v = rng.standard_normal(3)
    if plane:
        v[1] = 0.0
    x, y, z = length * v / np.linalg.norm(v)
    return 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]], dtype=complex)


def cyclic_shift_defect(a: np.ndarray, d: int, n: int) -> float:
    """Max entry change of A under the cyclic shift of its n tensor factors."""
    t = np.asarray(a).reshape((d,) * (2 * n))
    axes = list(range(1, n)) + [0]
    shifted = t.transpose(axes + [n + x for x in axes])
    return float(np.abs(shifted - t).max())
