"""Tests against word-indexed product states with a finite state alphabet.

A length-n word over an alphabet of states generates the product state
rho_word = rho_{s_1} x ... x rho_{s_n}. The projector test built for the
convex hull of the alphabet controls the error on every word at once; the
checks here compare both error kinds against their exponent bounds and
against the reduction to the word's empirical mixture.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import SizeGuardError
from .hypotest import TestSpec, build_test, theta
from .quantum import (
    _drop_imag,
    _qrel_entropy,
    _support_log2,
    assert_state,
    assert_states,
    bloch_spiral,
    bloch_state,
    depolarize,
    spectrum,
    trace_distance,
)
from .schur_weyl import (
    DENSE_LIMIT,
    _accepted_traces,
    dense_operator,
    guard_dimension,
    product_trace,
    require_invariant,
)
from .tableaux import (
    ALPHA,
    _accepted_labels,
    _frame_parts,
    enumerate_frequencies,
    relative_entropy,
)


def product_state(word, alphabet) -> np.ndarray:
    """Dense product state of the letters of `word` (guarded).

    The checks here never form it; traces against it go through
    `schur_weyl.product_trace`.
    """
    states = [assert_state(alphabet[s]) for s in word]
    d = states[0].shape[0]
    guard_dimension(d, len(word), DENSE_LIMIT)
    return reduce(np.kron, states)


def empirical_mixture(word, alphabet) -> np.ndarray:
    """Average alphabet state weighted by the letter counts of `word`."""
    return sum(np.asarray(alphabet[s], dtype=complex) for s in word) / len(word)


def avqs_test(alphabet, sigma, epsilon: float, n: int) -> np.ndarray:
    """Acceptance projector for the convex hull of the alphabet against sigma."""
    spec = TestSpec(sigma=sigma, null_set=list(alphabet), epsilon=epsilon, n=n, hull=True)
    return build_test(spec)


def word_type_one(p_n, word, alphabet) -> float:
    """1 - tr{P rho_word}, contracted one site at a time (guarded).

    Each distinct letter is validated once; rho_word is not formed.
    """
    letters = {s: assert_state(alphabet[s]) for s in dict.fromkeys(word)}
    sites = np.stack([letters[s] for s in word])
    return float(1.0 - product_trace(p_n, sites).real)


def worst_word_log2_bound(n: int, eps: float, d: int, s_size: int) -> float:
    """log2 of the worst-word ceiling: -n ALPHA eps^2 + (2 d*d + |S|) log2(2n)."""
    return -n * ALPHA * eps * eps + (2.0 * d * d + s_size) * math.log2(2 * n)


def type_two_slack(n: int, eps: float, d: int, sigma, s_size: int) -> float:
    """theta(n, eps, d, sigma) + (|S|/n) log2(2n)."""
    return theta(n, eps, d, sigma) + (s_size / n) * math.log2(2 * n)


def robustification_check(p_n, word, alphabet, rng=None) -> tuple[float, float]:
    """Word-state miss probability against its mixture-power reduction.

    Returns (tr{(1-P) rho_word}, (2n)**|S| tr{(1-P) mix^n}) where mix is the
    empirical mixture of the word. The alphabet is validated once, and both
    traces come from one `product_trace` call on a batch of two site stacks,
    the word's letters and n copies of mix, contracted one site at a time.
    P must commute with S_n; that is certified exactly on the group's two
    generators (`require_invariant`), and ValueError is raised otherwise.
    `rng` is unused; it is accepted for callers that still pass one.
    """
    n = len(word)
    letters = assert_states(alphabet)[0]
    p = require_invariant(p_n, letters.shape[-1], n)
    sites = letters[list(word)]
    mix = empirical_mixture(word, letters)
    stacks = np.stack([sites, np.broadcast_to(mix, sites.shape)])
    word_trace, mix_trace = product_trace(p, stacks).real
    return float(1.0 - word_trace), (2.0 * n) ** len(alphabet) * float(1.0 - mix_trace)


def spectral_estimation_check(lam, word, alphabet) -> tuple[float, float]:
    """Frame weight of a word state against its mixed-spectrum exponent bound.

    Returns (tr{P_lam rho_word}, (2n)**(|S| + d*d) 2**(-n D(lam_norm || spec mix))).
    The left side is the word state's trace on the labels (f, lam), every f.
    """
    n = len(word)
    states = np.stack([assert_state(alphabet[s]) for s in word])
    d = states.shape[-1]
    lam_p = _frame_parts(lam, n, d)
    accepted = _accepted_labels(((f, lam_p) for f in enumerate_frequencies(d, n)), n, d)
    lhs = _accepted_traces(accepted, [states])[0]
    mix = empirical_mixture(word, alphabet)
    lam_norm = np.asarray(lam_p + (0,) * (d - len(lam_p)), dtype=float) / n
    div = relative_entropy(lam_norm, spectrum(mix))
    rhs = (2.0 * n) ** (len(alphabet) + d * d) * 2.0 ** (-n * div)
    return lhs, rhs


# ---------------------------------------------------------------------------
# divergence over the convex hull


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the probability simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, len(v) + 1)
    cond = u - css / ks > 0
    k = ks[cond][-1]
    tau = css[k - 1] / k
    return np.clip(v - tau, 0.0, None)


def min_relative_entropy_hull(generators, sigma) -> tuple[float, np.ndarray]:
    """min over mixtures w of D(sum_i w_i rho_i || sigma), in bits.

    D is jointly convex (Lindblad) and the mixture is linear in w, so the
    objective is convex on the simplex and any local minimum is global:
    one projected gradient descent with backtracking from the barycentre
    finds it. Returns (value, weights).

    The generators and sigma are validated and sigma diagonalised once;
    each evaluated mixture takes one eigh, which serves its value
    (`quantum._qrel_entropy`) and, once it is accepted, its gradient.
    """
    gens = assert_states(generators)[0]
    sigma = assert_state(sigma)
    if gens.shape[1:] != sigma.shape:
        raise ValueError("dimension mismatch")
    k = len(gens)
    s_vals, s_vecs = np.linalg.eigh(sigma)
    null_cols, log_s = _support_log2(s_vals, s_vecs)
    log_sigma = (s_vecs * np.log2(np.clip(s_vals, 1e-30, None))) @ s_vecs.conj().T

    def evaluate(w):
        m = sum(wi * gi for wi, gi in zip(w, gens))
        vals, vecs = np.linalg.eigh(m)
        return _qrel_entropy(m, vals, vecs, null_cols, log_s), (vals, vecs)

    def grad(eig):
        vals, vecs = eig
        lg = (vecs * np.log2(np.clip(vals, 1e-18, None))) @ vecs.conj().T - log_sigma
        return np.array([float(np.einsum("ij,ji->", g, lg).real) for g in gens])

    w = np.full(k, 1.0 / k)
    fw, eig = evaluate(w)
    step = 0.5
    for _ in range(500):
        g = grad(eig)
        moved = False
        for _ in range(40):
            cand = simplex_project(w - step * g)
            fc, eig_c = evaluate(cand)
            if fc < fw - 1e-15:
                w, fw, eig = cand, fc, eig_c
                step *= 1.3
                moved = True
                break
            step *= 0.5
        if not moved or step < 1e-14:
            break
    return float(fw), w


# ---------------------------------------------------------------------------
# covering nets and smoothing


def delta_schedule(n: int, d: int) -> float:
    """Smoothing rate 12 n**(-1/(4 d*d)).

    Above 1 for every n < 12**(4 d*d) (about 1.8e17 at d = 2), so no valid
    `smoothed_test` delta at any reachable n.
    """
    return 12.0 * n ** (-1.0 / (4.0 * d * d))


def net_cardinality_bound(delta: float, d: int) -> float:
    """(12/delta)**(2 d*d)."""
    return (12.0 / delta) ** (2 * d * d)


@dataclass
class Net:
    """Finite set of states covering a region in trace norm."""

    points: list[np.ndarray]
    radius: float
    cover_radius: float
    hull_contains_smoothed: bool

    @property
    def cardinality(self) -> int:
        return len(self.points)


def _trace_dists(stack: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Trace distance from each state of `stack` to `point`.

    A Hermitian 2 x 2 difference has eigenvalues m +- r, with m the mean of
    its diagonal and r = hypot(half the diagonal gap, |off-diagonal|), so
    half its trace norm is max(|m|, r); the lower triangle is read, as
    `eigvalsh` reads it. Larger d takes the eigenvalues.
    """
    if stack.shape[-1] == 2:
        a = stack[:, 0, 0].real - point[0, 0].real
        b = stack[:, 1, 1].real - point[1, 1].real
        r = np.hypot(0.5 * (a - b), np.abs(stack[:, 1, 0] - point[1, 0]))
        return np.maximum(np.abs(0.5 * (a + b)), r)
    vals = np.linalg.eigvalsh(stack - point[None, :, :])
    return 0.5 * np.abs(vals).sum(axis=1)


def _state_pool(d: int, rng: np.random.Generator) -> np.ndarray:
    if d == 2:
        shells = (0.25, 0.5, 0.75, 0.9, 1.0)
        return np.concatenate([bloch_state(np.zeros(3))[None], bloch_spiral(shells, 400)])
    # Cholesky-angle sample: lower-triangular factors with seeded entries
    out = [np.eye(d, dtype=complex) / d]
    for _ in range(6000):
        tri = np.tril(
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        )
        m = tri @ tri.conj().T
        out.append(m / m.trace().real)
    return np.stack(out)


HULL_TOL = 1e-4  # the residual at which `delta_net` counts a target as in the hull


def _in_hull_residual(points: list[np.ndarray], target: np.ndarray) -> float:
    """Distance from target to the convex hull of points (FISTA on weights, to HULL_TOL)."""
    a = np.stack(
        [np.concatenate([p.real.ravel(), p.imag.ravel()]) for p in points]
    ).T
    t = np.concatenate([target.real.ravel(), target.imag.ravel()])
    k = a.shape[1]
    lip = np.linalg.norm(a, 2) ** 2
    w = np.full(k, 1.0 / k)
    y, s_prev = w.copy(), 1.0
    for _ in range(4000):
        g = a.T @ (a @ y - t)
        w_new = simplex_project(y - g / lip)
        s_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * s_prev**2))
        y = w_new + ((s_prev - 1.0) / s_new) * (w_new - w)
        w, s_prev = w_new, s_new
        if np.linalg.norm(a @ w - t) <= HULL_TOL:
            break
    return float(np.linalg.norm(a @ w - t))


def delta_net(generators, delta: float, rng=None) -> Net:
    """Greedy farthest-point covering net for the delta-smoothed targets.

    Net points are themselves states, so their hull stays inside the state
    set. For delta >= 2 the single point I/d suffices (every pair of
    states is within trace distance 1 <= delta/2). Otherwise greedy
    selection over a deterministic parameterized pool, with the smoothed
    generators appended, runs until the pool is covered within delta/2.
    Containment of the smoothed generators in the hull of the net is
    checked numerically.

    Distances come from `_trace_dists`: the closed form max(|m|, r) of a
    Hermitian 2 x 2 difference at d = 2, eigenvalues above. Many pool states
    are equally far from a chosen point (a whole shell from I/2), so the
    farthest point is the lowest index within 1e-12 of the largest
    distance: the net's points do not depend on how the distances round in
    the last bits.
    """
    gens = [assert_state(g) for g in generators]
    d = gens[0].shape[0]
    if delta <= 0:
        raise ValueError("delta must be positive")
    rng = np.random.default_rng(0) if rng is None else rng
    smoothed = [depolarize(g, min(delta, 1.0)) for g in gens]
    if delta >= 2.0:
        centre = np.eye(d, dtype=complex) / d
        return Net(
            points=[centre],
            radius=delta,
            cover_radius=max(trace_distance(s, centre) for s in smoothed),
            hull_contains_smoothed=all(
                _in_hull_residual([centre], s) <= HULL_TOL for s in smoothed
            ),
        )
    pool = np.concatenate([_state_pool(d, rng), np.stack(smoothed)])
    mindist = _trace_dists(pool, pool[0])
    chosen = [0]
    while mindist.max() > delta / 2.0 and len(chosen) < pool.shape[0]:
        nxt = int(np.flatnonzero(mindist >= mindist.max() - 1e-12)[0])
        chosen.append(nxt)
        mindist = np.minimum(mindist, _trace_dists(pool, pool[nxt]))
    points = [pool[i] for i in chosen]
    contains = all(_in_hull_residual(points, s) <= HULL_TOL for s in smoothed)
    return Net(
        points=points,
        radius=delta,
        cover_radius=float(mindist.max()),
        hull_contains_smoothed=contains,
    )


def smoothed_test(p_n, delta: float, d: int, n: int) -> np.ndarray:
    """Sitewise adjoint depolarizing of a tensor-power operator.

    Applies (1-delta) A + (delta/d) tr_site{A} x I on every site; the
    result of testing with it equals testing the original operator on
    sitewise-depolarized states. The operator is copied once; each site's
    partial trace is taken into one d**(2n-2) buffer, shared by all sites,
    over the (a, d, b, a, d, b) view of the copy, a = d**site, so no
    other full-size or partial-size array is allocated. The result is
    real when its imaginary part is negligible (`quantum._drop_imag`).
    """
    p = dense_operator(p_n, d, n)
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta={delta} outside [0, 1]")
    work = np.array(p, dtype=np.result_type(p, 1.0))
    partial = np.empty(work.size // (d * d), dtype=work.dtype)
    for site in range(n):
        a, b = d**site, d ** (n - 1 - site)
        view = work.reshape(a, d, b, a, d, b)
        buf = partial.reshape(a, b, a, b)
        np.trace(view, axis1=1, axis2=4, out=buf)
        buf *= delta / d
        work *= 1.0 - delta
        for i in range(d):
            view[:, i, :, :, i, :] += buf
    return _drop_imag(work)


# ---------------------------------------------------------------------------
# slack evaluators and word enumeration


def gamma_prime(n: int, nu: float, d: int, s_size: int, variant: str = "statement") -> float:
    """Residual slack of the smoothed test; two printed variants exist.

    `statement` uses a 2|S|/n inner shift and a (2n)**(-8 d*d) factor;
    `proof` uses 4|S|/n and (2n)**(-2 d*d). Returns -inf when the inner
    expression is nonpositive.
    """
    if variant == "statement":
        shift, power = 2.0, 8
    elif variant == "proof":
        shift, power = 4.0, 2
    else:
        raise ValueError(f"unknown variant {variant!r}")
    inner_exp = ALPHA * (n**-0.25 - shift * s_size / n) - (
        (s_size - 2.0 * d * d) / n
    ) * math.log2(2 * n)
    inner = 1.0 - nu - 2.0 ** (-n * inner_exp)
    if inner <= 0.0:
        return -math.inf
    return (math.log2(inner) - power * d * d * math.log2(2 * n)) / n


def gamma(
    n: int, nu: float, d: int, sigma, s_size: int, variant: str = "statement"
) -> float:
    """theta at the n**-0.25 schedule plus gamma_prime plus (8 d**6/n) log2(2n)."""
    return (
        theta(n, n**-0.25, d, sigma)
        + gamma_prime(n, nu, d, s_size, variant)
        + (8.0 * d**6 / n) * math.log2(2 * n)
    )


WORD_LIMIT = 10**6


def enumerate_words(s_size: int, n: int):
    """Every length-n word over |S| letters; SizeGuardError above 10**6 words."""
    if s_size**n > WORD_LIMIT:
        raise SizeGuardError(
            f"|S| = {s_size}, n = {n}: {s_size**n} words exceed the guard of {WORD_LIMIT}"
        )
    return itertools.product(range(s_size), repeat=n)
