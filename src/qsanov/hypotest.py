"""Composite-null tests from frequency/frame projectors, and their exponents.

A test against a null family of states and an alternative sigma keeps the
label pairs (f, lam) whose normalized frequency and frame both sit within
epsilon (in l1) of the pinched diagonal and the spectrum of some null
state. The acceptance operator is the sum of the corresponding projector
blocks, built in the eigenbasis of sigma.

The Neyman-Pearson baseline works on the U(d) irrep blocks of rho^n and
sigma^n (Schur-Weyl duality): for qubits these are det^k Sym^(n-2k), with
the S_n irrep dimension as multiplicity, so its cost is polynomial in n.
For d >= 3 it still works on the dense d**n pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import VerificationError
from .quantum import assert_state, eigenbasis, pinch, qrel_entropy, spectrum
from .schur_weyl import block_projector, dense_from_blocks, tensor_power
from .tableaux import (
    ALPHA,
    enumerate_frames,
    enumerate_frequencies,
    hook_dimension,
    l1_distance,
)

SIGMA_MIN_EIG = 1e-12


@dataclass
class TestSpec:
    """Inputs of one projector test.

    `null_set` lists the null-hypothesis states; with `hull=True` the null
    is their convex hull, probed on a mixing-weight grid of pitch about
    epsilon/4 (`grid_pitch` overrides).
    """

    sigma: np.ndarray
    null_set: list[np.ndarray]
    epsilon: float
    n: int
    hull: bool = False
    grid_pitch: float | None = None

    def __post_init__(self):
        self.sigma = assert_state(self.sigma)
        self.null_set = [assert_state(s) for s in self.null_set]
        if not self.null_set:
            raise ValueError("null_set must contain at least one state")
        if any(s.shape != self.sigma.shape for s in self.null_set):
            raise ValueError("all states must share the dimension of sigma")
        if not 0.0 <= self.epsilon <= 2.0:
            raise ValueError(f"epsilon={self.epsilon} outside [0, 2]")
        if self.n < 1:
            raise ValueError("n must be positive")
        t, basis = eigenbasis(self.sigma)
        if t.min() <= SIGMA_MIN_EIG:
            raise ValueError("sigma must be nonsingular")
        self.t = t
        self.basis = basis

    @property
    def d(self) -> int:
        return self.sigma.shape[0]


def _null_candidates(spec: TestSpec) -> list[np.ndarray]:
    if not spec.hull or len(spec.null_set) == 1:
        return list(spec.null_set)
    pitch = spec.grid_pitch
    if pitch is None:
        pitch = max(spec.epsilon / 4.0, 1e-3)
    steps = max(1, math.ceil(1.0 / pitch))
    out = []
    for grid_point in enumerate_frequencies(len(spec.null_set), steps):
        weights = np.array(grid_point.counts, dtype=float) / steps
        out.append(sum(w * s for w, s in zip(weights, spec.null_set)))
    return out


def lambda_set(spec: TestSpec) -> frozenset[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Label pairs (f, lam) accepted by the test.

    A pair is kept when a single candidate null state has its pinched
    diagonal within epsilon of f/n and its spectrum within epsilon of the
    normalized frame, both in l1.
    """
    d, n = spec.d, spec.n
    cands = _null_candidates(spec)
    pinches = [pinch(s, spec.basis) for s in cands]
    spectra = [spectrum(s) for s in cands]
    frames = enumerate_frames(d, n)
    frame_ok: dict[tuple[int, ...], np.ndarray] = {}
    for fr in frames:
        lam_norm = np.asarray(fr.padded(d), dtype=float) / n
        frame_ok[fr.parts] = np.array(
            [l1_distance(lam_norm, r) <= spec.epsilon for r in spectra]
        )
    pairs = []
    for f in enumerate_frequencies(d, n):
        f_norm = np.asarray(f.counts, dtype=float) / n
        freq_ok = np.array(
            [l1_distance(f_norm, rt) <= spec.epsilon for rt in pinches]
        )
        if not freq_ok.any():
            continue
        for fr in frames:
            if np.any(freq_ok & frame_ok[fr.parts]):
                pairs.append((f.counts, fr.parts))
    return frozenset(pairs)


def build_test(spec: TestSpec, labels=None) -> np.ndarray:
    """Acceptance projector, dense in computational coordinates.

    Sums the (f, lam) blocks of `lambda_set` in the sigma eigenbasis and
    rotates the result back to computational coordinates. Hermitian and
    idempotent; real whenever the eigenbasis is real.
    """
    if labels is None:
        labels = lambda_set(spec)
    pieces = ((f, block_projector(f, lam).block) for f, lam in sorted(labels))
    return dense_from_blocks(pieces, spec.d, spec.n, spec.basis)


def _infer_sites(op_dim: int, d: int) -> int:
    n = round(math.log(op_dim) / math.log(d))
    if d**n != op_dim:
        raise ValueError(f"operator dimension {op_dim} is not a power of {d}")
    return n


def type_one(p_n, rho) -> float:
    """1 - tr{P rho^n}; P and rho in the same (computational) coordinates."""
    p = np.asarray(p_n)
    rho_m = assert_state(rho)
    n = _infer_sites(p.shape[0], rho_m.shape[0])
    big = tensor_power(rho_m, n)
    return float(1.0 - np.einsum("ij,ji->", p, big).real)


def type_two(p_n, sigma) -> float:
    """tr{P sigma^n}; P and sigma in the same (computational) coordinates."""
    p = np.asarray(p_n)
    s_m = assert_state(sigma)
    n = _infer_sites(p.shape[0], s_m.shape[0])
    big = tensor_power(s_m, n)
    return float(np.einsum("ij,ji->", p, big).real)


def theta(n: int, eps: float, d: int, sigma) -> float:
    """Exponent slack (d*d/n) log2(2n) + eps |log2(eps/d)| + d eps max|log2 t|."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    t = spectrum(sigma)
    if t.min() <= SIGMA_MIN_EIG:
        raise ValueError("sigma must be nonsingular")
    max_log = float(np.abs(np.log2(t)).max())
    return (
        (d * d / n) * math.log2(2 * n)
        + eps * abs(math.log2(eps / d))
        + d * eps * max_log
    )


def theta_prime(n: int, nu: float, d: int, sigma) -> float:
    """Refined slack at the schedule eps = n**-0.25; can be -inf at small n.

    theta(n, n**-0.25, d, sigma) - (2 d**6 / n) log2(2n)
    + (1/n) log2((1 - nu - 2**(-ALPHA sqrt(n))) / (2n)**(2 d*d)).
    """
    if not 0.0 < nu < 1.0:
        raise ValueError("nu must be in (0, 1)")
    head = theta(n, n**-0.25, d, sigma) - (2.0 * d**6 / n) * math.log2(2 * n)
    numerator = 1.0 - nu - 2.0 ** (-ALPHA * math.sqrt(n))
    if numerator <= 0.0:
        return -math.inf
    return head + (math.log2(numerator) - 2 * d * d * math.log2(2 * n)) / n


def epsilon_schedule(n: int, nu: float, d: int) -> float:
    """Shrinking radius sqrt((log2(1/nu) + d*d log2(2n)) / (ALPHA n))."""
    if not 0.0 < nu < 1.0:
        raise ValueError("nu must be in (0, 1)")
    return math.sqrt((math.log2(1.0 / nu) + d * d * math.log2(2 * n)) / (ALPHA * n))


def feasibility_bound(n: int, eps: float, d: int) -> float:
    """Type-one ceiling 2**(-n (ALPHA eps^2 - (2 d*d / n) log2(2n)))."""
    return 2.0 ** (-n * (ALPHA * eps * eps - (2.0 * d * d / n) * math.log2(2 * n)))


@dataclass
class ExponentReport:
    n: int
    eps: float
    type1_max: float
    type2: float
    empirical_exponent: float
    reference_d: float
    theta: float
    np_beta: float


def run_sanov(
    sigma,
    null_set,
    n_values,
    epsilon: float | None = None,
    nu: float = 0.05,
    hull: bool = False,
    np_baseline: bool = True,
) -> list[ExponentReport]:
    """Build the projector test for each n and record errors and exponents.

    With `epsilon=None` the shrinking schedule `epsilon_schedule(n, nu, d)`
    is used. Each report carries the worst type-one error over the null
    set, the type-two error, its empirical exponent, the reference
    min-relative-entropy, the theta slack, and (optionally) the optimal
    beta at the matched type-one level for the divergence-minimizing null
    state. Raises VerificationError if a type-two error exceeds its
    exponent bound.
    """
    sigma = assert_state(sigma)
    null_states = [assert_state(s) for s in null_set]
    d = sigma.shape[0]
    divergences = [qrel_entropy(s, sigma) for s in null_states]
    ref = min(divergences)
    rho_star = null_states[int(np.argmin(divergences))]
    reports = []
    for n in n_values:
        eps = epsilon_schedule(n, nu, d) if epsilon is None else epsilon
        eps = min(eps, 2.0)
        spec = TestSpec(sigma=sigma, null_set=null_states, epsilon=eps, n=n, hull=hull)
        p_n = build_test(spec)
        t1 = max(type_one(p_n, s) for s in null_states)
        t2 = type_two(p_n, sigma)
        th = theta(n, eps, d, sigma)
        bound = 2.0 ** (-n * (ref - th))
        if t2 > bound * (1.0 + 1e-9) + 1e-300:
            raise VerificationError(
                f"type-two {t2} above 2**(-n(D - theta)) = {bound} at n={n}"
            )
        exponent = -math.log2(t2) / n if t2 > 0 else math.inf
        beta = (
            neyman_pearson(rho_star, sigma, n, max(t1, 0.0)) if np_baseline else math.nan
        )
        reports.append(
            ExponentReport(
                n=n,
                eps=eps,
                type1_max=t1,
                type2=t2,
                empirical_exponent=exponent,
                reference_d=ref,
                theta=th,
                np_beta=beta,
            )
        )
    return reports


def _fractional_np(p: np.ndarray, q: np.ndarray, target: float) -> float:
    """Classical Neyman-Pearson: min sum(q on test) s.t. sum(p on test) >= target.

    Outcomes are included in decreasing likelihood-ratio order with a
    fractional share of the marginal outcome.
    """
    if target <= 0.0:
        return 0.0
    ratio = np.where(q > 0, p / np.where(q > 0, q, 1.0), np.inf)
    ratio = np.where((q <= 0) & (p <= 0), -np.inf, ratio)
    order = np.argsort(-ratio, kind="stable")
    beta = 0.0
    caught = 0.0
    for idx in order:
        if caught >= target - 1e-15:
            break
        take_p = p[idx]
        if caught + take_p <= target:
            frac = 1.0
        else:
            frac = (target - caught) / take_p if take_p > 0 else 0.0
        caught += take_p * frac
        beta += q[idx] * frac
    return float(beta)


def _hermitian(a: np.ndarray) -> np.ndarray:
    """(a + a^dag) / 2, returned real when its imaginary part is below 1e-15."""
    a = (a + a.conj().T) / 2.0
    return a.real if np.abs(a.imag).max() < 1e-15 else a


def _sym_powers(x: np.ndarray, n: int) -> dict[int, np.ndarray]:
    """Sym^m(x) of a 2 x 2 matrix for m = n, n - 2, ..., 0.

    Written in the orthonormal symmetric basis, whose vector a is the
    normalized sum of the words with a zeros. With p = x00 u + x10 v and
    q = x01 u + x11 v, c[a, b] is the coefficient of u^a v^(m-a) in
    p^b q^(m-b), grown one factor at a time, and
    Sym^m(x)[a, b] = c[a, b] sqrt(C(m, b) / C(m, a)).
    """
    (x00, x01), (x10, x11) = x
    c = np.ones((1, 1), dtype=x.dtype)
    out = {}
    for m in range(n + 1):
        if m:
            grown = np.zeros((m + 1, m + 1), dtype=x.dtype)
            grown[1:, 1:] += x00 * c
            grown[:-1, 1:] += x10 * c
            grown[1:, 0] += x01 * c[:, 0]
            grown[:-1, 0] += x11 * c[:, 0]
            c = grown
        if (n - m) % 2 == 0:
            log_binom = np.array(
                [math.lgamma(m + 1) - math.lgamma(a + 1) - math.lgamma(m - a + 1)
                 for a in range(m + 1)]
            )
            out[m] = c * np.exp(0.5 * (log_binom[None, :] - log_binom[:, None]))
    return out


def _qubit_blocks(rho, sigma, n: int) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """U(2) irrep blocks (d_lam, pi_lam(rho), pi_lam(sigma)) of rho^n and sigma^n.

    lam = (n - k, k) acts as det^k Sym^(n-2k), of size n - 2k + 1, and
    occurs d_lam = C(n, k) - C(n, k - 1) times. No d**n matrix is formed.
    """
    sym_r, sym_s = _sym_powers(rho, n), _sym_powers(sigma, n)
    det = lambda x: max(float((x[0, 0] * x[1, 1] - x[0, 1] * x[1, 0]).real), 0.0)
    det_r, det_s = det(rho), det(sigma)
    return [
        (
            float(hook_dimension((n - k, k))),
            _hermitian(det_r**k * sym_r[n - 2 * k]),
            _hermitian(det_s**k * sym_s[n - 2 * k]),
        )
        for k in range(n // 2 + 1)
    ]


def _dense_blocks(rho, sigma, n: int) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """The single block (1, rho^n, sigma^n), dense and guarded."""
    return [(1.0, _hermitian(tensor_power(rho, n)), _hermitian(tensor_power(sigma, n)))]


def _log_threshold_bracket(rho, sigma, n: int) -> tuple[float, float]:
    """(lo, hi) in log t around the Neyman-Pearson threshold of rho^n vs sigma^n.

    Above hi, rho^n - t sigma^n <= 0. Below lo it is positive definite when
    rho is nonsingular; otherwise lo sits a factor of machine epsilon under
    (r_low / s_max)**n, r_low the least eigenvalue of rho above
    SIGMA_MIN_EIG, where the positive part misses O(eps^2) of rho^n.
    """
    r = np.linalg.eigvalsh(rho)
    s = np.linalg.eigvalsh(sigma)
    if s[0] <= 0:
        raise ValueError("sigma must be nonsingular")
    r_low = float(r[r > SIGMA_MIN_EIG].min())
    lo = n * math.log(r_low / s[-1]) + math.log(np.finfo(float).eps)
    hi = n * math.log(r[-1] / s[0])
    return lo, hi


def _diag_in(vecs: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Diagonal of vecs^dag a vecs."""
    return np.einsum("ji,ji->i", vecs.conj(), a @ vecs).real


def _np_over_blocks(blocks, bracket, target: float, tol: float) -> float:
    """Neyman-Pearson optimum over (multiplicity, R, S) blocks.

    Bisects log t in `bracket` down to width tol: each step diagonalizes
    every block of R - t S, scaled by 1/(1 + t) so that no t overflows,
    and sums multiplicity x (R mass on the positive part). The fractional
    test then runs on the per-eigenvector (multiplicity p, multiplicity q)
    of the last step's eigenbases. That is exact: the copies of a block
    share one likelihood ratio.
    """
    lo, hi = bracket

    def split(log_t: float) -> tuple[float, list[np.ndarray]]:
        shift = float(np.logaddexp(0.0, log_t))
        w_r, w_s = math.exp(-shift), math.exp(log_t - shift)
        got = 0.0
        bases = []
        for mult, r, s in blocks:
            vals, vecs = np.linalg.eigh(w_r * r - w_s * s)
            got += mult * float(_diag_in(vecs, r)[vals > 0].sum())
            bases.append(vecs)
        return got, bases

    bases = None
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        got, bases = split(mid)
        if got >= target:
            lo = mid
        else:
            hi = mid
    if bases is None:
        _, bases = split(0.5 * (lo + hi))
    p_out, q_out = [], []
    for (mult, r, s), vecs in zip(blocks, bases):
        p_out.append(mult * np.clip(_diag_in(vecs, r), 0.0, None))
        q_out.append(mult * np.clip(_diag_in(vecs, s), 0.0, None))
    return _fractional_np(np.concatenate(p_out), np.concatenate(q_out), target)


def neyman_pearson(rho, sigma, n: int, nu: float, tol: float = 1e-10) -> float:
    """Optimal type-two error at type-one level nu for rho^n against sigma^n.

    Both operators commute with S_n, so they split into U(d) irrep blocks
    pi_lam(.) (x) 1_{d_lam} and the optimal test does too. For d = 2 the
    blocks are det^k Sym^(n-2k) of size n - 2k + 1 (lam = (n - k, k)), so
    no 2**n matrix is formed and n is bound by no dense guard; for d >= 3
    the one block is the dense pair (rho^n, sigma^n). The likelihood
    threshold t is bisected in log t to relative width tol, then the
    optimal fractional test meets the type-one constraint exactly.
    """
    rho_m = assert_state(rho)
    s_m = assert_state(sigma)
    if not 0.0 <= nu < 1.0:
        raise ValueError("nu must be in [0, 1)")
    bracket = _log_threshold_bracket(rho_m, s_m, n)
    blocks = (_qubit_blocks if rho_m.shape[0] == 2 else _dense_blocks)(rho_m, s_m, n)
    return _np_over_blocks(blocks, bracket, 1.0 - nu, tol)
