"""Composite-null tests from frequency/frame projectors, and their exponents.

A test against a null family of states and an alternative sigma keeps the
label pairs (f, lam) whose normalized frequency and frame both sit within
epsilon (in l1) of the pinched diagonal and the spectrum of some null
state. The acceptance operator is the sum of the corresponding projector
blocks, built in the eigenbasis of sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import VerificationError
from .quantum import assert_state, eigenbasis, pinch, qrel_entropy, spectrum
from .schur_weyl import block_projector, dense_from_blocks, tensor_power
from .tableaux import ALPHA, enumerate_frames, enumerate_frequencies, l1_distance

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


def neyman_pearson(rho, sigma, n: int, nu: float, tol: float = 1e-10) -> float:
    """Optimal type-two error at type-one level nu for rho^n against sigma^n.

    Bisects the likelihood threshold t: diagonalize rho^n - t sigma^n,
    count the null mass caught by the positive part, then take the optimal
    fractional test in the final eigenbasis so the type-one constraint is
    met exactly (within tol).
    """
    rho_m = assert_state(rho)
    s_m = assert_state(sigma)
    if not 0.0 <= nu < 1.0:
        raise ValueError("nu must be in [0, 1)")
    big_r = tensor_power(rho_m, n)
    big_s = tensor_power(s_m, n)
    hermitize = lambda a: (a + a.conj().T) / 2.0
    big_r = hermitize(big_r)
    big_s = hermitize(big_s)
    if np.abs(big_r.imag).max() < 1e-15 and np.abs(big_s.imag).max() < 1e-15:
        big_r = big_r.real
        big_s = big_s.real
    target = 1.0 - nu

    def caught(t: float) -> tuple[float, np.ndarray]:
        vals, vecs = np.linalg.eigh(big_r - t * big_s)
        pos = vecs[:, vals > 0]
        got = float(np.einsum("ij,ji->", pos.conj().T @ big_r, pos).real)
        return got, vecs

    r_max = float(np.linalg.eigvalsh(rho_m).max())
    s_min = float(np.linalg.eigvalsh(s_m).min())
    if s_min <= 0:
        raise ValueError("sigma must be nonsingular")
    t_lo, t_hi = 0.0, (r_max / s_min) ** n + 1.0
    vecs = None
    for _ in range(200):
        if t_hi - t_lo <= tol * max(1.0, t_lo):
            break
        t_mid = 0.5 * (t_lo + t_hi)
        got, vecs = caught(t_mid)
        if got >= target:
            t_lo = t_mid
        else:
            t_hi = t_mid
    if vecs is None:
        _, vecs = caught(0.5 * (t_lo + t_hi))
    p_out = np.einsum("ji,ji->i", vecs.conj(), big_r @ vecs).real
    q_out = np.einsum("ji,ji->i", vecs.conj(), big_s @ vecs).real
    np.clip(p_out, 0.0, None, out=p_out)
    np.clip(q_out, 0.0, None, out=q_out)
    return _fractional_np(p_out, q_out, target)
