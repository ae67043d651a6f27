"""Limits of permutation-invariant universal detectors.

A permutation-invariant operator that accepts every product state up to a
small error must be close to the identity. The pieces assembled here: the
exact unitary twirl of invariant operators (a weighted sum of frame
projectors), the dimension-to-type-class ratio estimate, and the closing
bound with its vacuity threshold.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import VerificationError
from .quantum import bloch_spiral, random_state
from .schur_weyl import (
    DENSE_LIMIT,
    dense_operator,
    guard_dimension,
    isotypical_projector,
    product_trace,
    require_invariant,
    tensor_power,
)
from .tableaux import _frame_parts, enumerate_frames, hook_dimension, type_class_size


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fixing."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases[None, :]


def unitary_twirl_invariant(a, d: int, n: int) -> np.ndarray:
    """Average of U^n A U^n-dagger over Haar U, for permutation-invariant A.

    On invariant operators the average lands in the span of the frame
    projectors, with each coefficient fixed by trace preservation:
    sum over lam of (tr{A P_lam}/tr{P_lam}) P_lam, a real operator built
    from real coefficients and real frame projectors.
    """
    mat = require_invariant(np.asarray(a, dtype=complex), d, n)
    out = np.zeros(mat.shape)
    for lam in enumerate_frames(d, n):
        p_lam = isotypical_projector(lam, d, n)
        weight = np.einsum("ij,ji->", mat, p_lam).real
        tr = np.trace(p_lam)
        if tr > 0:
            out += (weight / tr) * p_lam
    return out


def haar_twirl_mc(a, d: int, n: int, samples: int = 200, rng=None) -> tuple[np.ndarray, float]:
    """Monte-Carlo Haar twirl: (sample mean, Frobenius norm of entrywise SE)."""
    mat = dense_operator(np.asarray(a, dtype=complex), d, n)
    rng = np.random.default_rng(0) if rng is None else rng
    draws = np.empty((samples, *mat.shape), dtype=complex)
    for k in range(samples):
        u = tensor_power(haar_unitary(d, rng), n)
        draws[k] = u @ mat @ u.conj().T
    mean = draws.mean(axis=0)
    # entrywise standard error, real and imaginary spread combined
    se = np.sqrt(
        (np.abs(draws - mean[None]) ** 2).sum(axis=0) / (samples * (samples - 1))
    )
    return mean, float(np.linalg.norm(se))


def _pair_orbits(d: int, n: int) -> np.ndarray:
    """Orbit number of each entry (w, w') of a d**n x d**n matrix, flattened.

    The orbits are those of simultaneous site permutations. Site i of the
    entry has the letter-pair code d w_i + w'_i; the sorted codes, read as
    base-d**2 digits, are one key per orbit below dim**2, and the keys that
    occur are numbered 0, 1, ... in key order.
    """
    dim = d**n
    code_type = np.min_scalar_type(d * d - 1)
    words = np.array(np.unravel_index(np.arange(dim), (d,) * n), dtype=code_type).T
    codes = d * words[:, None, :] + words[None, :, :]
    codes.sort(axis=-1)
    key = np.zeros((dim, dim), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        key *= d * d
        key += codes[:, :, i]
    seen = np.zeros(dim * dim, dtype=bool)
    seen[key] = True
    return (np.cumsum(seen, dtype=np.int64) - 1)[key.ravel()]


def random_invariant_operator(d: int, n: int, rng=None) -> np.ndarray:
    """Random permutation-invariant operator with spectrum in [0, 1].

    A Gaussian Hermitian matrix is averaged over the full symmetric group
    and affinely rescaled so its eigenvalues fill [0, 1]. The group average
    of entry (w, w') is the mean of the matrix over the orbit of the word
    pair under simultaneous permutation, and that orbit is fixed by the
    counts of the letter pairs (w_i, w'_i). Each entry gets one integer key
    for that multiset (`_pair_orbits`), and the orbit means are `bincount`s
    over the keys.
    """
    dim = guard_dimension(d, n, DENSE_LIMIT)
    rng = np.random.default_rng(0) if rng is None else rng
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    orbit = _pair_orbits(d, n)
    sizes = np.bincount(orbit)
    mean = (np.bincount(orbit, h.real.ravel()) + 1j * np.bincount(orbit, h.imag.ravel())) / sizes
    acc = mean[orbit].reshape(dim, dim)
    vals = np.linalg.eigvalsh(acc)
    lo, hi = float(vals[0]), float(vals[-1])
    if hi - lo < 1e-12:
        return np.eye(dim, dtype=complex)
    return (acc - lo * np.eye(dim)) / (hi - lo)


def dim_ratio_bound(lam, d: int, n: int) -> tuple[float, float]:
    """(dim F_lam / |T_lam|, (n+d+1)**(-d*d)) for lam read as a frequency."""
    parts = _frame_parts(lam, n, d)
    ratio = hook_dimension(parts) / type_class_size(parts + (0,) * (d - len(parts)))
    return float(ratio), float((n + d + 1.0) ** (-d * d))


def nogo_bound(eps: float, d: int, n: int) -> float:
    """1 - eps (2 d n)**(4 d*d); negative values carry no information.

    eps = 0 gives 1.0, and -inf stands for a product past 2**1023, so no
    power is taken that overflows. A power past 2**1023 under a small
    enough eps is taken as 2**(log2 eps + 4 d*d log2(2 d n)).
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if eps == 0:
        return 1.0
    exponent = 4 * d * d * math.log2(2.0 * d * n)
    if math.log2(eps) + exponent > 1023:
        return -math.inf
    if exponent > 1023:
        return 1.0 - 2.0 ** (math.log2(eps) + exponent)
    return 1.0 - eps * (2.0 * d * n) ** (4 * d * d)


def vacuity_threshold(d: int, n: int) -> float:
    """Largest eps at which the closing bound is still positive."""
    return (2.0 * d * n) ** (-4 * d * d)


@dataclass
class NogoReport:
    """Sampled acceptance defect of an invariant operator and the bound it implies."""

    eps_hat: float
    min_eig: float
    bound: float
    vacuous: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _probe_states(d: int, sample_states: int, rng: np.random.Generator):
    for i in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        yield e
    yield np.eye(d, dtype=complex) / d
    if d == 2:
        yield from bloch_spiral((0.5, 1.0), 25)
    for _ in range(sample_states):
        yield random_state(d, rng)
    for _ in range(sample_states // 2):
        yield random_state(d, rng, rank=1)


def verify_nogo_instance(a, d: int, n: int, sample_states: int = 64, rng=None) -> NogoReport:
    """Probe the worst sampled acceptance error and check the closing bound.

    eps_hat = 1 - min over probe states rho of tr{A rho^n} (a sampled,
    hence optimistic, stand-in for the worst case); the traces of all
    probes are contracted site by site in one batch (`product_trace`), and
    no rho^n is formed. When the implied bound is non-vacuous, min-eig(A)
    must reach it.
    """
    mat = require_invariant(np.asarray(a, dtype=complex), d, n)
    rng = np.random.default_rng(0) if rng is None else rng
    probes = np.stack(list(_probe_states(d, sample_states, rng)))
    sites = np.broadcast_to(probes[:, None], (len(probes), n, d, d))
    worst = min(1.0, float(product_trace(mat, sites).real.min()))
    eps_hat = max(0.0, 1.0 - worst)
    # trace arithmetic carries ~1e-15 noise; anything below this floor is
    # indistinguishable from exact acceptance and would poison the
    # (2dn)**(4d*d) amplification
    if eps_hat < 1e-12:
        eps_hat = 0.0
    min_eig = float(np.linalg.eigvalsh(mat)[0])
    bound = nogo_bound(eps_hat, d, n)
    vacuous = bound <= 0.0
    if not vacuous and min_eig < bound - 1e-9:
        raise VerificationError(
            f"min eigenvalue {min_eig} below non-vacuous bound {bound}"
        )
    return NogoReport(eps_hat=eps_hat, min_eig=min_eig, bound=bound, vacuous=vacuous)
