"""Density-matrix utilities: spectra, pinchings, relative entropy, smoothing.

States are plain complex numpy arrays. Entropic quantities are base 2.
"""

from __future__ import annotations

import math

import numpy as np

from .tableaux import CHECK_TOL, entropy

RHO_SUPPORT_TOL = 1e-9
SIGMA_NULL_TOL = 1e-12


def _name(flags: np.ndarray) -> tuple[tuple[int, ...], str]:
    """(index, name) of the first flagged state: "state" alone for one state."""
    idx = np.unravel_index(int(np.flatnonzero(flags)[0]), flags.shape)
    if not idx:
        return idx, "state"
    return idx, f"state {idx[0] if len(idx) == 1 else idx}"


def assert_states(states) -> tuple[np.ndarray, np.ndarray]:
    """Validate a stack of density matrices: square, Hermitian, unit trace, PSD.

    `states` has shape (..., d, d), or is a sequence of d x d states; a
    single (d, d) state is the one-state case. Returns (stack, eigenvalues):
    the complex stack and its ascending eigenvalues, shape (..., d), from one
    batched `eigvalsh`. The error names the first bad state by its index.
    """
    m = np.asarray(states, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"state must be square, got shape {m.shape}")
    skew = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    if (skew > CHECK_TOL).any():
        raise ValueError(f"{_name(skew > CHECK_TOL)[1]} is not Hermitian")
    tr = np.trace(m, axis1=-2, axis2=-1).real
    if (np.abs(tr - 1.0) > CHECK_TOL).any():
        i, name = _name(np.abs(tr - 1.0) > CHECK_TOL)
        raise ValueError(f"{name} trace is {tr[i]}, expected 1")
    evals = np.linalg.eigvalsh(m)
    low = evals.min(axis=-1)
    if (low < -CHECK_TOL).any():
        i, name = _name(low < -CHECK_TOL)
        raise ValueError(f"{name} has negative eigenvalue {low[i]}")
    return m, evals


def assert_state(rho) -> np.ndarray:
    """Validate a density matrix: square, Hermitian, PSD, unit trace."""
    m = np.asarray(rho, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"state must be square, got shape {m.shape}")
    return assert_states(m)[0]


def _spectra(evals: np.ndarray) -> np.ndarray:
    """Descending, clipped and renormalized rows of ascending eigenvalues."""
    vals = evals[..., ::-1].copy()
    np.clip(vals, 0.0, None, out=vals)
    s = vals.sum(axis=-1, keepdims=True)
    off = np.abs(s[..., 0] - 1.0) > 1e-10
    if off.any():
        i, name = _name(off)
        raise ValueError(f"clipped spectrum of {name} sums to {s[i][0]}")
    return vals / s


def spectrum(rho) -> np.ndarray:
    """Eigenvalues of a state, descending, clipped at 0 and renormalized.

    `rho` is one (d, d) state or a stack (..., d, d); the result has shape
    (d,) or (..., d). The eigenvalues are the validator's (`assert_states`),
    so each call runs one batched `eigvalsh`.
    """
    return _spectra(assert_states(rho)[1])


def eigenbasis(sigma) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues descending, unitary with matching eigenvector columns)."""
    m = assert_state(sigma)
    vals, vecs = np.linalg.eigh(m)
    order = np.argsort(-vals, kind="stable")
    return vals[order].copy(), vecs[:, order].copy()


def assert_basis(basis) -> np.ndarray:
    b = np.asarray(basis, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("basis must be a square matrix of column vectors")
    if np.abs(b.conj().T @ b - np.eye(b.shape[0])).max() > CHECK_TOL:
        raise ValueError("basis columns are not orthonormal")
    return b


def _pinched(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Diagonals of the validated stack m in the orthonormal basis b.

    Each row is checked, clipped at 0 and renormalized at the tolerance
    of `tableaux.as_prob_vec` (CHECK_TOL).
    """
    diag = np.einsum("ji,...jk,ki->...i", b.conj(), m, b).real.copy()
    low = diag.min(axis=-1)
    if (low < -CHECK_TOL).any():
        i, name = _name(low < -CHECK_TOL)
        raise ValueError(f"negative entry {low[i]} in the pinching of {name}")
    np.clip(diag, 0.0, None, out=diag)
    s = diag.sum(axis=-1, keepdims=True)
    off = np.abs(s[..., 0] - 1.0) > CHECK_TOL
    if off.any():
        i, name = _name(off)
        raise ValueError(f"the pinching of {name} sums to {s[i][0]}, expected 1")
    return diag / s


def pinch(rho, basis) -> np.ndarray:
    """Diagonal of rho in the given orthonormal basis, as a probability vector.

    `rho` is one (d, d) state or a stack (..., d, d); the result has shape
    (d,) or (..., d), each row validated, clipped at 0 and renormalized.
    """
    return _pinched(assert_states(rho)[0], assert_basis(basis))


def qrel_entropy(rho, sigma) -> float:
    """Quantum relative entropy D(rho || sigma) in bits; +inf off support.

    Support test: eigenvalues of rho below 1e-9 are treated as zero, sigma
    eigenvalues below 1e-12 as zero; rho mass of more than 1e-9 on the null
    space of sigma yields +inf. Rounding below zero is clamped to 0
    (Klein's inequality).
    """
    r_m = assert_state(rho)
    s_m = assert_state(sigma)
    if r_m.shape != s_m.shape:
        raise ValueError("dimension mismatch")
    return _qrel_entropy(r_m, *np.linalg.eigh(r_m), *_support_log2(*np.linalg.eigh(s_m)))


def _support_log2(s_vals: np.ndarray, s_vecs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(null-space columns, log2 on the support) of sigma from its eigh."""
    supp = s_vals > SIGMA_NULL_TOL
    log_s = (s_vecs[:, supp] * np.log2(s_vals[supp])) @ s_vecs[:, supp].conj().T
    return s_vecs[:, ~supp], log_s


def _qrel_entropy(r_m, r_vals, r_vecs, null_cols, log_s) -> float:
    """The core of `qrel_entropy`: rho with its eigh, sigma by `_support_log2`."""
    if null_cols.shape[1]:
        keep = r_vals > RHO_SUPPORT_TOL
        overlap = np.abs(null_cols.conj().T @ r_vecs[:, keep]) ** 2
        leak = float((r_vals[keep] * overlap.sum(axis=0)).sum())
        if leak > RHO_SUPPORT_TOL:
            return math.inf
    r_pos = np.clip(r_vals, 0.0, None)
    ent = float((r_pos[r_pos > 0] * np.log2(r_pos[r_pos > 0])).sum())
    cross = float(np.einsum("ij,ji->", r_m, log_s).real)
    return max(ent - cross, 0.0)


def entropy_identity_check(rho, sigma) -> float:
    """|D(rho||sigma) - (-H(spec rho) - sum_i pinch(rho)_i log2 t_i)|.

    The identity holds for any states with sigma nonsingular; a singular
    sigma is a domain error.
    """
    s_m = assert_state(sigma)
    t, basis = eigenbasis(s_m)
    if t.min() <= SIGMA_NULL_TOL:
        raise ValueError("sigma must be nonsingular for the identity")
    lhs = qrel_entropy(rho, s_m)
    r_tilde = pinch(rho, basis)
    rhs = -entropy(spectrum(rho)) - float((r_tilde * np.log2(t)).sum())
    return abs(lhs - rhs)


def trace_norm(a) -> float:
    """Sum of singular values."""
    m = np.asarray(a, dtype=complex)
    return float(np.linalg.svd(m, compute_uv=False).sum())


def trace_distance(rho, sigma) -> float:
    return 0.5 * trace_norm(np.asarray(rho) - np.asarray(sigma))


def depolarize(rho, delta: float) -> np.ndarray:
    """(1 - delta) rho + delta tr(rho) I/d."""
    m = np.asarray(rho, dtype=complex)
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta={delta} outside [0, 1]")
    d = m.shape[0]
    return (1.0 - delta) * m + delta * m.trace() * np.eye(d) / d


def depolarize_adjoint(op, delta: float) -> np.ndarray:
    """Adjoint of `depolarize`; the channel is self-adjoint, same formula.

    Satisfies tr{depolarize_adjoint(A) rho} = tr{A depolarize(rho)}.
    """
    return depolarize(op, delta)


def binary_entropy(t: float) -> float:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"binary entropy argument {t} outside [0, 1]")
    if t in (0.0, 1.0):
        return 0.0
    return float(-t * math.log2(t) - (1 - t) * math.log2(1 - t))


def fannes_audenaert_bound(tau: float, d: int, t_min: float) -> float:
    """Entropy-difference bound tau log2 d + h(tau) + tau log2(1/t_min)."""
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau={tau} outside [0, 1]")
    if not 0.0 < t_min <= 1.0:
        raise ValueError(f"t_min={t_min} outside (0, 1]")
    return tau * math.log2(d) + binary_entropy(tau) + tau * math.log2(1.0 / t_min)


def bloch_state(x) -> np.ndarray:
    """Qubit state (I + x . pauli)/2 for a Bloch vector with |x| <= 1."""
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have three components")
    if np.linalg.norm(v) > 1.0 + 1e-12:
        raise ValueError(f"Bloch vector has norm {np.linalg.norm(v)} > 1")
    x1, x2, x3 = v
    return 0.5 * np.array(
        [[1.0 + x3, x1 - 1j * x2], [x1 + 1j * x2, 1.0 - x3]], dtype=complex
    )


def bloch_spiral(shells, n_dir: int) -> np.ndarray:
    """Qubit states on a golden-angle (Fibonacci) spiral of n_dir Bloch directions.

    Direction i has z = 1 - (2 i + 1) / n_dir and azimuth i pi (3 - sqrt 5);
    the spiral is repeated at each Bloch length in `shells`, in order.
    Returns one complex array of shape (len(shells) * n_dir, 2, 2), entry
    for entry the `bloch_state` of each point; ValueError if a point lies
    outside the Bloch ball.
    """
    i = np.arange(n_dir)
    z = 1.0 - 2.0 * (i + 0.5) / n_dir
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    shell = np.asarray(shells, dtype=float)[:, None]
    x1, x2, x3 = (
        (shell * c).ravel() for c in (r * np.cos(phi), r * np.sin(phi), z)
    )
    norm = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    if (norm > 1.0 + 1e-12).any():
        raise ValueError(f"Bloch vector has norm {norm.max()} > 1")
    return 0.5 * np.stack([
        np.stack([1.0 + x3, x1 - 1j * x2], axis=-1),
        np.stack([x1 + 1j * x2, 1.0 - x3], axis=-1),
    ], axis=-2)


def random_state(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random density matrix from a complex Ginibre factor of given rank."""
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    return m / m.trace().real


def state_with_spectrum_and_diagonal(spec, diag) -> np.ndarray:
    """Real symmetric state with the given spectrum and diagonal.

    Applies a chain of two-coordinate rotations to diag(spec), fixing one
    diagonal entry at a time; requires the decreasing rearrangement of
    `diag` to be majorized by `spec`, otherwise ValueError.
    """
    s = np.sort(np.asarray(spec, dtype=float))[::-1]
    m_target = np.asarray(diag, dtype=float)
    if s.ndim != 1 or s.shape != m_target.shape:
        raise ValueError("spectrum and diagonal must be equal-length vectors")
    d = s.shape[0]
    if abs(s.sum() - m_target.sum()) > 1e-9:
        raise ValueError("spectrum and diagonal must have equal sums")
    sorted_targets = np.sort(m_target)[::-1]
    if not np.all(np.cumsum(s) >= np.cumsum(sorted_targets) - 1e-12):
        raise ValueError("diagonal is not majorized by spectrum")

    mat = np.diag(s.astype(float))
    free = list(range(d))
    fixed: list[int] = []  # coordinate holding sorted_targets[k], in order
    for k in range(d - 1):
        target = sorted_targets[k]
        vals = [(mat[i, i], i) for i in free]
        exact = min(vals, key=lambda vi: abs(vi[0] - target))
        if abs(exact[0] - target) <= 1e-13:
            free.remove(exact[1])
            fixed.append(exact[1])
            continue
        above = [vi for vi in vals if vi[0] > target]
        below = [vi for vi in vals if vi[0] < target]
        if not above or not below:
            raise ValueError("diagonal is not majorized by spectrum")
        vi, i = min(above)
        vj, j = max(below)
        c = math.sqrt((target - vj) / (vi - vj))
        t = math.sqrt(1.0 - c * c)
        rot_i = c * mat[i, :] + t * mat[j, :]
        rot_j = -t * mat[i, :] + c * mat[j, :]
        mat[i, :], mat[j, :] = rot_i, rot_j
        col_i = c * mat[:, i] + t * mat[:, j]
        col_j = -t * mat[:, i] + c * mat[:, j]
        mat[:, i], mat[:, j] = col_i, col_j
        free.remove(i)
        fixed.append(i)
    fixed.append(free[0])
    if abs(mat[fixed[-1], fixed[-1]] - sorted_targets[-1]) > 1e-8:
        raise ArithmeticError("rotation chain failed to land on the last target")

    # permute coordinates so the diagonal matches `diag` in its given order
    order = np.argsort(-m_target, kind="stable")
    perm = np.empty(d, dtype=int)
    for k in range(d):
        perm[order[k]] = fixed[k]
    return mat[np.ix_(perm, perm)]
