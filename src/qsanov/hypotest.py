"""Composite-null tests from frequency/frame projectors, and their exponents.

A test against a null family of states and an alternative sigma keeps the
label pairs (f, lam) whose normalized frequency and frame both sit within
epsilon (in l1) of the pinched diagonal and the spectrum of some null
state. The acceptance operator is the sum of the corresponding projector
blocks, built in the eigenbasis of sigma.

Its errors are sums over the labels (`label_errors`), taken at every d on
the U(d) irreps pi_lam in the Gelfand-Tsetlin basis (`schur_weyl.gt_irrep`),
whose weights are the label frequencies: the mass of X^n on label
(f, lam) is one entry of the log weight-mass table of (lam, X), the
type-two error sums the accepted entries of sigma's table, and the
type-one error of a state the rejected entries of its own, or, on a frame
with no accepted weight, the whole table of its spectrum. The miss of
every word state of a larger alphabet is taken per letter-count type: at
d = 2 from forms in the letter weights, at d >= 3 as one minus
the accepted word-block weights (`block_weight`) of the sorted word of
that type. No d**n operator is formed. The dense functions (`build_test`,
`type_one`, `type_two`) remain as the oracles of the label path and
behind the dense AVQS checks; the latter two contract P against the
state one site at a time (`schur_weyl.product_trace`), so rho^n is never
formed.

The Neyman-Pearson baseline works on the same irreps: the blocks
pi_lam(rho) and pi_lam(sigma) of rho^n and sigma^n (Schur-Weyl duality),
with the S_n irrep dimension as multiplicity. No d**n operator is formed.
Its search over the likelihood threshold t is certified: every sweep of
eigh over the blocks of rho^n - t sigma^n yields the beta of a feasible
test (an upper bound) and the Lagrange dual bound (a lower one), and the
search stops once the two meet within tol, relative. When the blocks of
rho^n and sigma^n commute, two sweeps suffice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeGuardError, VerificationError
from .quantum import (
    _pinched,
    _spectra,
    assert_basis,
    assert_state,
    assert_states,
    eigenbasis,
    qrel_entropy,
    spectrum,
)
from .schur_weyl import (
    GUARD_LIMIT,
    _weight_masses,
    dense_from_blocks,
    frequency_blocks,
    gt_irrep,
    product_trace,
    word_block_state,
)
from .tableaux import (
    ALPHA,
    _dominates,
    enumerate_frames,
    enumerate_frequencies,
    hook_dimension,
    log_factorials,
    log_hook_dimension,
)

SIGMA_MIN_EIG = 1e-12
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


@dataclass
class TestSpec:
    """Inputs of one projector test.

    `null_set` lists the null-hypothesis states (a sequence of d x d
    states or a (K, d, d) stack; it is kept as the validated complex
    stack); with `hull=True` the null is their convex hull, probed on a
    mixing-weight grid of pitch about epsilon/4 (SizeGuardError above
    GUARD_LIMIT grid points).
    """

    sigma: np.ndarray
    null_set: np.ndarray
    epsilon: float
    n: int
    hull: bool = False

    def __post_init__(self):
        self.sigma = assert_state(self.sigma)
        if not len(self.null_set):
            raise ValueError("null_set must contain at least one state")
        if any(np.shape(s) != self.sigma.shape for s in self.null_set):
            raise ValueError("all states must share the dimension of sigma")
        self.null_set = assert_states(self.null_set)[0]
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


def _null_candidates(spec: TestSpec) -> np.ndarray:
    """The null states that `lambda_set` probes, as one (K, d, d) stack.

    Without the hull (or with one null state) these are the K = |S| nulls.
    With it they are the K = C(steps + |S| - 1, |S| - 1) mixtures of the
    weight grid of pitch 1/steps, in `enumerate_frequencies` order: every
    mixture at once, as an |S|-term sum over the stacked nulls, in the same
    order and rounding as adding the weighted states one at a time.
    """
    nulls = spec.null_set
    if not spec.hull or len(nulls) == 1:
        return nulls
    steps = max(1, math.ceil(1.0 / max(spec.epsilon / 4.0, 1e-3)))
    size = len(nulls)
    count = math.comb(steps + size - 1, size - 1)
    if count > GUARD_LIMIT:
        raise SizeGuardError(
            f"|S| = {size}: a hull grid of {count} mixtures exceeds the guard of {GUARD_LIMIT}"
        )
    weights = np.array(enumerate_frequencies(size, steps), float) / steps
    return sum(weights[:, s, None, None] * nulls[s] for s in range(size))


def _label_band(states, basis, epsilon: float, d: int, n: int):
    """The epsilon-band of the label criterion: (freqs, frames, freq_ok, frame_ok).

    `states` is a (K, d, d) stack, or a sequence of K states. freqs (a list
    of count tuples) and frames (a list of parts) are the frequencies and
    frames of n letters in d. freq_ok, a (K, len(freqs)) bool array, says
    that the pinching of state i in `basis` lies within epsilon (l1) of
    freqs[q]/n; frame_ok, (K, len(frames)), that its spectrum lies within
    epsilon of frames[j]/n, padded to d parts. The K states are validated,
    pinched and diagonalised together: one batched `eigvalsh` (the
    validator's, `assert_states`) and one `einsum`.
    """
    freqs = enumerate_frequencies(d, n)
    frames = enumerate_frames(d, n)

    def within(points, centres):
        return np.stack([np.abs(points - c).sum(axis=1) <= epsilon for c in centres], axis=1)

    m, evals = assert_states(states)
    freq_ok = within(_pinched(m, assert_basis(basis)), np.array(freqs, float) / n)
    frame_ok = within(
        _spectra(evals),
        np.array([lam + (0,) * (d - len(lam)) for lam in frames], dtype=float) / n,
    )
    return freqs, frames, freq_ok, frame_ok


def lambda_set(spec: TestSpec) -> frozenset[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Label pairs (f, lam) accepted by the test.

    A pair is kept when a single candidate null state has its pinched
    diagonal within epsilon of f/n and its spectrum within epsilon of the
    normalized frame, both in l1 (`_label_band`). Pairs with K_{f,lam} = 0
    (lam does not dominate f) are dropped: their blocks are empty.
    """
    freqs, frames, freq_ok, frame_ok = _label_band(
        _null_candidates(spec), spec.basis, spec.epsilon, spec.d, spec.n
    )
    pairs = ((freqs[q], frames[j]) for q, j in zip(*np.nonzero(freq_ok.T @ frame_ok)))
    return frozenset(pair for pair in pairs if _dominates(*pair))


def build_test(spec: TestSpec, labels=None) -> np.ndarray:
    """Acceptance projector, dense in computational coordinates.

    Sums the (f, lam) blocks of `lambda_set` in the sigma eigenbasis and
    rotates the result back to computational coordinates. Hermitian and
    idempotent; real whenever the eigenbasis is real.
    """
    if labels is None:
        labels = lambda_set(spec)
    pieces = (
        (f, block)
        for f, lam in sorted(labels)
        if (block := frequency_blocks(f).get(lam)) is not None
    )
    return dense_from_blocks(pieces, spec.d, spec.n, spec.basis)


def _infer_sites(op_dim: int, d: int) -> int:
    n = round(math.log(op_dim) / math.log(d))
    if d**n != op_dim:
        raise ValueError(f"operator dimension {op_dim} is not a power of {d}")
    return n


def _power_trace(p_n, state) -> float:
    """tr{P state^n}, contracted site by site (`product_trace`)."""
    p = np.asarray(p_n)
    s_m = assert_state(state)
    n = _infer_sites(p.shape[0], s_m.shape[0])
    return float(product_trace(p, np.broadcast_to(s_m, (n, *s_m.shape))).real)


def type_one(p_n, rho) -> float:
    """1 - tr{P rho^n}; P and rho in the same (computational) coordinates.

    rho^n is not formed: the trace is contracted one site at a time.
    """
    return 1.0 - _power_trace(p_n, rho)


def type_two(p_n, sigma) -> float:
    """tr{P sigma^n}; P and sigma in the same (computational) coordinates.

    sigma^n is not formed: the trace is contracted one site at a time.
    """
    return _power_trace(p_n, sigma)


WORD_POLY_LIMIT = 1 << 22


@dataclass
class LabelErrors:
    """Errors of a label test, computed from its labels alone.

    `log_type_two` is ln tr{P sigma^n}, -inf when no label is accepted, in
    numpy's long double, so that its exp keeps the float precision of a
    plain sum. `type_two` reads exp(log_type_two): it underflows to 0.0
    once ln t2 is below about -745, where the log stays exact. `misses`
    maps each letter-count type c of the alphabet (c[s] letters s) to
    tr{(1 - P) rho_w}, which is the same for every word w of that type
    because P is permutation invariant. A one-state alphabet [rho] has the
    single type (n,), whose miss is the type-one error of rho.
    """

    log_type_two: float
    misses: dict[tuple[int, ...], float]

    @property
    def type_two(self) -> float:
        return float(np.exp(self.log_type_two))


def label_errors(spec: TestSpec, labels=None, alphabet=()) -> LabelErrors:
    """Type-two error and word-state misses of a label test, at every d.

    Both come from the U(d) irreps pi_lam in the Gelfand-Tsetlin basis,
    whose weights are the frequencies f of the labels (f, lam); labels with
    K_{f,lam} = 0 (empty blocks) are dropped first. The mass of X^n on
    label (f, lam), d_lam tr{Pi_f pi_lam(X)}, is cell f[:-1] of the log
    weight-mass table of (lam, X) (`schur_weyl._weight_masses`), and each
    frame keeps one boolean mask of its accepted cells. Since sigma^n is
    diagonal in its own eigenbasis, the type-two error sums the table of
    sigma' = diag(t) under the masks, with no eigh, as one log-sum-exp in
    long double (`LabelErrors.log_type_two`), so it never underflows. A
    miss is taken per letter-count type c of the alphabet, with
    rho' = B^dag rho B (B the sigma eigenbasis). The miss of a one-state
    alphabet [rho] is the mass of rho'^n off the masks, with no 1 - sum
    term: per frame, the table of rho' off its mask (none when the
    nonsingular sigma' has no finite entry there: every weight is
    accepted), or, when no weight is, the whole table of diag(spec rho),
    whose sum d_lam s_lam(spec rho) does not depend on the basis (no
    further eigh, and no pattern at d = 2). For a larger alphabet, at
    d = 2 it is the mass of X = sum_s y_s rho'_s off the masks, read off
    per monomial y^c and divided by the multinomial C(n; c) (see
    `_qubit_label_mass`); at d >= 3 it is one minus the accepted
    `block_weight`s of the sorted word of type c, so only the word blocks
    of accepted frequencies are built (word states are not of the form
    X^(x n)). No d**n operator is formed. With no label left the test is
    empty, and the errors are exact: ln t2 = -inf and every miss 1, with
    no table, form or word block built. Raises VerificationError when the
    type-two error is NaN or +inf, or a miss is not finite, which the
    [0, 1] clamp on the misses would otherwise pass through.
    """
    if labels is None:
        labels = lambda_set(spec)
    labels = sorted((f, lam) for f, lam in labels if _dominates(f, lam))
    d, n = spec.d, spec.n
    b = spec.basis
    states = [b.conj().T @ assert_state(s) @ b for s in alphabet]
    types = enumerate_frequencies(len(states), n) if states else []
    if not labels:
        return LabelErrors(log_type_two=np.longdouble(-np.inf), misses=dict.fromkeys(types, 1.0))
    frames = {lam for _, lam in labels}
    masks = {lam: np.zeros((lam[0] + 1,) * (d - 1), dtype=bool) for lam in frames}
    for f, lam in labels:
        masks[lam][f[:-1]] = True
    sigma_key = np.diag(spec.t).astype(complex).tobytes()
    accepted, full = [np.empty(0)], set()
    for lam, mask in sorted(masks.items()):
        logs = _weight_masses(lam, d, sigma_key)
        accepted.append(logs[mask])
        if not np.isfinite(logs[~mask]).any():
            full.add(lam)
    cells = np.concatenate(accepted).astype(np.longdouble)
    top = cells.max(initial=-np.inf)
    log_t2 = top + np.log(np.exp(cells - top).sum()) if np.isfinite(top) else top
    if np.isnan(log_t2) or log_t2 == np.inf:
        raise VerificationError(f"type-two error {np.exp(log_t2)} is not finite at n={n}")
    if not states:
        return LabelErrors(log_type_two=log_t2, misses={})
    if len(states) == 1:
        key = np.ascontiguousarray(states[0]).tobytes()
        spectrum_key = np.diag(np.linalg.eigvalsh(states[0])).astype(complex).tobytes()
        miss = 0.0
        for lam in enumerate_frames(d, n):
            mask = masks.get(lam)
            if mask is None:
                miss += float(np.exp(_weight_masses(lam, d, spectrum_key)).sum())
            elif lam not in full:
                miss += float(np.exp(_weight_masses(lam, d, key)[~mask]).sum())
        misses = [miss]
    elif d == 2:
        # cell lam_2 + a of the tables of lam = (n - k, k) is weight (k + a, n - k - a)
        rejected = np.ones((n // 2 + 1, n + 1), dtype=bool)
        for lam, mask in masks.items():
            k = lam[1] if len(lam) > 1 else 0
            rejected[k, : n - 2 * k + 1] = ~mask[k:]
        mass = _qubit_label_mass(states, n, rejected)
        log_fact = log_factorials(n)
        misses = [
            float(mass[c[1:]] * np.exp(sum(log_fact[x] for x in c) - log_fact[n]))
            for c in types
        ]
    else:
        # the accepted part of each word block, summed over its frames
        blocks = {}
        for f, lam in labels:
            blocks[f] = blocks.get(f, 0.0) + frequency_blocks(f)[lam]
        misses = []
        for c in types:
            sites = [states[s] for s, k in enumerate(c) for _ in range(k)]
            misses.append(1.0 - sum(
                float(np.einsum("ab,ba->", block, word_block_state(f, sites)).real)
                for f, block in blocks.items()
            ))
    bad = [c for c, miss in zip(types, misses) if not math.isfinite(miss)]
    if bad:
        raise VerificationError(
            f"{len(bad)} of {len(types)} word-type misses are not finite at n={n}, first c={bad[0]}"
        )
    return LabelErrors(
        log_type_two=log_t2,
        misses={c: min(max(miss, 0.0), 1.0) for c, miss in zip(types, misses)},
    )


def _times(p: np.ndarray, deg: int, form, form_deg: int, nvar: int) -> np.ndarray:
    """Product of forms p (degree deg, batched on leading axes) with `form`.

    A form of degree g in y_0..y_nvar is stored by its coefficients after
    setting y_0 = 1: entry [c_1, ..., c_nvar] of an array with nvar axes of
    length g + 1 holds the coefficient of y_0^(g - sum c) y_1^c_1 ... .
    `form` is a small form given as (exponent, coefficient) pairs.
    """
    out = np.zeros(p.shape[: p.ndim - nvar] + (deg + form_deg + 1,) * nvar)
    for exp, coef in form:
        out[(...,) + tuple(slice(e, e + deg + 1) for e in exp)] += coef * p
    return out


def _qubit_label_mass(states, n: int, selected: np.ndarray) -> np.ndarray:
    """sum over selected (k, a) of d_k det(X)^k Sym^(n-2k)(X)[a, a].

    X = sum_s y_s states[s]; the result is a form of degree n in y (see
    `_times`), whose coefficient of y^c is the mass of all words of letter
    type c on the selected labels. Label (k, a) is lam = (n - k, k) with
    f = (k + a, n - k - a), and selected[k, a] picks it.

    With A = X00, D = X11 and E = X01 X10, the diagonal of Sym^m is
    Sym^m(X)[a, a] = sum_i C(a, i) C(m - a, i) A^(a-i) D^(m-a-i) E^i,
    the coefficient of u^a v^(m-a) in (A u + X10 v)^a (X01 u + D v)^(m-a)
    (Sym^m(X) in the orthonormal symmetric basis, read on its diagonal).
    A, D, E and det X are real forms, the binomials and d_k are combined
    in logs, and det^k and E^i enter by Horner steps.
    """
    n_states = len(states)
    nvar = n_states - 1
    size = (n + 1) ** n_states
    if size > WORD_POLY_LIMIT:
        raise SizeGuardError(
            f"|S| = {n_states}, n = {n}: word-type forms of (n + 1)**|S| = {size} "
            f"coefficients exceed the guard of {WORD_POLY_LIMIT}"
        )
    x00 = np.array([s[0, 0].real for s in states])
    x11 = np.array([s[1, 1].real for s in states])
    x01 = np.array([s[0, 1] for s in states])
    cross = np.real(np.outer(x01, x01.conj()))
    det = 0.5 * (np.outer(x00, x11) + np.outer(x11, x00)) - cross
    np.fill_diagonal(det, np.clip(np.diagonal(det), 0.0, None))
    unit = [tuple(int(s == v + 1) for v in range(nvar)) for s in range(n_states)]

    def linear(v):
        return [(unit[s], v[s]) for s in range(n_states)]

    def quadratic(q):
        return [
            (tuple(a + b for a, b in zip(unit[s], unit[r])), q[s, r] * (1 + (s != r)))
            for s in range(n_states)
            for r in range(s, n_states)
        ]

    a_form, d_form = linear(x00), linear(x11)
    e_form, det_form = quadratic(cross), quadratic(det)
    log_fact = log_factorials(n)
    log_dim = [log_hook_dimension((n - k, k)) for k in range(n // 2 + 1)]
    # powers[j] = A^j D^(deg - j) for the current degree; terms[q][k] =
    # sum_j d_k C(a, i) C(m - a, i) A^j D^(M-j) over the selected a = i + j,
    # with i = q - k and M = n - 2q
    powers = np.ones((1,) + (1,) * nvar)
    terms = {}
    for deg in range(n + 1):
        if deg:
            powers = np.concatenate([
                _times(powers, deg - 1, d_form, 1, nvar),
                _times(powers[-1:], deg - 1, a_form, 1, nvar),
            ])
        if (n - deg) % 2:
            continue
        q = (n - deg) // 2
        j = np.arange(deg + 1)
        weights = np.zeros((q + 1, deg + 1))
        for k in range(q + 1):
            i = q - k
            a = i + j
            log_w = (
                log_dim[k]
                + log_fact[a] - log_fact[i] - log_fact[j]
                + log_fact[deg - j + i] - log_fact[i] - log_fact[deg - j]
            )
            weights[k] = np.where(selected[k, a], np.exp(log_w), 0.0)
        terms[q] = np.tensordot(weights, powers, axes=1)
    total = None
    for k in range(n // 2, -1, -1):
        acc = None
        for q in range((n - 2 * k) // 2 + k, k - 1, -1):
            deg = n - 2 * q
            if acc is None:
                acc = terms[q][k]
            else:
                acc = _times(acc, deg - 2, e_form, 2, nvar) + terms[q][k]
        if total is None:
            total = acc
        else:
            total = _times(total, n - 2 * k - 2, det_form, 2, nvar) + acc
    return total


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


def feasibility_log2_bound(n: int, eps: float, d: int) -> float:
    """log2 of the type-one ceiling: -n (ALPHA eps^2 - (2 d*d / n) log2(2n))."""
    return -n * (ALPHA * eps * eps - (2.0 * d * d / n) * math.log2(2 * n))


@dataclass
class ExponentReport:
    """One n of `run_sanov`.

    `type2` is tr{P sigma^n}, which reads 0.0 once it is below the float
    range (2**-1074); `empirical_exponent`, -log2(t2)/n, is read from ln t2
    (`LabelErrors.log_type_two`) and stays exact and finite there, +inf
    only when no label is accepted. The type-two bound is checked in log2
    at every n.
    """

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
    state. The reference is the minimum of D(rho || sigma) over the null
    states, or with `hull=True` over their convex hull
    (`avqs.min_relative_entropy_hull`), whose minimizing mixture is then
    the null state of the baseline; the type-one error stays the worst
    over the listed states. Raises VerificationError if a type-two error
    exceeds its exponent bound 2**(-n(D - theta)), compared in log2 at
    every n: ln t2 (`LabelErrors.log_type_two`) does not underflow, so the
    check also runs where `type2` reads 0.0, and `empirical_exponent` is
    -log2(t2)/n read from the same log.

    Both errors come from the labels (`label_errors`) on the U(d) irreps in
    the Gelfand-Tsetlin basis, at every d, so no d**n operator is formed;
    a partly accepted frame is guarded at DENSE_LIMIT.
    """
    sigma = assert_state(sigma)
    null_states = [assert_state(s) for s in null_set]
    d = sigma.shape[0]
    if hull and len(null_states) > 1:
        from .avqs import min_relative_entropy_hull

        ref, w = min_relative_entropy_hull(null_states, sigma)
        rho_star = sum(wi * s for wi, s in zip(w, null_states))
    else:
        divergences = [qrel_entropy(s, sigma) for s in null_states]
        ref = min(divergences)
        rho_star = null_states[int(np.argmin(divergences))]
    reports = []
    for n in n_values:
        eps = epsilon_schedule(n, nu, d) if epsilon is None else epsilon
        eps = min(eps, 2.0)
        spec = TestSpec(sigma=sigma, null_set=null_states, epsilon=eps, n=n, hull=hull)
        labels = lambda_set(spec)
        errors = [label_errors(spec, labels, [s]) for s in null_states]
        log2_t2 = float(errors[0].log_type_two) / math.log(2.0)
        t1 = max(e.misses[(n,)] for e in errors)
        th = theta(n, eps, d, sigma)
        # in log2, since 2**(-n(D - theta)) overflows once n(theta - D) > 1024
        # and t2 underflows once log2 t2 < -1074
        log2_bound = -n * (ref - th)
        if log2_t2 > log2_bound + math.log2(1.0 + 1e-9):
            raise VerificationError(
                f"type-two 2**{log2_t2} above 2**(-n(D - theta)) = 2**{log2_bound} at n={n}"
            )
        beta = (
            neyman_pearson(rho_star, sigma, n, t1) if np_baseline else math.nan
        )
        reports.append(
            ExponentReport(
                n=n,
                eps=eps,
                type1_max=t1,
                type2=errors[0].type_two,
                empirical_exponent=-log2_t2 / n,
                reference_d=ref,
                theta=th,
                np_beta=beta,
            )
        )
    return reports


def _classical_np(p: np.ndarray, q: np.ndarray, target: float) -> tuple[float, int]:
    """Classical Neyman-Pearson: (min sum(q on test) s.t. sum(p on test) >= target, k).

    Outcomes are included in decreasing likelihood-ratio order with a
    fractional share of the marginal outcome k, the last one the test
    takes a share of (-1 when it takes none). The running sums are
    sequential (`cumsum`), as in an outcome-by-outcome loop that stops
    once the level is within 1e-15 of the target.
    """
    if target <= 0.0:
        return 0.0, -1
    ratio = np.where(q > 0, p / np.where(q > 0, q, 1.0), np.inf)
    ratio = np.where((q <= 0) & (p <= 0), -np.inf, ratio)
    order = np.argsort(-ratio, kind="stable")
    ps, qs = p[order], q[order]
    caught = np.cumsum(ps)
    before = np.concatenate(([0.0], caught[:-1]))
    # outcome j is reached unless the level was met before it; the first
    # one that would overshoot the target is taken in part, and is the last
    reached = np.flatnonzero(before >= target - 1e-15)
    stop = int(reached[0]) if len(reached) else len(ps)
    over = np.flatnonzero(caught[:stop] > target)
    j = int(over[0]) if len(over) else stop
    beta = float(np.cumsum(qs[:j])[-1]) if j else 0.0
    if j == stop:
        return beta, int(order[j - 1]) if j else -1
    return beta + float(qs[j]) * float((target - before[j]) / ps[j]), int(order[j])


def _hermitian(a: np.ndarray) -> np.ndarray:
    """(a + a^dag) / 2, returned real when its imaginary part is below 1e-15."""
    a = (a + a.conj().T) / 2.0
    return a.real if np.abs(a.imag).max() < 1e-15 else a


def _irrep_blocks(rho, sigma, n: int) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """U(d) irrep blocks (d_lam, pi_lam(rho), pi_lam(sigma)) in the GT basis.

    One block per frame with at most d rows; no d**n matrix is formed.
    """
    d = rho.shape[0]
    blocks = []
    for lam in enumerate_frames(d, n):
        irrep = gt_irrep(lam, d)
        blocks.append((
            float(hook_dimension(lam)),
            _hermitian(irrep.matrix(rho)),
            _hermitian(irrep.matrix(sigma)),
        ))
    return blocks


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


_TIE_ULPS = 16.0
_FINISH_GAP = 1e-12


def _np_sweep(blocks, traces, log_t: float):
    """Eigenvector masses of every block of (R - t S) / (1 + t) at one t.

    Returns (r, s, level) over the eigenvectors v of all blocks (mult, R,
    S): r_v = mult v^dag R v, s_v = mult v^dag S v, and v's eigenvalue in
    units of its block's rounding scale, eps (w_r tr R + w_s tr S) (the
    traces bound the norms), floored at the least normal float so that a
    block whose traces underflow gets finite levels. An eigenvalue within
    _TIE_ULPS such units of zero has a sign that rounding can flip, as at
    a likelihood-ratio tie at t. The 1/(1 + t) scaling keeps every t
    finite.
    """
    shift = float(np.logaddexp(0.0, log_t))
    w_r, w_s = math.exp(-shift), math.exp(log_t - shift)
    masses_r, masses_s, levels = [], [], []
    for (mult, r, s), (tr_r, tr_s) in zip(blocks, traces):
        vals, vecs = np.linalg.eigh(w_r * r - w_s * s)
        masses_r.append(mult * _diag_in(vecs, r))
        masses_s.append(mult * _diag_in(vecs, s))
        levels.append(vals / max(_EPS * (w_r * tr_r + w_s * tr_s), _TINY))
    return np.concatenate(masses_r), np.concatenate(masses_s), np.concatenate(levels)


def _np_over_blocks(blocks, bracket, target: float, tol: float) -> float:
    """Neyman-Pearson optimum over (multiplicity, R, S) blocks, certified.

    A sweep at log t diagonalizes every block of (R - t S)/(1 + t)
    (`_np_sweep`) and bounds the optimum beta* on both sides with no
    further eigh:
    - U(t) >= beta*, the classical optimum (`_classical_np`) over the
      eigenvector masses (r_v, s_v): the beta of a feasible test that is
      diagonal in that eigenbasis;
    - L(t) <= beta*, the Lagrange dual bound
      (target - tr(R - t S)_+) / t = beta_+ + (target - m_+) / t, with m_+
      and beta_+ the R and S masses of the positive part, so that no t
      overflows it.
    The search stops once min U - max L <= tol * min U, so the result is
    within tol of beta*, relative.

    The next point is the likelihood ratio log(r_k / s_k) of the marginal
    eigenvector k of the last U when it lies strictly inside the bracket,
    or the top of the bracket when k has the top ratio there and the top
    was never probed. When R and S commute in every block that ratio is
    the exact threshold, where L meets U, so the second sweep closes the
    gap. A ratio that did not halve the gap is followed by a bracket step:
    a regula falsi step on m_+ - target (with the Illinois halving of a
    stale end) when the bracket halved over the last two sweeps, else the
    midpoint.

    The bracket (lo, hi) holds the threshold: the positive part at lo
    accepts at least the target mass, the one at hi less. A likelihood
    ratio may sit on a tie, where rounding picks the sign of the tied
    eigenvalues; a sweep there moves an end only when no eigenvalue
    within _TIE_ULPS of zero can flip the verdict (L is exact at a tie
    anyway). A bracket width of tol is the worst-case stop.

    The finish mixes the tests at the two bracket ends to meet the target
    level: a feasible point on the chord of the convex optimal-beta curve,
    off beta* by the product of the ends' distances from the target mass.
    When the gap closed above _FINISH_GAP, one or two more sweeps probe the
    far side of the threshold, mirrored across the secant root of the last
    two verdicts on the near side, so that both ends are close. The result
    is the smallest feasible beta found.
    """
    lo, hi = bracket
    traces = [(float(np.trace(r).real), float(np.trace(s).real)) for _, r, s in blocks]
    # above the bracket R - t S <= 0, so the test at hi is empty; below it
    # the positive part holds (nearly) all of rho's mass
    ends = {"hi": (0.0, 0.0)}
    f_lo, f_hi, moved = 1.0 - target, -target, None
    upper, lower = math.inf, -math.inf
    probed, widths, verdicts = set(), [hi - lo] * 3, []

    def sweep(log_t: float, at_ratio: bool):
        """Bounds and bracket from one sweep; the marginal log ratio or None."""
        nonlocal lo, hi, f_lo, f_hi, moved, upper, lower
        probed.add(log_t)
        r, s, level = _np_sweep(blocks, traces, log_t)
        beta, k = _classical_np(r, s, target)
        upper = min(upper, beta)
        pos = level > 0
        got, beta_pos = float(r[pos].sum()), float(s[pos].sum())
        if -log_t < 700.0:
            lower = max(lower, beta_pos + (target - got) * math.exp(-log_t))
        if at_ratio:
            # a likelihood ratio may be a tie: no verdict that rounding flips
            firm, loose = level > _TIE_ULPS, level >= -_TIE_ULPS
            if r[firm].sum() >= target:
                pos = firm
            elif r[loose].sum() < target:
                pos = loose
            else:
                pos = None
            if pos is not None:
                got, beta_pos = float(r[pos].sum()), float(s[pos].sum())
        if pos is not None:
            verdicts.append((log_t, got - target))
            if got >= target:
                lo, ends["lo"], f_lo = log_t, (got, beta_pos), got - target
                f_hi *= 0.5 if moved == "lo" else 1.0
                moved = "lo"
            else:
                hi, ends["hi"], f_hi = log_t, (got, beta_pos), got - target
                f_lo *= 0.5 if moved == "hi" else 1.0
                moved = "hi"
        if k >= 0 and r[k] > 0.0 and s[k] > 0.0:
            return math.log(r[k]) - math.log(s[k])
        return None

    guess = None
    for _ in range(200):
        if hi - lo <= tol or upper - lower <= tol * upper < math.inf:
            break
        gap = upper - lower
        at_ratio = guess is not None and (
            lo < guess < hi and guess not in probed or guess >= hi and hi not in probed
        )
        if at_ratio:
            log_t = min(guess, hi)
        else:
            secant = lo + (hi - lo) * f_lo / (f_lo - f_hi)
            halved = hi - lo <= 0.5 * widths[-3]
            if halved and lo < secant < hi and secant not in probed:
                log_t = secant
            else:
                log_t = 0.5 * (lo + hi)
        guess = sweep(log_t, at_ratio)
        if at_ratio and not upper - lower <= 0.5 * gap:
            guess = None
        widths.append(hi - lo)
    # mirror the near end across the threshold, so the chord's ends are close
    if _FINISH_GAP * upper < upper - lower <= tol * upper and "lo" in ends:
        near_lo = ends["lo"][0] - target <= target - ends["hi"][0]
        near = [(x, g) for x, g in verdicts if (g >= 0) == near_lo]
        if len(near) >= 2 and near[-1][1] != near[-2][1]:
            (x1, g1), (x2, g2) = near[-2:]
            for stretch in (2.0, 4.0):
                x = x2 - stretch * g2 * (x2 - x1) / (g2 - g1)
                if not lo < x < hi:
                    break
                sweep(x, False)
                if (x == lo) != near_lo:
                    break
    if "lo" not in ends and not upper - lower <= tol * upper:
        sweep(lo, False)
    if "lo" in ends:
        (p_lo, b_lo), (p_hi, b_hi) = ends["lo"], ends["hi"]
        if p_lo > p_hi:
            w = min(max((target - p_hi) / (p_lo - p_hi), 0.0), 1.0)
            upper = min(upper, w * b_lo + (1.0 - w) * b_hi)
    return upper


def neyman_pearson(rho, sigma, n: int, nu: float, tol: float = 1e-10) -> float:
    """Optimal type-two error at type-one level nu for rho^n against sigma^n.

    Both operators commute with S_n, so they split into U(d) irrep blocks
    pi_lam(.) (x) 1_{d_lam} and the optimal test does too. The blocks are
    pi_lam in the Gelfand-Tsetlin basis, one per frame with at most d rows,
    guarded at DENSE_LIMIT per irrep. No d**n matrix is formed.

    The likelihood threshold t is searched in log t (`_np_over_blocks`).
    Each sweep bounds the optimum from above, by the classical optimum in
    the sweep's eigenbasis (a feasible test), and from below, by the
    Lagrange dual ((1 - nu) - tr(R - t S)_+) / t. `tol` is the relative
    gap between the best two bounds at which the search stops, with a
    bracket of width tol in log t as the fallback stop. The tests at the
    two bracket ends are then mixed to meet the type-one constraint
    exactly, one more feasible candidate; the result is the smallest
    feasible beta found, clamped into [0, 1]:
    the eigh rounding can leave a beta near 0 a few 1e-17 below it, and
    the nu = 0 value of a nonsingular rho a few ulps above 1.

    At nu = 0 the test must act as the identity on supp(rho)^n, so the
    optimum is tr(Pi sigma)^n, Pi the projector onto the eigenvectors of
    rho above SIGMA_MIN_EIG; the search would resolve that level only up
    to the rounding of a singular rho^n. At nu = 1 the empty test is
    optimal, and 0.0 is returned with no eigh.
    """
    rho_m = assert_state(rho)
    s_m = assert_state(sigma)
    if not 0.0 <= nu <= 1.0:
        raise ValueError("nu must be in [0, 1]")
    if nu == 1.0:
        return 0.0
    if nu == 0.0:
        vals, vecs = np.linalg.eigh(rho_m)
        support = vecs[:, vals > SIGMA_MIN_EIG]
        beta = float(_diag_in(support, s_m).sum()) ** n
    else:
        bracket = _log_threshold_bracket(rho_m, s_m, n)
        beta = _np_over_blocks(_irrep_blocks(rho_m, s_m, n), bracket, 1.0 - nu, tol)
    return min(max(beta, 0.0), 1.0)
