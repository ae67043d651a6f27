"""Partitions, type classes, and Kostka combinatorics for small alphabets.

Conventions used throughout the package:

* all logarithms and entropies are base 2,
* ``0 * log(0) = 0`` and ``2**(-inf) = 0``,
* a partition ("frame") is a weakly decreasing tuple of positive ints,
* a frequency is a tuple of nonnegative ints of fixed length ``d``,
* labels are plain tuples (`enumerate_frames`, `enumerate_frequencies`),
  checked in one place against the n and d they are used with
  (`_frame_parts`, `_freq_counts`): a frame partitions n in at most d
  rows, a frequency has d letters summing to n. Counts and masses over an
  empty block read 0 (`kostka`, `schur_weyl.weyl_dimension`,
  `schur_weyl.block_weight`); every other mismatch raises ValueError
  naming the label and the n or d it fails,
* a label set is read in one place (`_accepted_labels`), and a
  probability row (vector, spectrum, pinching) by one rule (`_prob_rows`),
* normalized vectors are numpy arrays summing to one.

Counting functions (`hook_dimension`, `type_class_size`, `kostka`) work in
exact integer arithmetic. Every log-combinatorial quantity comes from one
table, ln m! in numpy's long double (`log_factorials`), so no big integer
is formed where only its log is used (`log_hook_dimension`).
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

# Pinsker constant for base-2 relative entropy: D(p||q) >= ALPHA * |p - q|_1^2.
ALPHA = 1.0 / (2.0 * math.log(2.0))
# Tolerance of the input checks on probability vectors, states and bases.
CHECK_TOL = 1e-9
# Rounding of a state's eigenvalue or pinching sums against its trace (<= 5 eps, d <= 32).
SUM_ROUNDING = 1e-14
# Slack of the partial-sum comparisons in `majorizes`.
MAJORIZE_TOL = 1e-12


def _frame_parts(lam, n: int | None = None, d: int | None = None) -> tuple[int, ...]:
    """lam as a frame: weakly decreasing positive int parts, trailing zeros dropped.

    ValueError unless the parts sum to n and number at most d, where given.
    """
    ps = tuple(int(p) for p in lam)
    while ps and ps[-1] == 0:
        ps = ps[:-1]
    if any(p <= 0 for p in ps):
        raise ValueError(f"frame parts must be positive: {ps!r}")
    if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
        raise ValueError(f"frame parts must be weakly decreasing: {ps!r}")
    if n is not None and sum(ps) != n:
        raise ValueError(f"frame {ps} does not partition n = {n}")
    if d is not None and len(ps) > d:
        raise ValueError(f"frame {ps} has more than {d} rows: it does not fit d = {d}")
    return ps


def _freq_counts(f, n: int | None = None, d: int | None = None) -> tuple[int, ...]:
    """f as letter counts: a nonempty tuple of nonnegative ints.

    ValueError unless there are d counts summing to n, where given.
    """
    cs = tuple(int(c) for c in f)
    if not cs:
        raise ValueError("frequency needs at least one letter")
    if any(c < 0 for c in cs):
        raise ValueError(f"counts must be nonnegative: {cs!r}")
    if d is not None and len(cs) != d:
        raise ValueError(f"frequency {cs} has {len(cs)} letters, not d = {d}")
    if n is not None and sum(cs) != n:
        raise ValueError(f"frequency {cs} does not sum to n = {n}")
    return cs


def _accepted_labels(labels, n: int, d: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """A set of labels (f, lam) as {f: [lam, ...]}, the one reading of a label set.

    Each label is checked against n and d; labels equal once checked count
    once, empty blocks (K_{lam,f} = 0) are dropped, and the f and each f's
    frames are listed in sorted order.
    """
    accepted: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for f, lam in labels:
        counts, parts = _freq_counts(f, n, d), _frame_parts(lam, n, d)
        if _dominates(counts, parts):
            accepted.setdefault(counts, set()).add(parts)
    return {f: sorted(accepted[f]) for f in sorted(accepted)}


def enumerate_frames(d: int, n: int) -> list[tuple[int, ...]]:
    """All partitions of n into at most d parts, as tuples of positive parts.

    Descending lexicographic: (n,) first.
    """
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, prefix: list[int]):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if len(prefix) == d:
            return
        # the last row takes all that remains
        lowest = remaining if len(prefix) == d - 1 else 1
        for p in range(min(remaining, cap), lowest - 1, -1):
            prefix.append(p)
            rec(remaining - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return out


def enumerate_frequencies(d: int, n: int) -> list[tuple[int, ...]]:
    """All length-d count tuples summing to n, lexicographic: (0, ..., 0, n) first."""
    if d < 1 or n < 0:
        raise ValueError("need d >= 1 and n >= 0")
    out: list[tuple[int, ...]] = []

    def rec(pos: int, remaining: int, prefix: list[int]):
        if pos == d - 1:
            out.append((*prefix, remaining))
            return
        for c in range(remaining + 1):
            prefix.append(c)
            rec(pos + 1, remaining - c, prefix)
            prefix.pop()

    rec(0, n, [])
    return out


def _name(flags: np.ndarray, noun: str) -> tuple[tuple[int, ...], str]:
    """(index, name) of the first flagged row: the noun alone for one row."""
    idx = np.unravel_index(int(np.flatnonzero(flags)[0]), flags.shape)
    return idx, f"{noun} {idx[0] if len(idx) == 1 else idx}" if idx else noun


def _prob_rows(v, noun: str) -> np.ndarray:
    """The rows of v (last axis) as probability vectors: the one rule for them.

    ValueError, naming the first bad row, when an entry is below -CHECK_TOL
    or a row sums to more than CHECK_TOL + SUM_ROUNDING off 1, as
    `quantum.assert_states` bounds eigenvalues and traces; else negatives
    are clipped to 0 and each row divided by its clipped sum.
    """
    rows = np.array(v, dtype=float)
    low = rows.min(axis=-1)
    if (low < -CHECK_TOL).any():
        i, name = _name(low < -CHECK_TOL, noun)
        raise ValueError(f"negative entry {low[i]} in {name}")
    s = rows.sum(axis=-1)
    if (np.abs(s - 1.0) > CHECK_TOL + SUM_ROUNDING).any():
        i, name = _name(np.abs(s - 1.0) > CHECK_TOL + SUM_ROUNDING, noun)
        raise ValueError(f"{name} sums to {s[i]}, expected 1")
    np.clip(rows, 0.0, None, out=rows)
    return rows / rows.sum(axis=-1, keepdims=True)


def as_prob_vec(p) -> np.ndarray:
    """Validate and return p as a probability vector (`_prob_rows`)."""
    v = np.asarray(p, dtype=float)
    if v.ndim != 1:
        raise ValueError("probability vector must be one dimensional")
    return _prob_rows(v, "probability vector")


def l1_distance(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValueError("shape mismatch in l1 distance")
    return float(np.abs(p - q).sum())


def entropy(p) -> float:
    """Shannon entropy in bits; zero entries contribute nothing."""
    v = as_prob_vec(p)
    nz = v[v > 0]
    return float(-(nz * np.log2(nz)).sum())


def relative_entropy(p, q) -> float:
    """D(p || q) in bits; +inf when supp(p) is not contained in supp(q)."""
    vp = as_prob_vec(p)
    vq = as_prob_vec(q)
    if vp.shape != vq.shape:
        raise ValueError("alphabet mismatch in relative entropy")
    mask = vp > 0
    if np.any(vq[mask] <= 0):
        return math.inf
    return float((vp[mask] * (np.log2(vp[mask]) - np.log2(vq[mask]))).sum())


def pinsker_bound(p, q) -> float:
    """Lower bound ALPHA * |p - q|_1^2 on D(p || q)."""
    return ALPHA * l1_distance(p, q) ** 2


def entropy_continuity_bound(theta: float, alphabet_size: int) -> float:
    """Bound on |H(p) - H(q)| for |p - q|_1 <= theta <= 1/2.

    Equals -theta * log2(theta / alphabet_size); domain error outside
    [0, 1/2] where the bound is not valid.
    """
    if not 0.0 <= theta <= 0.5:
        raise ValueError(f"theta={theta} outside [0, 1/2]")
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be positive")
    if theta == 0.0:
        return 0.0
    return float(-theta * math.log2(theta / alphabet_size))


def hook_dimension(lam) -> int:
    """Dimension of the irreducible S_n module of shape lam (exact).

    Frobenius' form of the hook length formula: with the shifted parts
    l_i = lam_i + k - 1 - i of the k rows,
    d_lam = n! prod_{i<j} (l_i - l_j) / prod_i l_i!.
    """
    parts = _frame_parts(lam)
    shifted = [p + len(parts) - 1 - i for i, p in enumerate(parts)]
    num = math.factorial(sum(parts))
    for a, b in itertools.combinations(shifted, 2):
        num *= a - b
    den = math.prod(math.factorial(x) for x in shifted)
    if num % den:
        raise ArithmeticError(f"{den} does not divide the numerator of d_lam for {parts}")
    return num // den


def log_hook_dimension(lam) -> float:
    """ln `hook_dimension`(lam), Frobenius' form summed in `log_factorials`.

    No big integer is formed, so it stays cheap and finite at any n; the
    long-double sum is rounded once, to about an ulp of the exact log.
    """
    parts = _frame_parts(lam)
    n, k = sum(parts), len(parts)
    shifted = [p + k - 1 - i for i, p in enumerate(parts)]
    lf = log_factorials(n + k)
    gaps = np.array([a - b for a, b in itertools.combinations(shifted, 2)], dtype=np.longdouble)
    return float(lf[n] - lf[shifted].sum() + np.log(gaps).sum())


def log_factorials(m: int) -> np.ndarray:
    """ln k! for k = 0..m and on, in numpy's long double by a compensated sum (read-only)."""
    return _log_factorial_table(-(-(m + 1) // 1024) * 1024)


@lru_cache(maxsize=8)
def _log_factorial_table(size: int) -> np.ndarray:
    out = np.zeros(size, dtype=np.longdouble)
    total = comp = np.longdouble(0.0)
    for m, term in enumerate(np.log(np.arange(1, size, dtype=np.longdouble)), start=1):
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = out[m] = t
    out.flags.writeable = False
    return out


def dimension_log2_bounds(lam, d: int) -> tuple[float, float]:
    """Entropic sandwich for log2 hook_dimension of a frame in at most d rows.

    Returns (n*H(norm) - 2*d**6*log2(2n), n*H(norm)), finite at every n;
    the lower bound is extremely loose at small n.
    """
    parts = _frame_parts(lam, d=d)
    n = sum(parts)
    h = entropy(np.asarray(parts + (0,) * (d - len(parts)), dtype=float) / n)
    upper_exp = n * h
    return upper_exp - 2.0 * d**6 * math.log2(2 * n), upper_exp


def type_class_size(f) -> int:
    """Number of length-n words with letter counts f (exact multinomial)."""
    counts = _freq_counts(f)
    n = sum(counts)
    size = math.factorial(n)
    for c in counts:
        size //= math.factorial(c)
    return size


def type_class_log2_bounds(f) -> tuple[float, float]:
    """Entropic sandwich (nH - d log2(n+1), nH) for log2 type_class_size."""
    counts = _freq_counts(f)
    n = sum(counts)
    if n == 0:
        raise ValueError("empty word")
    upper_exp = n * entropy(np.asarray(counts, dtype=float) / n)
    return upper_exp - len(counts) * math.log2(n + 1), upper_exp


def dominance(f, lam) -> bool:
    """True when lam dominates the decreasing rearrangement of f.

    Equivalent to kostka(f, lam) > 0.
    """
    counts = _freq_counts(f)
    parts = _frame_parts(lam, sum(counts))
    return _dominates(counts, parts)


def _dominates(counts: tuple[int, ...], parts: tuple[int, ...]) -> bool:
    """`dominance` on checked counts and frame parts of the same n."""
    fs = sorted(counts, reverse=True)
    width = max(len(fs), len(parts))
    pf = pl = 0
    for i in range(width):
        pl += parts[i] if i < len(parts) else 0
        pf += fs[i] if i < len(fs) else 0
        if pl < pf:
            return False
    return True


def _interlacing_rows(above: tuple[int, ...]):
    """Rows mu, one entry shorter than above, with above[i + 1] <= mu[i] <= above[i].

    This is one Gelfand-Tsetlin step; rows come in itertools.product order.
    """
    return itertools.product(
        *(range(above[i + 1], above[i] + 1) for i in range(len(above) - 1))
    )


@lru_cache(maxsize=None)
def _kostka_rec(parts: tuple[int, ...], counts: tuple[int, ...]) -> int:
    if not counts:
        return 1 if not parts else 0
    size = sum(parts) - counts[-1]
    total = 0
    for mu in _interlacing_rows(parts + (0,)):
        if sum(mu) == size:
            total += _kostka_rec(tuple(m for m in mu if m), counts[:-1])
    return total


def kostka(f, lam) -> int:
    """Number of semistandard fillings of shape lam with content f (exact).

    With at most two letters in use the filling is forced, so the number
    is 1 when lam dominates f and 0 otherwise. Else the Gelfand-Tsetlin
    patterns of shape lam and weight f are counted by walking down the
    interlacing rows: removing the cells of the last letter leaves a row
    that interlaces the one above it and is f[-1] smaller.
    """
    counts = _freq_counts(f)
    parts = _frame_parts(lam, sum(counts))
    if sum(c > 0 for c in counts) <= 2:
        return int(_dominates(counts, parts))
    return _kostka_rec(parts, counts)


def majorizes(a, b) -> bool:
    """True when the decreasing rearrangement of a majorizes that of b."""
    va = np.sort(np.asarray(a, dtype=float))[::-1]
    vb = np.sort(np.asarray(b, dtype=float))[::-1]
    if va.shape != vb.shape:
        raise ValueError("majorization needs equal lengths")
    if abs(va.sum() - vb.sum()) > CHECK_TOL:
        return False
    return bool(np.all(np.cumsum(va) >= np.cumsum(vb) - MAJORIZE_TOL))
