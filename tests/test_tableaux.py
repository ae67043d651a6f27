import itertools
import math

import numpy as np
import pytest

from qsanov.tableaux import (
    ALPHA,
    _kostka_rec,
    dimension_log2_bounds,
    dominance,
    entropy,
    entropy_continuity_bound,
    enumerate_frames,
    enumerate_frequencies,
    hook_dimension,
    kostka,
    l1_distance,
    log_hook_dimension,
    majorizes,
    pinsker_bound,
    relative_entropy,
    type_class_log2_bounds,
    type_class_size,
)


# ---------------------------------------------------------------------------
# brute-force oracles


_SYT_MEMO = {}


def syt_count(shape):
    """Standard tableaux by removable-corner recursion (no hooks)."""
    shape = tuple(p for p in shape if p > 0)
    if sum(shape) <= 1:
        return 1
    if shape in _SYT_MEMO:
        return _SYT_MEMO[shape]
    total = 0
    for i in range(len(shape)):
        if i == len(shape) - 1 or shape[i] > shape[i + 1]:
            nxt = list(shape)
            nxt[i] -= 1
            total += syt_count(tuple(nxt))
    _SYT_MEMO[shape] = total
    return total


def ssyt_count(shape, content):
    """Semistandard tableaux by cell-wise backtracking."""
    cells = [(r, c) for r, row in enumerate(shape) for c in range(row)]
    grid = {}
    remaining = list(content)

    def rec(idx):
        if idx == len(cells):
            return 1
        r, c = cells[idx]
        total = 0
        for v in range(len(remaining)):
            if remaining[v] == 0:
                continue
            if c > 0 and grid[(r, c - 1)] > v:
                continue
            if r > 0 and grid[(r - 1, c)] >= v:
                continue
            grid[(r, c)] = v
            remaining[v] -= 1
            total += rec(idx + 1)
            remaining[v] += 1
            del grid[(r, c)]
        return total

    return rec(0)


def dominance_oracle(f, lam):
    fs = sorted(f, reverse=True)
    width = max(len(fs), len(lam))
    fs = fs + [0] * (width - len(fs))
    ls = list(lam) + [0] * (width - len(lam))
    run_f = run_l = 0
    for a, b in zip(fs, ls):
        run_f += a
        run_l += b
        if run_l < run_f:
            return False
    return True


def multiset_perm_count(f):
    n = sum(f)
    out = math.factorial(n)
    for c in f:
        out //= math.factorial(c)
    return out


# ---------------------------------------------------------------------------
# enumeration and data types


def test_frame_enumeration_counts():
    # partitions of n into at most d parts
    assert len(enumerate_frames(2, 6)) == 4
    assert len(enumerate_frames(3, 6)) == 7
    assert enumerate_frames(2, 4) == [(4,), (3, 1), (2, 2)]
    for d in (1, 2, 3):
        for n in range(1, 13):
            frames = enumerate_frames(d, n)
            assert len(set(frames)) == len(frames)
            for fr in frames:
                assert sum(fr) == n
                assert len(fr) <= d
                assert all(a >= b for a, b in zip(fr, fr[1:]))


def test_frequency_enumeration_counts():
    for d in (1, 2, 3):
        for n in range(1, 13):
            freqs = enumerate_frequencies(d, n)
            assert len(freqs) == math.comb(n + d - 1, d - 1)
            assert all(sum(f) == n and len(f) == d for f in freqs)
    assert enumerate_frequencies(2, 2) == [(0, 2), (1, 1), (2, 0)]


def test_enumerations_are_int_tuples_in_order():
    # an independent enumeration: counts in itertools.product order, and
    # their sorted, zero-stripped forms in descending lexicographic order
    for d in range(1, 5):
        for n in range(13):
            want_f = [c for c in itertools.product(range(n + 1), repeat=d) if sum(c) == n]
            want_fr = sorted(
                {tuple(x for x in sorted(c, reverse=True) if x) for c in want_f}, reverse=True
            )
            got_f, got_fr = enumerate_frequencies(d, n), enumerate_frames(d, n)
            assert got_f == want_f and got_fr == want_fr, (d, n)
            for label in got_f + got_fr:
                assert type(label) is tuple and all(type(x) is int for x in label)


def test_frame_validation():
    # public functions reject a bad frame or frequency with ValueError
    for bad, why in [((1, 2), "weakly decreasing"), ((2, -1), "positive")]:
        for check in (
            hook_dimension,
            log_hook_dimension,
            lambda lam: dimension_log2_bounds(lam, 3),
            lambda lam: kostka((1, 1, 1), lam),
        ):
            with pytest.raises(ValueError, match=why):
                check(bad)
    for bad, why in [((2, -1), "nonnegative"), ((), "at least one letter")]:
        for check in (type_class_size, type_class_log2_bounds, lambda f: dominance(f, (1,))):
            with pytest.raises(ValueError, match=why):
                check(bad)
    # trailing zeros are dropped; a frame with more rows than d is refused
    assert hook_dimension((3, 1, 0, 0)) == hook_dimension((3, 1)) == 3
    assert dimension_log2_bounds((3, 1, 0), 2) == dimension_log2_bounds((3, 1), 2)
    with pytest.raises(ValueError, match="does not fit"):
        dimension_log2_bounds((2, 1, 1), 2)


# ---------------------------------------------------------------------------
# dimensions and type classes


def test_hook_dimension_matches_corner_recursion():
    for n in range(1, 9):
        for fr in enumerate_frames(n, n):
            assert hook_dimension(fr) == syt_count(fr)


def test_dimension_squares_sum_to_factorial():
    for n in range(1, 9):
        total = sum(hook_dimension(fr) ** 2 for fr in enumerate_frames(n, n))
        assert total == math.factorial(n)


def test_log_hook_dimension_is_the_log_of_the_exact_integer():
    # within an ulp of the log of the exact int on every frame of d <= 4,
    # n <= 60 (or 1e-18 from 0 where d_lam = 1), and within 1e-15 relative of
    # 50 digits where d_lam is far past the float range
    for n in range(61):
        for fr in enumerate_frames(4, n):
            want = math.log(hook_dimension(fr))
            got = log_hook_dimension(fr)
            assert abs(got - want) <= max(math.ulp(want), 1e-18), (fr, got, want)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        for lam in ((4096,), (4095, 1), (3000, 1096), (2048, 2048), (300, 200, 100), (200, 200, 200)):
            want = mp.log(mp.mpf(hook_dimension(lam)))
            got = log_hook_dimension(lam)
            assert abs(got - want) <= 1e-15 * abs(want) + 1e-300, lam


def test_type_class_size_exact():
    for d in (2, 3):
        for n in range(1, 13):
            for f in enumerate_frequencies(d, n):
                assert type_class_size(f) == multiset_perm_count(f)
    # brute cross-check by direct multiset enumeration
    word = (0, 0, 1, 1, 2)
    assert type_class_size((2, 2, 1)) == len(set(itertools.permutations(word)))


def test_type_class_sandwich():
    # n H(f/n) - d log2(n+1) <= log2 |T_f| <= n H(f/n)
    for d in (2, 3):
        for n in range(1, 13):
            for f in enumerate_frequencies(d, n):
                lo, hi = type_class_log2_bounds(f)
                h = entropy(np.asarray(f) / n)
                assert abs(hi - n * h) <= 1e-12 * max(1.0, hi)
                assert abs(lo - (hi - d * math.log2(n + 1))) <= 1e-12 * max(1.0, abs(lo))
                size = math.log2(type_class_size(f))
                assert lo <= size <= hi + math.log2(1 + 1e-12)


def test_dimension_sandwich():
    # n H(lam/n) - 2 d^6 log2(2n) <= log2 dim F_lam <= n H(lam/n)
    for d in (2, 3):
        for n in range(1, 13):
            for fr in enumerate_frames(d, n):
                lo, hi = dimension_log2_bounds(fr, d)
                h = entropy(np.asarray(fr + (0,) * (d - len(fr))) / n)
                assert abs(hi - n * h) <= 1e-12 * max(1.0, hi)
                assert abs(lo - (hi - 2.0 * d**6 * math.log2(2 * n))) <= 1e-12 * max(1.0, abs(lo))
                assert lo <= math.log2(hook_dimension(fr)) <= hi + math.log2(1 + 1e-12)


def test_log2_sandwiches_at_n_2048():
    # 2**(nH) overflows a float here; the log2 forms hold against exact logs
    n = 2048
    for f in [(1024, 1024), (2047, 1), (2048, 0), (700, 700, 648), (1000, 600, 300, 148)]:
        lo, hi = type_class_log2_bounds(f)
        exact = (math.lgamma(n + 1) - sum(math.lgamma(c + 1) for c in f)) / math.log(2)
        assert lo <= exact <= hi + 1e-9 * hi, f
    for lam, d in [((1024, 1024), 2), ((2047, 1), 2), ((2048,), 2), ((700, 700, 648), 3)]:
        lo, hi = dimension_log2_bounds(lam, d)
        assert lo <= math.log2(hook_dimension(lam)) <= hi + 1e-9 * hi, lam


def test_linear_bounds_keep_their_values():
    # 2 to the power of the log2 forms is the linear sandwich, up to the top
    # of the float range: (520, 504) has nH = 1023.82
    cases = [(d, n) for d in (2, 3, 4) for n in (1, 5, 12)]
    freqs = [f for d, n in cases for f in enumerate_frequencies(d, n)]
    for counts in freqs + [(300, 0), (150, 150), (300, 200, 100), (520, 504)]:
        n, d = sum(counts), len(counts)
        upper = 2.0 ** (n * entropy(np.asarray(counts, dtype=float) / n))
        lo, hi = type_class_log2_bounds(counts)
        assert 2.0**hi == upper
        assert 2.0**lo == pytest.approx(upper / (n + 1) ** d, rel=1e-12, abs=0.0)
    frames = [(fr, d) for d, n in cases for fr in enumerate_frames(d, n)]
    for parts, d in frames + [((299, 1), 2), ((150, 150), 3), ((400, 100), 2), ((520, 504), 2)]:
        n = sum(parts)
        upper_exp = n * entropy(np.asarray(parts + (0,) * (d - len(parts)), dtype=float) / n)
        lower_exp = upper_exp - 2.0 * d**6 * math.log2(2 * n)
        assert dimension_log2_bounds(parts, d) == (lower_exp, upper_exp)


# ---------------------------------------------------------------------------
# Kostka numbers


def test_kostka_matches_brute_ssyt():
    for d in (2, 3):
        for n in range(1, 7):
            for f in enumerate_frequencies(d, n):
                for fr in enumerate_frames(d, n):
                    assert kostka(f, fr) == ssyt_count(fr, f)
                # frames with more rows than letters have no filling
                for fr in enumerate_frames(n, n):
                    if len(fr) > d:
                        assert kostka(f, fr) == ssyt_count(fr, f) == 0
    # a d=4 spot check with multiplicity above one
    assert kostka((2, 1, 1, 0), (2, 1, 1)) == ssyt_count((2, 1, 1), (2, 1, 1, 0))
    assert kostka((1, 1, 1, 1), (2, 2)) == ssyt_count((2, 2), (1, 1, 1, 1)) == 2


def test_kostka_two_letter_rule_matches_strip_recursion():
    # with at most two letters in use, kostka answers by dominance alone
    checked = 0
    for n in range(1, 9):
        for f in enumerate_frequencies(3, n):
            if sum(c > 0 for c in f) > 2:
                continue
            for fr in enumerate_frames(3, n):
                assert kostka(f, fr) == _kostka_rec(fr, f)
                checked += 1
    assert checked == 699


def test_kostka_known_values():
    assert kostka((2, 2), (4,)) == 1
    assert kostka((2, 2), (3, 1)) == 1
    assert kostka((2, 2), (2, 2)) == 1
    assert kostka((3, 1), (2, 2)) == 0
    assert kostka((2, 2, 2), (3, 2, 1)) == 2
    assert kostka((1, 3), (3, 1)) == 1  # content order does not matter


def test_kostka_positive_iff_dominated():
    for d in (2, 3):
        for n in range(1, 8):
            for f in enumerate_frequencies(d, n):
                for fr in enumerate_frames(d, n):
                    dom = dominance(f, fr)
                    assert dom == dominance_oracle(f, fr)
                    assert (kostka(f, fr) > 0) == dom


def test_kostka_sum_counts_type_class():
    for d in (2, 3):
        for n in range(1, 8):
            frames = enumerate_frames(d, n)
            for f in enumerate_frequencies(d, n):
                total = sum(
                    kostka(f, fr) * hook_dimension(fr) for fr in frames
                )
                assert total == type_class_size(f)


# ---------------------------------------------------------------------------
# entropies


def test_entropy_values():
    assert entropy([0.5, 0.5]) == 1.0
    assert entropy([1.0, 0.0]) == 0.0
    assert abs(entropy([0.25] * 4) - 2.0) < 1e-12
    h = entropy([0.7, 0.3])
    assert abs(h - (-0.7 * math.log2(0.7) - 0.3 * math.log2(0.3))) < 1e-12


def test_relative_entropy_values():
    d = relative_entropy([0.7, 0.3], [0.5, 0.5])
    assert abs(d - (1.0 - entropy([0.7, 0.3]))) < 1e-12
    assert relative_entropy([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert relative_entropy([0.5, 0.5], [1.0, 0.0]) == math.inf
    assert relative_entropy([1.0, 0.0], [0.5, 0.5]) == 1.0


def test_pinsker_lower_bound():
    rng = np.random.default_rng(11)
    for _ in range(300):
        k = rng.integers(2, 5)
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        assert relative_entropy(p, q) >= pinsker_bound(p, q) - 1e-12
    assert abs(pinsker_bound([1, 0], [0, 1]) - 4.0 * ALPHA) < 1e-12


def test_entropy_continuity_bound():
    rng = np.random.default_rng(12)
    for _ in range(300):
        k = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(k))
        q = rng.dirichlet(np.ones(k))
        theta = l1_distance(p, q)
        if theta > 0.5 or theta == 0.0:
            continue
        assert abs(entropy(p) - entropy(q)) <= entropy_continuity_bound(theta, k) + 1e-12
    assert entropy_continuity_bound(0.0, 3) == 0.0
    with pytest.raises(ValueError):
        entropy_continuity_bound(0.6, 2)
    with pytest.raises(ValueError):
        entropy_continuity_bound(-0.1, 2)


def test_majorization_basics():
    assert majorizes([0.5, 0.5], [0.5, 0.5])
    assert majorizes([1.0, 0.0], [0.6, 0.4])
    assert not majorizes([0.6, 0.4], [1.0, 0.0])
    assert majorizes([0.5, 0.3, 0.2], [1 / 3, 1 / 3, 1 / 3])
    # order of entries must not matter
    assert majorizes([0.2, 0.5, 0.3], [0.3, 0.4, 0.3])


def test_alpha_constant():
    assert abs(ALPHA - 1.0 / (2.0 * math.log(2.0))) < 1e-15
    # Pinsker constant in bits: D >= (1/(2 ln 2)) |p-q|_1^2
    assert abs(ALPHA - 0.7213475204444817) < 1e-12
