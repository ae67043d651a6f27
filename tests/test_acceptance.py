"""End-to-end acceptance battery.

Each criterion prints one PASS/FAIL line and asserts it. Oracles are
test-side: tableau counters from test_tableaux, the classical
Neyman-Pearson routine from test_hypotest, permutation mixing from
test_quantum.
"""

import math
import time

import numpy as np
import pytest

from qsanov.avqs import (
    avqs_test,
    enumerate_words,
    robustification_check,
    spectral_estimation_check,
    worst_word_log2_bound,
)
from qsanov.cli import main as cli_main
from qsanov.hypotest import run_sanov, theta, type_two
from qsanov.nogo import (
    dim_ratio_bound,
    haar_twirl_mc,
    random_invariant_operator,
    unitary_twirl_invariant,
)
from qsanov.quantum import (
    bloch_state,
    qrel_entropy,
    random_state,
    spectrum,
    state_with_spectrum_and_diagonal,
)
from qsanov.schur_weyl import (
    completeness_check,
    frequency_blocks,
    spectral_estimate_check,
)
from qsanov.tableaux import (
    dimension_log2_bounds,
    enumerate_frames,
    enumerate_frequencies,
    hook_dimension,
    kostka,
    type_class_log2_bounds,
    type_class_size,
)

from test_hypotest import classical_np
from test_quantum import birkhoff_mix
from test_tableaux import dominance_oracle, ssyt_count, syt_count


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# 1. combinatorial exactness


def test_criterion_1_combinatorics():
    t0 = time.monotonic()
    checked = 0
    ok = True
    for d in (2, 3):
        for n in range(1, 9):
            frames = [fr.parts for fr in enumerate_frames(d, n)]
            for f in enumerate_frequencies(d, n):
                total = sum(kostka(f.counts, lam) * hook_dimension(lam) for lam in frames)
                ok &= total == type_class_size(f.counts)
                for lam in frames:
                    ok &= (kostka(f.counts, lam) > 0) == dominance_oracle(f.counts, lam)
                    checked += 1
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    _report(1, ok, f"{checked} (f, lam) pairs, d <= 3, n <= 8, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. projector algebra


def test_criterion_2_projector_algebra():
    t0 = time.monotonic()
    worst_alg = 0.0
    worst_trace = 0.0
    blocks_seen = 0
    for d, n_top in ((2, 8), (3, 5)):
        for n in range(1, n_top + 1):
            worst_alg = max(worst_alg, completeness_check(d, n))
            for f in enumerate_frequencies(d, n):
                blocks = frequency_blocks(f.counts)
                items = list(blocks.items())
                for i, (lam, b) in enumerate(items):
                    worst_alg = max(worst_alg, float(np.abs(b - b.conj().T).max()))
                    worst_alg = max(worst_alg, float(np.abs(b @ b - b).max()))
                    want = kostka(f.counts, lam) * hook_dimension(lam)
                    worst_trace = max(worst_trace, abs(float(np.trace(b).real) - want))
                    # blocks of different frequencies act on disjoint word
                    # sets, so orthogonality only needs checking within f
                    for _, b2 in items[i + 1 :]:
                        worst_alg = max(worst_alg, float(np.abs(b @ b2).max()))
                    blocks_seen += 1
    elapsed = time.monotonic() - t0
    ok = worst_alg <= 1e-9 and worst_trace <= 1e-6 and elapsed < 300.0
    _report(
        2,
        ok,
        f"{blocks_seen} blocks, algebra defect {worst_alg:.2e}, "
        f"trace defect {worst_trace:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3. bound sweeps


def test_criterion_3_bound_sweeps():
    ok = True
    labels = 0
    for d in (2, 3):
        for n in range(1, 13):
            for f in enumerate_frequencies(d, n):
                lo, hi = type_class_log2_bounds(f.counts)
                size = math.log2(type_class_size(f.counts))
                ok &= lo <= size <= hi + math.log2(1 + 1e-12)
                labels += 1
            for fr in enumerate_frames(d, n):
                lo, hi = dimension_log2_bounds(fr.parts, d)
                dim = math.log2(hook_dimension(fr.parts))
                ok &= lo <= dim <= hi + math.log2(1 + 1e-12)
                labels += 1
    rng = np.random.default_rng(0)
    spectral = 0
    for i in range(100):
        n = 2 + (i % 7)
        rho = random_state(2, rng)
        for fr in enumerate_frames(2, n):
            lhs, rhs = spectral_estimate_check(fr.parts, rho, n)
            ok &= lhs <= rhs + 1e-9
            spectral += 1
    rng = np.random.default_rng(1)
    words = 0
    for i in range(50):
        n = 2 + (i % 7)
        alphabet = [random_state(2, rng), random_state(2, rng)]
        word = tuple(int(x) for x in rng.integers(0, 2, size=n))
        for fr in enumerate_frames(2, n):
            lhs, rhs = spectral_estimation_check(fr.parts, word, alphabet)
            ok &= lhs <= rhs + 1e-9
            words += 1
    _report(
        3,
        ok,
        f"{labels} sandwich labels d <= 3 n <= 12, {spectral} spectral checks, "
        f"{words} word checks",
    )


# ---------------------------------------------------------------------------
# 4/5. Sanov exponent and optimality ordering (shared sweep)


NS = list(range(4, 11))


@pytest.fixture(scope="module")
def sanov_sweeps():
    t0 = time.monotonic()
    sigma = np.eye(2) / 2
    commuting = run_sanov(sigma, [np.diag([0.7, 0.3])], NS, epsilon=0.25)
    noncommuting = run_sanov(sigma, [bloch_state([0.4, 0.0, 0.3])], NS, epsilon=0.25)
    return commuting, noncommuting, time.monotonic() - t0


def _oracle_commuting(n: int, eps: float):
    """Label set, type-I and type-II for rho = diag(0.7, 0.3), sigma = I/2."""
    r = np.array([0.7, 0.3])
    type1_acc = 0.0
    type2 = 0.0
    for f0 in range(n + 1):
        f = (f0, n - f0)
        if abs(f0 / n - 0.7) * 2 > eps:
            continue
        for top in range((n + 1) // 2, n + 1):
            lam = (top,) if top == n else (top, n - top)
            if abs(top / n - 0.7) * 2 > eps:
                continue
            mult = ssyt_count(lam, f) * syt_count(lam)
            type1_acc += 0.7**f0 * 0.3 ** (n - f0) * mult
            type2 += mult / 2.0**n
    return 1.0 - type1_acc, type2


def test_criterion_4_sanov_exponent(sanov_sweeps):
    commuting, noncommuting, build_time = sanov_sweeps
    ok = True
    ref = 1.0 + 0.7 * math.log2(0.7) + 0.3 * math.log2(0.3)
    worst_gap = 0.0
    for rep in commuting:
        ok &= abs(rep.reference_d - ref) < 1e-12
        ok &= rep.type2 <= 2.0 ** (-rep.n * (ref - rep.theta)) + 1e-12
        o1, o2 = _oracle_commuting(rep.n, 0.25)
        worst_gap = max(worst_gap, abs(rep.type1_max - o1), abs(rep.type2 - o2))
    ok &= worst_gap <= 1e-9
    for rep in noncommuting:
        ok &= rep.type2 <= 2.0 ** (-rep.n * (rep.reference_d - rep.theta)) + 1e-12
    ok &= build_time < 120.0
    _report(
        4,
        ok,
        f"n = 4..10, eps = 0.25, oracle gap {worst_gap:.2e}, "
        f"bound holds for both families, {build_time:.1f}s",
    )


def test_criterion_5_optimality_ordering(sanov_sweeps):
    commuting, noncommuting, _ = sanov_sweeps
    ok = True
    worst_gap = 0.0
    for rep in commuting + noncommuting:
        ok &= rep.np_beta <= rep.type2 + 1e-12
    p_vec, q_vec = np.array([0.7, 0.3]), np.array([0.5, 0.5])
    for rep in commuting:
        out_p = np.array([np.prod(p_vec[list(w)]) for w in enumerate_words(2, rep.n)])
        out_q = np.array([np.prod(q_vec[list(w)]) for w in enumerate_words(2, rep.n)])
        cls = classical_np(out_p, out_q, 1.0 - rep.type1_max)
        worst_gap = max(worst_gap, abs(rep.np_beta - cls))
    ok &= worst_gap <= 1e-9
    _report(
        5,
        ok,
        f"beta <= type-II on all {len(commuting) + len(noncommuting)} configs, "
        f"classical NP gap {worst_gap:.2e}",
    )


# ---------------------------------------------------------------------------
# 6. arbitrarily varying null


def test_criterion_6_avqs():
    alphabet = [np.diag([0.8, 0.2]).astype(complex), bloch_state([0.3, 0.0, 0.0])]
    sigma = np.diag([0.75, 0.25])
    eps, d, s = 0.25, 2, 2
    min_d = min(
        qrel_entropy(t * alphabet[0] + (1 - t) * alphabet[1], sigma)
        for t in np.linspace(0.0, 1.0, 1001)
    )
    ok = True
    applicable = 0
    rng = np.random.default_rng(4)
    for n in range(2, 7):
        p_n = avqs_test(alphabet, sigma, eps, n)
        worst = 0.0
        for word in enumerate_words(s, n):
            lhs, rhs = robustification_check(p_n, word, alphabet, rng=rng)
            ok &= lhs <= rhs + 1e-9
            worst = max(worst, lhs)
        ok &= worst <= 1.0 + 1e-12
        ceiling = 2.0 ** worst_word_log2_bound(n, eps, d, s)
        if ceiling <= 1.0:
            applicable += 1
            ok &= worst <= ceiling + 1e-9
        slack = theta(n, eps, d, sigma) + (s / n) * math.log2(2 * n)
        ok &= type_two(p_n, sigma) <= 2.0 ** (-n * (min_d - slack)) + 1e-12
    _report(
        6,
        ok,
        f"n <= 6 exhaustive words; min hull divergence {min_d:.4g}; "
        f"first display applicable at {applicable}/5 sizes (vacuous above 1 otherwise); "
        "type-II and robustification bounds hold",
    )


# ---------------------------------------------------------------------------
# 7. spectrum/diagonal round-trip


def test_criterion_7_state_construction():
    rng = np.random.default_rng(2)
    ok = True
    worst = 0.0
    for i in range(1000):
        d = 2 + (i % 3)
        spec = np.sort(rng.dirichlet(np.ones(d)))[::-1]
        diag = birkhoff_mix(spec, rng)
        state = state_with_spectrum_and_diagonal(spec, diag)
        worst = max(worst, float(np.abs(spectrum(state) - spec).max()))
        worst = max(worst, float(np.abs(np.diag(state).real - diag).max()))
    ok &= worst <= 1e-8
    pairs = 0
    for dd in (2, 3):
        for n in range(1, 9):
            for fr in enumerate_frames(dd, n):
                lam_bar = np.array(fr.padded(dd), dtype=float) / n
                for f in enumerate_frequencies(dd, n):
                    if kostka(f.counts, fr.parts) == 0:
                        continue
                    f_bar = np.array(f.counts, dtype=float) / n
                    state = state_with_spectrum_and_diagonal(lam_bar, f_bar)
                    worst = max(worst, float(np.abs(spectrum(state) - lam_bar).max()))
                    worst = max(worst, float(np.abs(np.diag(state).real - f_bar).max()))
                    pairs += 1
    ok &= worst <= 1e-8
    # zero multiplicity must match construction failure
    for f, lam in (((4, 0, 0), (2, 2)), ((3, 1), (2, 2))):
        dd = len(f)
        assert kostka(f, lam) == 0
        with pytest.raises(ValueError):
            state_with_spectrum_and_diagonal(
                np.array(lam + (0,) * (dd - len(lam)), dtype=float) / sum(f),
                np.array(f, dtype=float) / sum(f),
            )
    _report(7, ok, f"1000 random pairs d <= 4 and {pairs} (f, lam) pairs, defect {worst:.2e}")


# ---------------------------------------------------------------------------
# 8. no-go ingredients


def test_criterion_8_nogo_ingredients():
    ok = True
    ratios = 0
    for d in (2, 3):
        for n in range(1, 13):
            for fr in enumerate_frames(d, n):
                ratio, floor = dim_ratio_bound(fr.parts, d, n)
                ok &= ratio >= floor
                ratios += 1
    worst_rel = 0.0
    for seed in range(10):
        a = random_invariant_operator(2, 4, np.random.default_rng(seed))
        exact = unitary_twirl_invariant(a, 2, 4)
        mc, se = haar_twirl_mc(a, 2, 4, samples=200, rng=np.random.default_rng(100 + seed))
        err = float(np.linalg.norm(exact - mc))
        ok &= err <= 3.0 * se
        worst_rel = max(worst_rel, err / se if se > 0 else math.inf)
    _report(
        8,
        ok,
        f"{ratios} dimension ratios d <= 3 n <= 12; twirl vs Monte-Carlo "
        f"worst error {worst_rel:.2f} standard errors over 10 operators",
    )


# ---------------------------------------------------------------------------
# 9. determinism


def test_criterion_9_determinism(tmp_path):
    out1, out2 = tmp_path / "v1.txt", tmp_path / "v2.txt"
    rc1 = cli_main(["verify", "--out", str(out1)])
    rc2 = cli_main(["verify", "--out", str(out2)])
    same = out1.read_bytes() == out2.read_bytes()
    ok = rc1 == 0 and rc2 == 0 and same
    _report(9, ok, f"verify run twice, exit codes ({rc1}, {rc2}), byte-identical: {same}")
