import itertools
import math
import warnings

import numpy as np
import pytest

from qsanov.avqs import word_type_one
from qsanov import hypotest, schur_weyl, tableaux
from qsanov.errors import SizeGuardError, VerificationError
from qsanov.hypotest import (
    SIGMA_MIN_EIG,
    TestSpec,
    _classical_np,
    _diag_in,
    _hermitian,
    _irrep_blocks,
    _label_band,
    _log_threshold_bracket,
    _np_over_blocks,
    _null_candidates,
    build_test,
    epsilon_schedule,
    feasibility_log2_bound,
    label_errors,
    lambda_set,
    neyman_pearson,
    run_sanov,
    theta,
    theta_prime,
    type_one,
    type_two,
)
from qsanov.nogo import haar_unitary
from qsanov.quantum import (
    assert_state,
    bloch_state,
    pinch,
    qrel_entropy,
    random_state,
    spectrum,
)
from qsanov.schur_weyl import (
    block_weight,
    gt_irrep,
    gt_weights,
    schur_polynomial,
    spectral_estimate_check,
    tensor_power,
)
from qsanov.tableaux import (
    ALPHA,
    dominance,
    enumerate_frames,
    enumerate_frequencies,
    hook_dimension,
    kostka,
    l1_distance,
)

from test_quantum import bad_states, count_eigvalsh
from test_tableaux import ssyt_count, syt_count


def classical_label_set(diag_rho, n, eps):
    """Independent label enumeration for a diagonal null state, sigma = I/2.

    Pinching and spectrum of the null state coincide with its diagonal, so
    both conditions compare l1 distances against the same vector. A frame
    whose top row is below max(f) has K_{f,lam} = 0 and is left out.
    """
    r = np.asarray(diag_rho, dtype=float)
    r_sorted = np.sort(r)[::-1]
    labels = []
    for f0 in range(n + 1):
        f = (f0, n - f0)
        if np.abs(np.asarray(f) / n - r).sum() > eps:
            continue
        for top in range((n + 1) // 2, n + 1):
            lam = (top,) if top == n else (top, n - top)
            lam_bar = np.array([top, n - top]) / n
            if np.abs(lam_bar - r_sorted).sum() <= eps and max(f) <= top:
                labels.append((f, lam))
    return labels


def classical_np(p, q, target):
    """Textbook fractional Neyman-Pearson on finite outcome vectors."""
    ratio = np.where(q > 0, p / np.where(q > 0, q, 1.0), np.inf)
    order = np.argsort(-ratio, kind="stable")
    beta = got = 0.0
    for i in order:
        if got >= target - 1e-15:
            break
        frac = 1.0
        if p[i] > 0 and got + p[i] > target:
            frac = (target - got) / p[i]
        got += p[i] * frac
        beta += q[i] * frac
    return beta


def test_lambda_set_extremes():
    rho = np.diag([0.7, 0.3])
    spec = TestSpec(sigma=np.eye(2) / 2, null_set=[rho], epsilon=2.0, n=4)
    labels = lambda_set(spec)
    # every (f, lam) with K_{f,lam} > 0: 5 frequencies, 3 frames, 6 empty pairs
    everything = itertools.product(enumerate_frequencies(2, 4), enumerate_frames(2, 4))
    assert labels == {(f, fr) for f, fr in everything if kostka(f, fr) > 0}
    assert len(labels) == 5 * 3 - 6
    # at a tiny radius only exact matches survive: f/n = (0.75, 0.25)
    spec = TestSpec(sigma=np.eye(2) / 2, null_set=[np.diag([0.75, 0.25])], epsilon=1e-6, n=4)
    assert lambda_set(spec) == frozenset({((3, 1), (3, 1))})


def test_lambda_set_matches_classical_enumeration():
    for n in (4, 5, 6):
        for eps in (0.1, 0.25, 0.5):
            rho = np.diag([0.7, 0.3])
            spec = TestSpec(sigma=np.eye(2) / 2, null_set=[rho], epsilon=eps, n=n)
            got = lambda_set(spec)
            want = frozenset(classical_label_set([0.7, 0.3], n, eps))
            assert got == want, (n, eps)


def lambda_set_loop(spec):
    """lambda_set as a double loop over frequencies, frames and candidates, K > 0."""
    d, n = spec.d, spec.n
    cands = _null_candidates(spec)
    pinches = [pinch(s, spec.basis) for s in cands]
    spectra = [spectrum(s) for s in cands]
    pairs = set()
    for f in enumerate_frequencies(d, n):
        f_norm = np.asarray(f, dtype=float) / n
        freq_ok = [l1_distance(f_norm, p) <= spec.epsilon for p in pinches]
        for fr in enumerate_frames(d, n):
            lam_norm = np.asarray(fr + (0,) * (d - len(fr)), dtype=float) / n
            if kostka(f, fr) > 0 and any(
                ok and l1_distance(lam_norm, r) <= spec.epsilon
                for ok, r in zip(freq_ok, spectra)
            ):
                pairs.add((f, fr))
    return frozenset(pairs)


def test_lambda_set_matches_the_double_loop():
    # Seeds and sizes fixed in advance: random complex sigma bases at d = 2
    # and 3 with |S| = 1..3, the hull on and off; then diagonal nulls a/n at
    # epsilon = k/n, where l1 distances tie with the radius.
    rng = np.random.default_rng(71)
    for i in range(48):
        d = 2 + i % 2
        sigma = random_state(d, rng)
        nulls = [random_state(d, rng) for _ in range(1 + i % 3)]
        n = int(rng.integers(1, 10 if d == 2 else 6))
        eps = float(rng.choice([0.1, 0.25, 0.5, 1.0]))
        spec = TestSpec(sigma=sigma, null_set=nulls, epsilon=eps, n=n, hull=bool(i // 2 % 2))
        assert lambda_set(spec) == lambda_set_loop(spec), i
    for n in (4, 6, 9):
        for a in range(n + 1):
            for k in (1, 2, 3):
                rho = np.diag([a / n, 1 - a / n])
                spec = TestSpec(sigma=np.diag([0.6, 0.4]), null_set=[rho], epsilon=k / n, n=n)
                assert lambda_set(spec) == lambda_set_loop(spec), (n, a, k)


def test_null_stacks_name_their_bad_state():
    rng = np.random.default_rng(17)
    for d in (2, 3):
        sigma = random_state(d, rng)
        good = [random_state(d, rng) for _ in range(3)]
        for what, bad in bad_states(d):
            with pytest.raises(ValueError, match=f"state 2 .*{what}"):
                TestSpec(sigma=sigma, null_set=good[:2] + [bad] + good[2:], epsilon=0.25, n=4)
            # lambda_set validates its candidates again, as one stack
            spec = TestSpec(sigma=sigma, null_set=good, epsilon=0.25, n=4)
            spec.null_set[1] = bad
            with pytest.raises(ValueError, match=f"state 1 .*{what}"):
                lambda_set(spec)


def test_lambda_set_drops_empty_labels_and_label_errors_keep_their_values():
    # the band also meets pairs whose frame does not dominate f (K_{f,lam} = 0,
    # an empty block): 91 of 304 at d = 2, n = 64 and 9 of 228 at d = 3, n = 16,
    # for (sigma, rho) two of the first four random_state draws of
    # default_rng(5); lambda_set drops them, and the errors from the labels
    # do not move
    for d, n, (s, r), dropped, total in ((2, 64, (2, 3), 91, 304), (3, 16, (0, 2), 9, 228)):
        rng = np.random.default_rng(5)
        draws = [random_state(d, rng) for _ in range(4)]
        sigma, rho = draws[s], draws[r]
        spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.3, n=n)
        freqs, frames, freq_ok, frame_ok = _label_band(spec.null_set, spec.basis, 0.3, d, n)
        band = {(freqs[q], frames[j]) for q, j in zip(*np.nonzero(freq_ok.T @ frame_ok))}
        labels = lambda_set(spec)
        assert labels <= band and (len(band), len(band - labels)) == (total, dropped)
        assert all(kostka(f, lam) > 0 for f, lam in labels)
        assert all(kostka(f, lam) == 0 for f, lam in band - labels)
        assert label_errors(spec, band, [rho]) == label_errors(spec, labels, [rho])


def test_label_errors_of_the_empty_test_are_exact(monkeypatch):
    # no label left after the K = 0 filter: t2 = 0 and every miss is exactly
    # 1, with no weight-mass table, word-type form or word block built
    def built(*args, **kwargs):
        raise AssertionError("the empty test builds nothing")

    for name in ("_weight_masses", "_qubit_label_mass", "word_block_state", "frequency_blocks"):
        monkeypatch.setattr(hypotest, name, built)
    sigma, rho = np.diag([0.75, 0.25]), np.diag([0.3, 0.7])
    word_letters = [rho, np.diag([0.6, 0.4])]
    for n in (4, 64, 512, 2048):
        spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.1, n=n)
        for labels in (frozenset(), {((n, 0), (n - 1, 1))}):
            errs = label_errors(spec, labels, [rho])
            assert errs.log_type_two == -np.inf and errs.type_two == 0.0
            assert errs.misses == {(n,): 1.0}
        if n <= 64:
            errs = label_errors(spec, frozenset(), word_letters)
            assert errs.misses == dict.fromkeys(enumerate_frequencies(2, n), 1.0)
    rng = np.random.default_rng(3)
    sigma3, rho3 = random_state(3, rng), random_state(3, rng)
    spec = TestSpec(sigma=sigma3, null_set=[rho3], epsilon=0.1, n=6)
    errs = label_errors(spec, frozenset(), [rho3, sigma3])
    assert errs.misses == dict.fromkeys(enumerate_frequencies(2, 6), 1.0)


def test_lambda_set_runs_one_eigvalsh_whatever_the_grid(monkeypatch):
    rng = np.random.default_rng(23)
    sigma = random_state(2, rng)
    nulls = [random_state(2, rng) for _ in range(3)]
    specs = [
        TestSpec(sigma=sigma, null_set=nulls, epsilon=eps, n=n, hull=hull)
        for eps, n, hull in ((0.25, 8, True), (1.0, 8, True), (0.25, 8, False), (0.25, 20, True))
    ]
    assert [len(_null_candidates(s)) for s in specs] == [153, 15, 3, 153]
    calls = count_eigvalsh(monkeypatch)
    for spec in specs:
        del calls[:]
        lambda_set(spec)
        assert calls == [(len(_null_candidates(spec)), 2, 2)], calls


def test_build_test_is_projector():
    rho = bloch_state([0.4, 0.0, 0.3])
    sigma = np.diag([0.6, 0.4])
    spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.3, n=4)
    p = build_test(spec)
    assert np.abs(p - p.conj().T).max() < 1e-12
    assert np.abs(p @ p - p).max() < 1e-10


def test_commuting_case_matches_type_class_formulas():
    # diagonal rho, sigma = I/2: every trace is a finite sum over labels
    rho = np.diag([0.7, 0.3])
    sigma = np.eye(2) / 2
    for n in (4, 6, 8):
        spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.25, n=n)
        labels = lambda_set(spec)
        p = build_test(spec)
        mult = {
            (f, lam): ssyt_count(lam, f) * syt_count(lam) for f, lam in labels
        }
        accept = sum(0.7 ** f[0] * 0.3 ** f[1] * m for (f, _), m in mult.items())
        t2_cls = sum(mult.values()) / 2.0**n
        assert abs(type_one(p, rho) - (1 - accept)) < 1e-9
        assert abs(type_two(p, sigma) - t2_cls) < 1e-9


def test_commuting_case_nonuniform_sigma():
    rho = np.diag([0.9, 0.1])
    sigma = np.diag([0.6, 0.4])
    n = 5
    spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.2, n=n)
    p = build_test(spec)
    labels = lambda_set(spec)
    t2_cls = sum(
        0.6 ** f[0] * 0.4 ** f[1] * kostka(f, lam) * hook_dimension(lam)
        for f, lam in labels
    )
    assert abs(type_two(p, sigma) - t2_cls) < 1e-9


def test_theta_frozen_value():
    val = theta(100, 0.1, 2, np.eye(2) / 2)
    want = 0.04 * math.log2(200) + 0.1 * abs(math.log2(0.05)) + 0.2 * 1.0
    assert abs(val - want) < 1e-12
    assert abs(val - 0.93795) < 1e-4
    with pytest.raises(ValueError):
        theta(100, 0.0, 2, np.eye(2) / 2)
    with pytest.raises(ValueError):
        theta(100, 0.1, 2, np.diag([1.0, 0.0]))


def test_theta_prime_and_schedule():
    sigma = np.diag([0.6, 0.4])
    assert theta_prime(4, 0.9, 2, sigma) == -math.inf
    big = theta_prime(400, 0.05, 2, sigma)
    expect = (
        theta(400, 400**-0.25, 2, sigma)
        - (2 * 2**6 / 400) * math.log2(800)
        + (math.log2(1 - 0.05 - 2 ** (-ALPHA * 20)) - 8 * math.log2(800)) / 400
    )
    assert abs(big - expect) < 1e-12
    eps = epsilon_schedule(100, 0.05, 2)
    want = math.sqrt((math.log2(20) + 4 * math.log2(200)) / (ALPHA * 100))
    assert abs(eps - want) < 1e-12
    fb = 2.0 ** feasibility_log2_bound(100, 0.3, 2)
    assert abs(fb - 2.0 ** (-100 * (ALPHA * 0.09 - 0.08 * math.log2(200)))) < 1e-12


def test_feasibility_log2_bound_spans_the_float_range():
    # (n, eps, d) = (128, 0.05, 8) has exponent 1023.77 and (129, 0.05, 8)
    # 1025.20: below the limit 2 to the log2 form is bit for bit the linear
    # formula, past it the log2 form stays finite
    for n, eps, d in ((128, 0.05, 8), (100, 0.3, 2), (6, 0.5, 3)):
        want = 2.0 ** (-n * (ALPHA * eps * eps - (2.0 * d * d / n) * math.log2(2 * n)))
        assert 2.0 ** feasibility_log2_bound(n, eps, d) == want
    assert 1023 < feasibility_log2_bound(128, 0.05, 8) < 1024
    for n in (129, 256, 4096):
        exp = feasibility_log2_bound(n, 0.05, 8)
        assert math.isfinite(exp) and exp >= 1024, n


def test_run_sanov_reports():
    rho = np.diag([0.7, 0.3])
    sigma = np.eye(2) / 2
    reports = run_sanov(sigma, [rho], [4, 5, 6], epsilon=0.25)
    ref = 1 - (-0.7 * math.log2(0.7) - 0.3 * math.log2(0.3))
    for r in reports:
        assert abs(r.reference_d - ref) < 1e-12
        assert 0 <= r.type1_max <= 1
        assert 0 <= r.type2 <= 1
        assert r.type2 <= 2.0 ** (-r.n * (r.reference_d - r.theta)) + 1e-12
        assert r.np_beta <= r.type2 + 1e-12
        assert abs(r.empirical_exponent + math.log2(r.type2) / r.n) < 1e-12


def test_run_sanov_schedule_mode():
    rho = np.diag([0.7, 0.3])
    reports = run_sanov(np.eye(2) / 2, [rho], [6], nu=0.1, np_baseline=False)
    assert reports[0].eps == min(2.0, epsilon_schedule(6, 0.1, 2))
    assert math.isnan(reports[0].np_beta)


def test_run_sanov_type_two_bound_is_compared_in_log2(monkeypatch):
    # with the schedule, n (theta - D) passes 1024 at n = 512 and
    # 2**(-n (D - theta)) overflows a float; the log2 comparison does not
    sigma = np.diag([0.95, 0.05])
    rho = np.eye(2) / 2
    rep, = run_sanov(sigma, [rho], [512], np_baseline=False)
    assert 512 * (rep.theta - rep.reference_d) > 1024
    for value in (rep.eps, rep.type1_max, rep.type2, rep.empirical_exponent, rep.theta):
        assert math.isfinite(value)
    assert 0.0 < rep.type2 < 1.0
    # at n = 256 the far pair's t2 = 2**-1599 underflows to 0.0, yet its
    # exponent stays finite and the bound 2**-1389 is still checked
    far_sigma, far_rho = np.diag([0.99, 0.01]), np.diag([0.01, 0.99])
    rep, = run_sanov(far_sigma, [far_rho], [256], epsilon=0.05, np_baseline=False)
    assert rep.type2 == 0.0
    assert 1599.0 < 256 * rep.empirical_exponent < 1600.0
    assert -256 * (rep.reference_d - rep.theta) < -1388.0
    # a type-two error just above the bound still raises, and one just below
    # passes, both where t2 is a float and where it underflows
    real = hypotest.label_errors
    for s, r, n, eps in ((sigma, rho, 16, 0.25), (far_sigma, far_rho, 256, 0.05)):
        log2_bound = -n * (qrel_entropy(r, s) - theta(n, eps, 2, s))
        for factor, raises in ((1.0 + 1e-6, True), (1.0 - 1e-6, False)):
            forged = (log2_bound + math.log2(factor)) * math.log(2.0)

            def doctored(spec, labels=None, alphabet=(), forged=forged):
                misses = real(spec, labels, alphabet).misses
                return hypotest.LabelErrors(log_type_two=forged, misses=misses)

            monkeypatch.setattr(hypotest, "label_errors", doctored)
            if raises:
                with pytest.raises(VerificationError, match="above 2"):
                    run_sanov(s, [r], [n], epsilon=eps, np_baseline=False)
            else:
                rep, = run_sanov(s, [r], [n], epsilon=eps, np_baseline=False)
                assert rep.type2 == pytest.approx(2.0**log2_bound * factor, rel=1e-12, abs=0.0)
                assert rep.empirical_exponent == pytest.approx(-forged / math.log(2.0) / n)


def test_label_errors_raise_on_non_finite_results(monkeypatch):
    # the [0, 1] clamp on the misses passes NaN through; an overflowing
    # form must raise instead of reporting a miss
    rng = np.random.default_rng(40)
    sigma = random_state(2, rng)
    alphabet = [random_state(2, rng), random_state(2, rng)]
    spec = TestSpec(sigma=sigma, null_set=alphabet, epsilon=0.3, n=8, hull=True)
    labels = lambda_set(spec)
    assert all(math.isfinite(m) for m in label_errors(spec, labels, alphabet).misses.values())
    real = hypotest._qubit_label_mass
    for bad in (math.nan, math.inf):
        def poisoned(states, n, selected, bad=bad):
            mass = real(states, n, selected).copy()
            mass[(3,)] = bad
            return mass

        monkeypatch.setattr(hypotest, "_qubit_label_mass", poisoned)
        with pytest.raises(VerificationError, match="1 of 9 word-type misses are not finite"):
            label_errors(spec, labels, alphabet)
    real_table = hypotest._weight_masses

    def overflowing(*key):
        return np.full_like(real_table(*key), math.inf)

    monkeypatch.setattr(hypotest, "_weight_masses", overflowing)
    with pytest.raises(VerificationError, match="type-two error inf is not finite"):
        label_errors(spec, labels)

    def undefined(*key):
        return np.full_like(real_table(*key), math.nan)

    monkeypatch.setattr(hypotest, "_weight_masses", undefined)
    with pytest.raises(VerificationError, match="type-two error nan is not finite"):
        label_errors(spec, labels)


def test_label_path_forms_no_hook_dimension(monkeypatch):
    # ln d_lam comes from log_hook_dimension: no exact big-int d_lam is formed
    # on the label path, at d = 2 and 3, nor in spectral_estimate_check
    def no_big_int(lam):
        raise AssertionError(f"hook_dimension({lam}) called")

    for module in (hypotest, schur_weyl, tableaux):
        monkeypatch.setattr(module, "hook_dimension", no_big_int)
    schur_weyl._clear_irrep_caches()
    for d, n in ((2, 256), (3, 12)):
        rng = np.random.default_rng(5)
        rho, sigma = random_state(d, rng), random_state(d, rng)
        report = run_sanov(sigma, [rho], [n], epsilon=0.1 if d == 2 else 0.3, np_baseline=False)[0]
        assert 0.0 < report.type1_max < 1.0 and 0.0 < report.type2 < 1.0
    lhs, rhs = spectral_estimate_check((600, 500), np.diag([0.7, 0.3]), 1100)
    assert 0.0 < lhs < rhs


def test_type_one_and_type_two_match_dense_products():
    # site-wise contraction against tr{P rho^n} of the Kronecker power, for
    # complex non-commuting pairs at d = 2 and 3 and one site
    for d, n, seed in ((2, 1, 60), (2, 6, 61), (3, 1, 62), (3, 4, 63)):
        rng = np.random.default_rng(seed)
        sigma = random_state(d, rng)
        rho = random_state(d, rng)
        assert np.abs(rho @ sigma - sigma @ rho).max() > 1e-3
        p = build_test(TestSpec(sigma=sigma, null_set=[rho], epsilon=0.3, n=n))
        t1 = 1.0 - np.einsum("ij,ji->", p, tensor_power(rho, n)).real
        t2 = np.einsum("ij,ji->", p, tensor_power(sigma, n)).real
        assert abs(type_one(p, rho) - t1) <= 1e-12 * max(abs(t1), 1e-3), (d, n)
        assert abs(type_two(p, sigma) - t2) <= 1e-12 * max(abs(t2), 1e-3), (d, n)


def test_run_sanov_hull_reference_is_the_hull_minimum():
    # sigma = I/2 lies in the hull, so the reference divergence is 0, not
    # the 0.919 of the nearest generator that the type-two bound used to read
    nulls = [np.diag([0.99, 0.01]), np.diag([0.01, 0.99])]
    reports = run_sanov(
        np.eye(2) / 2, nulls, [64], epsilon=0.05, hull=True, np_baseline=False
    )
    assert reports[0].reference_d == 0.0
    assert 0 < reports[0].type2 <= 1
    # with the baseline on, the minimizing mixture I/2 is the null state
    r = run_sanov(np.eye(2) / 2, nulls, [8], epsilon=0.05, hull=True)[0]
    assert abs(r.np_beta - neyman_pearson(np.eye(2) / 2, np.eye(2) / 2, 8, r.type1_max)) < 1e-15


def fractional_np_loop(p, q, target):
    """The value of `_classical_np` as the outcome-by-outcome loop it replaced."""
    if target <= 0.0:
        return 0.0
    ratio = np.where(q > 0, p / np.where(q > 0, q, 1.0), np.inf)
    ratio = np.where((q <= 0) & (p <= 0), -np.inf, ratio)
    beta = caught = 0.0
    for idx in np.argsort(-ratio, kind="stable"):
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


def test_fractional_np_is_the_loop_bit_for_bit():
    # running sums in the same order: equal results, with zero masses,
    # ratio ties, and targets at 0, inside, at the total and past it
    rng = np.random.default_rng(12)
    for _ in range(2000):
        k = int(rng.integers(1, 12))
        p, q = rng.random(k), rng.random(k)
        p[rng.random(k) < 0.2] = 0.0
        q[rng.random(k) < 0.2] = 0.0
        if rng.random() < 0.3:
            p, q = np.round(p, 1), np.round(q, 1)
        if p.sum() > 0:
            p /= p.sum()
        for target in (0.0, float(rng.random()), float(p.sum()), 1.5):
            assert _classical_np(p, q, target)[0] == fractional_np_loop(p, q, target), (p, q, target)


def test_neyman_pearson_commuting_matches_classical():
    p_vec = np.array([0.7, 0.3])
    q_vec = np.array([0.5, 0.5])
    rho, sigma = np.diag(p_vec), np.diag(q_vec)
    for n in (2, 4, 6):
        words = list(itertools.product((0, 1), repeat=n))
        p = np.array([np.prod(p_vec[list(w)]) for w in words])
        q = np.array([np.prod(q_vec[list(w)]) for w in words])
        for nu in (0.05, 0.2, 0.5):
            beta = neyman_pearson(rho, sigma, n, nu)
            assert abs(beta - classical_np(p, q, 1 - nu)) < 1e-9, (n, nu)


def test_neyman_pearson_level_inside_the_top_eigenvector():
    # sigma = I/2 and a level below the mass of the top eigenvector of rho^n:
    # the optimum takes a share of that eigenvector alone, whose likelihood
    # ratio sits exactly on the top of the threshold bracket.
    q_vec = np.array([0.5, 0.5])
    for rho in (np.diag([0.73, 0.27]), bloch_state([0.3, 0.0, 0.35])):
        p_vec = np.linalg.eigvalsh(rho)[::-1]
        for n in (4, 5):
            words = list(itertools.product((0, 1), repeat=n))
            p = np.array([np.prod(p_vec[list(w)]) for w in words])
            q = np.array([np.prod(q_vec[list(w)]) for w in words])
            for nu in (0.8, 0.9):
                beta = neyman_pearson(rho, np.eye(2) / 2, n, nu)
                assert abs(beta - classical_np(p, q, 1 - nu)) < 1e-12, (n, nu)


def test_neyman_pearson_edge_cases():
    sigma = np.diag([0.6, 0.4])
    # equal hypotheses: accepting mass 1 - nu costs exactly 1 - nu
    assert abs(neyman_pearson(sigma, sigma, 3, 0.25) - 0.75) < 1e-9
    # nu = 0 forces the whole support
    assert abs(neyman_pearson(np.diag([0.7, 0.3]), sigma, 2, 0.0) - 1.0) < 1e-9
    beta_loose = neyman_pearson(np.diag([0.7, 0.3]), sigma, 4, 0.4)
    beta_tight = neyman_pearson(np.diag([0.7, 0.3]), sigma, 4, 0.1)
    assert beta_loose <= beta_tight + 1e-12


def test_neyman_pearson_with_likelihood_ratio_ties_across_frames():
    # rho = diag(0.6, 0.4) against sigma = diag(0.4, 0.6): every label with
    # the same f has the ratio (3/2)**(f0 - f1), whatever its frame, so the
    # optimum is the classical one over types, weighted by C(n, k)
    p_vec, q_vec = np.array([0.6, 0.4]), np.array([0.4, 0.6])
    for n in range(2, 9):
        k = np.arange(n + 1)
        binom = np.array([math.comb(n, j) for j in k], dtype=float)
        p = binom * p_vec[0] ** (n - k) * p_vec[1] ** k
        q = binom * q_vec[0] ** (n - k) * q_vec[1] ** k
        for nu in (0.05, 0.3, 0.5):
            beta = neyman_pearson(np.diag(p_vec), np.diag(q_vec), n, nu)
            want = _classical_np(p, q, 1.0 - nu)[0]
            assert abs(beta - want) <= 1e-12 * want, (n, nu, beta, want)
    # rho = sigma: every eigenvalue of rho^n - t sigma^n ties at t = 1
    for n in (2, 5, 8):
        for nu in (0.05, 0.3, 0.5):
            beta = neyman_pearson(np.eye(2) / 2, np.eye(2) / 2, n, nu)
            assert abs(beta - (1.0 - nu)) <= 1e-15, (n, nu, beta)


def test_neyman_pearson_at_level_zero_accepts_the_support():
    # At nu = 0 the test is the identity on supp(rho)^n, so beta is
    # tr(Pi^n sigma^n): 1 for a nonsingular rho. For a singular rho the
    # bisection meets that level only within the rounding of rho^n.
    cases = []
    for seed, d, rank in ((90, 2, 1), (91, 3, 1), (92, 3, 2), (93, 2, 2)):
        rng = np.random.default_rng(seed)
        cases.append((random_state(d, rng, rank=rank), random_state(d, rng), rank))
    for rho, sigma, rank in cases:
        vals, vecs = np.linalg.eigh(rho)
        pi = vecs[:, -rank:] @ vecs[:, -rank:].conj().T
        for n in range(1, 6):
            want = float(np.trace(tensor_power(pi, n) @ tensor_power(sigma, n)).real)
            got = neyman_pearson(rho, sigma, n, 0.0)
            assert abs(got - want) <= 1e-12 * want, (rank, n, got, want)
            assert got >= neyman_pearson(rho, sigma, n, 1e-6), (rank, n)


def test_neyman_pearson_blocks_that_underflow_raise_no_warning():
    # rho = |0><0| against sigma = diag(1 - 1e-6, 1e-6): at n = 120 the traces
    # of the frames far below the top underflow, and beta is the closed form
    # (1 - nu) <0|sigma|0>^n, also with both states rotated by one unitary
    rho = np.diag([1.0, 0.0]).astype(complex)
    sigma = np.diag([1.0 - 1e-6, 1e-6]).astype(complex)
    n, nu = 120, 0.05
    want = (1.0 - nu) * (1.0 - 1e-6) ** n
    u = haar_unitary(2, np.random.default_rng(7))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for r, s in ((rho, sigma), (u @ rho @ u.conj().T, u @ sigma @ u.conj().T)):
            got = neyman_pearson(r, s, n, nu)
            assert abs(got - want) <= 1e-12 * want, (got, want)


def test_neyman_pearson_noncommuting_sane():
    rho = bloch_state([0.5, 0.1, 0.2])
    sigma = bloch_state([0.0, 0.0, 0.5])
    beta = neyman_pearson(rho, sigma, 4, 0.1)
    assert 0.0 < beta < 1.0
    # beats (or ties) the projector test at the same achieved level
    spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.4, n=4)
    p = build_test(spec)
    t1 = type_one(p, rho)
    t2 = type_two(p, sigma)
    assert neyman_pearson(rho, sigma, 4, t1) <= t2 + 1e-9


def dense_core_block(rho, sigma, n):
    """The single block (1, rho^n, sigma^n) of the dense Neyman-Pearson core."""
    return [(1.0, _hermitian(tensor_power(rho, n)), _hermitian(tensor_power(sigma, n)))]


def test_neyman_pearson_qubit_blocks_match_dense_core():
    # The U(2) Gelfand-Tsetlin irrep blocks against the dense single-block
    # core, on inputs fixed in advance: random complex pairs, a pure rho,
    # rho = sigma.
    pairs = []
    for seed in range(6):
        rng = np.random.default_rng(seed)
        pairs.append((random_state(2, rng), random_state(2, rng)))
    rng = np.random.default_rng(6)
    pairs.append((random_state(2, rng, rank=1), random_state(2, rng)))
    tie = random_state(2, np.random.default_rng(7))
    pairs.append((tie, tie))
    for i, (rho, sigma) in enumerate(pairs):
        for n in range(2, 9):
            dense = dense_core_block(rho, sigma, n)
            bracket = _log_threshold_bracket(rho, sigma, n)
            for nu in (0.05, 0.3):
                want = _np_over_blocks(dense, bracket, 1.0 - nu, 1e-10)
                got = neyman_pearson(rho, sigma, n, nu)
                assert abs(got - want) <= 1e-9 * abs(want), (i, n, nu, got, want)


def test_neyman_pearson_gt_blocks_match_dense_core_at_d3():
    # Seeds and sizes fixed in advance: d = 3, a complex pair, a rank-1 rho,
    # a real noncommuting pair whose sigma has smallest eigenvalue 1e-3, and
    # a rank-2 rho; the Gelfand-Tsetlin irrep blocks against the dense
    # single-block core. At n = 6 the dense core diagonalizes 729 x 729
    # matrices at each bisection step, so only the real pair runs there.
    pairs = []
    for seed, rank in ((100, 3), (101, 1)):
        rng = np.random.default_rng(seed)
        pairs.append((random_state(3, rng, rank=rank), random_state(3, rng)))
    rng = np.random.default_rng(102)
    o1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    o2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    pairs.append((o1 @ np.diag([0.5, 0.3, 0.2]) @ o1.T, o2 @ np.diag([0.6, 0.399, 0.001]) @ o2.T))
    rng = np.random.default_rng(103)
    pairs.append((random_state(3, rng, rank=2), random_state(3, rng)))
    for i, (rho, sigma) in enumerate(pairs):
        for n in range(1, 7):
            if n == 6 and i != 2:
                continue
            dense = dense_core_block(rho, sigma, n)
            bracket = _log_threshold_bracket(rho, sigma, n)
            for nu in ((0.3,) if n == 6 else (0.05, 0.3)):
                want = _np_over_blocks(dense, bracket, 1.0 - nu, 1e-10)
                got = neyman_pearson(rho, sigma, n, nu)
                assert abs(got - want) <= 1e-10 * abs(want), (i, n, nu, got, want)


def test_neyman_pearson_threshold_bracket_does_not_overflow():
    # (r_max / s_min)**n = 900**128, about 1e378, is past the float range;
    # the commuting optimum is the classical one over the 129 types.
    n = 128
    rho, sigma = np.diag([0.9, 0.1]), np.diag([0.999, 0.001])

    def type_masses(x0):
        return np.array([
            math.exp(math.lgamma(n + 1) - math.lgamma(a + 1) - math.lgamma(n - a + 1)
                     + a * math.log(x0) + (n - a) * math.log(1.0 - x0))
            for a in range(n + 1)
        ])

    p, q = type_masses(0.9), type_masses(0.999)
    for nu in (0.05, 0.3):
        beta = neyman_pearson(rho, sigma, n, nu)
        assert math.isfinite(beta)
        assert abs(beta - classical_np(p, q, 1.0 - nu)) < 1e-12, nu


def test_neyman_pearson_finish_is_second_order_in_the_bracket():
    # A pure rho against a sigma with smallest eigenvalue 0.016 in a random
    # complex basis: the finish must not move beta to first order in tol.
    # Below beta ~ 1e-9 the eigh rounding of the S mass on the positive part
    # (about 1e-18 absolute here, the same at every tol) exceeds 1e-9
    # relative, hence the absolute floor of 1e-17.
    for seed in range(3):
        rng = np.random.default_rng(seed)
        rho = random_state(2, rng, rank=1)
        sigma = _rotated([0.984, 0.016], rng)
        for n in range(6, 11):
            for nu in (0.05, 0.3):
                got = neyman_pearson(rho, sigma, n, nu)
                want = neyman_pearson(rho, sigma, n, nu, tol=1e-15)
                assert abs(got - want) <= 1e-9 * want + 1e-17, (seed, n, nu, got, want)


def test_neyman_pearson_beta_is_a_probability():
    # Pure rho at d = 2: betas far below 1e-9 sit at the eigh rounding floor,
    # which put seed 101, n = 20, nu = 0.05 at -5.1e-19 before the clamp;
    # the rest of the scan (seeds 100..111) held 12 more negative betas.
    for seed in range(100, 112):
        rng = np.random.default_rng(seed)
        sigma = random_state(2, rng)
        rho = random_state(2, rng, rank=1)
        for n in (10, 20, 40):
            for nu in (0.05, 0.3):
                beta = neyman_pearson(rho, sigma, n, nu)
                assert 0.0 <= beta <= 1.0, (seed, n, nu, beta)


def _rotated(spectrum, rng):
    u = haar_unitary(len(spectrum), rng)
    return u @ np.diag(spectrum) @ u.conj().T


def bisection_np(blocks, bracket, target, tol):
    """Plain bisection of log t down to width tol, then the chord finish.

    The Neyman-Pearson search the certified one replaced, kept as its
    oracle: each step diagonalizes every block of (R - t S)/(1 + t) and
    keeps the test on its positive part; the tests at the two ends of the
    final bracket are mixed to meet the target level.
    """
    lo, hi = bracket

    def positive_part(log_t):
        shift = float(np.logaddexp(0.0, log_t))
        w_r, w_s = math.exp(-shift), math.exp(log_t - shift)
        got = beta = 0.0
        for mult, r, s in blocks:
            vals, vecs = np.linalg.eigh(w_r * r - w_s * s)
            keep = vecs[:, vals > 0]
            got += mult * float(_diag_in(keep, r).sum())
            beta += mult * float(_diag_in(keep, s).sum())
        return got, beta

    ends = {"hi": (0.0, 0.0)}
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        got, beta = positive_part(mid)
        if got >= target:
            lo, ends["lo"] = mid, (got, beta)
        else:
            hi, ends["hi"] = mid, (got, beta)
    p_lo, b_lo = ends.get("lo") or positive_part(lo)
    p_hi, b_hi = ends["hi"]
    if p_lo <= p_hi:
        return b_lo
    w = min(max((target - p_hi) / (p_lo - p_hi), 0.0), 1.0)
    return w * b_lo + (1.0 - w) * b_hi


def count_eigh(monkeypatch) -> list:
    """Patch np.linalg.eigh to record the shape of each call's input."""
    calls = []
    eigh = np.linalg.eigh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting)
    return calls


def np_search_cases():
    """(rho, sigma, n) inputs of the search-against-bisection checks.

    Noncommuting complex pairs at d = 2 (n <= 10) and d = 3 (n <= 8), a
    rank-1 and a rank-2 rho, a pure rho against a sigma with smallest
    eigenvalue 0.016, and the d = 3 pair of default_rng(100) at n = 1,
    whose level 0.95 sits on a likelihood-ratio tie.
    """
    cases = []
    for seed in (10, 11, 12):
        rng = np.random.default_rng(seed)
        rho, sigma = random_state(2, rng), random_state(2, rng)
        cases += [(rho, sigma, n) for n in range(1, 11)]
    for seed in (20, 21):
        rng = np.random.default_rng(seed)
        rho, sigma = random_state(3, rng), random_state(3, rng)
        cases += [(rho, sigma, n) for n in range(1, 9)]
    rng = np.random.default_rng(30)
    rho, sigma = random_state(2, rng, rank=1), random_state(2, rng)
    cases += [(rho, sigma, n) for n in (4, 8)]
    rng = np.random.default_rng(31)
    rho, sigma = random_state(3, rng, rank=2), random_state(3, rng)
    cases += [(rho, sigma, n) for n in (3, 6)]
    for seed in range(3):
        rng = np.random.default_rng(seed)
        rho, sigma = random_state(2, rng, rank=1), _rotated([0.984, 0.016], rng)
        cases += [(rho, sigma, n) for n in range(6, 11)]
    rng = np.random.default_rng(100)
    cases.append((random_state(3, rng), random_state(3, rng), 1))
    return [(assert_state(rho), assert_state(sigma), n) for rho, sigma, n in cases]


def test_np_search_matches_the_bisection_oracle():
    # At tol = 1e-15 both resolve beta to its eigh rounding floor, about
    # 1e-17 absolute, hence that floor next to the 1e-9 relative part.
    for i, (rho, sigma, n) in enumerate(np_search_cases()):
        blocks = _irrep_blocks(rho, sigma, n)
        bracket = _log_threshold_bracket(rho, sigma, n)
        for nu in (0.05, 0.3):
            got = _np_over_blocks(blocks, bracket, 1.0 - nu, 1e-15)
            want = bisection_np(blocks, bracket, 1.0 - nu, 1e-15)
            assert abs(got - want) <= 1e-9 * want + 1e-17, (i, n, nu, got, want)


def test_np_search_sweeps_no_more_than_bisection(monkeypatch):
    calls = count_eigh(monkeypatch)
    for i, (rho, sigma, n) in enumerate(np_search_cases()):
        blocks = _irrep_blocks(rho, sigma, n)
        bracket = _log_threshold_bracket(rho, sigma, n)
        for nu in (0.05, 0.3):
            calls.clear()
            _np_over_blocks(blocks, bracket, 1.0 - nu, 1e-10)
            search = len(calls)
            calls.clear()
            bisection_np(blocks, bracket, 1.0 - nu, 1e-10)
            assert search <= len(calls), (i, n, nu, search, len(calls))


def type_masses(p_vec, n):
    """Masses of the n + 1 letter-count types of a product of diag(p_vec)."""
    k = np.arange(n + 1)
    binom = np.array([math.comb(n, j) for j in k], dtype=float)
    return binom * p_vec[0] ** (n - k) * p_vec[1] ** k


def test_np_search_on_commuting_pairs_takes_two_sweeps(monkeypatch):
    # sigma = I/2 makes every S_lam a multiple of the identity, and the tie
    # pair is diagonal, so R and S commute in every block: the ratio of the
    # first sweep's marginal eigenvector is the threshold, and the second
    # sweep closes the gap. The optimum is the classical one over types.
    half = np.eye(2) / 2
    pairs = [
        (np.diag([0.7, 0.3]), half),
        (bloch_state([0.4, 0.0, 0.3]), half),
        (np.diag([0.6, 0.4]), np.diag([0.4, 0.6])),
        (half, half),
    ]
    calls = count_eigh(monkeypatch)
    for i, (rho, sigma) in enumerate(pairs):
        p_vec = np.linalg.eigvalsh(rho)[::-1]
        q_vec = np.diag(sigma).real
        for n in range(4, 11):
            blocks = _irrep_blocks(rho, sigma, n)
            bracket = _log_threshold_bracket(rho, sigma, n)
            p, q = type_masses(p_vec, n), type_masses(q_vec, n)
            for nu in (0.05, 0.3):
                calls.clear()
                beta = _np_over_blocks(blocks, bracket, 1.0 - nu, 1e-10)
                assert len(calls) <= 2 * len(enumerate_frames(2, n)), (i, n, nu, len(calls))
                want = _classical_np(p, q, 1.0 - nu)[0]
                assert abs(beta - want) <= 1e-12 * want, (i, n, nu, beta, want)


def test_neyman_pearson_at_level_one_runs_no_eigh(monkeypatch):
    calls = count_eigh(monkeypatch)
    rng = np.random.default_rng(8)
    for d, n in ((2, 6), (3, 4)):
        assert neyman_pearson(random_state(d, rng), random_state(d, rng), n, 1.0) == 0.0
    assert calls == []


def test_label_errors_match_dense_type_one_and_type_two():
    # Seeds and sizes fixed in advance: random complex pairs, a rank-1 rho
    # (det = 0, k = 0 only), sigma just above SIGMA_MIN_EIG, a |S| = 3 hull.
    cases = []
    for seed in range(20, 24):
        rng = np.random.default_rng(seed)
        cases.append((random_state(2, rng), [random_state(2, rng)], False))
    rng = np.random.default_rng(24)
    cases.append((random_state(2, rng), [random_state(2, rng, rank=1)], False))
    rng = np.random.default_rng(25)
    cases.append((_rotated([1.0 - 1e-9, 1e-9], rng), [random_state(2, rng)], False))
    rng = np.random.default_rng(26)
    cases.append((random_state(2, rng), [random_state(2, rng) for _ in range(3)], True))
    for i, (sigma, nulls, hull) in enumerate(cases):
        for n in tuple(range(1, 9)) + ((10,) if i == 0 else ()):
            spec = TestSpec(sigma=sigma, null_set=nulls, epsilon=0.35, n=n, hull=hull)
            labels = lambda_set(spec)
            p = build_test(spec, labels)
            assert abs(label_errors(spec, labels).type_two - type_two(p, sigma)) < 1e-12
            for rho in nulls:
                miss = label_errors(spec, labels, [rho]).misses[(n,)]
                assert abs(miss - type_one(p, rho)) < 1e-12, (i, n)


def test_label_errors_with_sigma_near_the_eigenvalue_floor():
    # sigma = U diag(1 - t, t) U^dag a few decades above SIGMA_MIN_EIG, U a
    # complex QR draw: the labels still match the dense projector
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    rho = random_state(2, rng)
    for t in (2e-12, 1e-11, 1e-9):
        sigma = u @ np.diag([1.0 - t, t]) @ u.conj().T
        for n in (4, 6):
            spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.3, n=n)
            labels = lambda_set(spec)
            p = build_test(spec, labels)
            errs = label_errors(spec, labels, [rho])
            assert abs(errs.type_two - type_two(p, sigma)) <= 1e-12, (t, n)
            assert abs(errs.misses[(n,)] - type_one(p, rho)) <= 1e-12, (t, n)
    sigma = u @ np.diag([1.0 - 1e-13, 1e-13]) @ u.conj().T
    with pytest.raises(ValueError):
        TestSpec(sigma=sigma, null_set=[rho], epsilon=0.3, n=4)


def test_label_type_two_matches_dense_at_d3():
    for seed in (30, 31):
        rng = np.random.default_rng(seed)
        sigma, nulls = random_state(3, rng), [random_state(3, rng), random_state(3, rng)]
        for n in range(1, 7):
            spec = TestSpec(sigma=sigma, null_set=nulls, epsilon=0.4, n=n, hull=True)
            labels = lambda_set(spec)
            p = build_test(spec, labels)
            errs = label_errors(spec, labels, nulls)
            assert abs(errs.type_two - type_two(p, sigma)) < 1e-12, (seed, n)
            for c, miss in errs.misses.items():
                word = [s for s, k in enumerate(c) for _ in range(k)]
                assert abs(miss - word_type_one(p, word, nulls)) < 1e-12, (seed, n, c)


def test_label_type_two_is_the_kostka_sum_past_the_dense_guard():
    # sum K_{f,lam} d_lam t^f over the labels, with K from the strip recursion
    for d, n, seed in ((2, 64, 32), (3, 12, 33)):
        rng = np.random.default_rng(seed)
        sigma, nulls = random_state(d, rng), [random_state(d, rng), random_state(d, rng)]
        spec = TestSpec(sigma=sigma, null_set=nulls, epsilon=0.4, n=n, hull=True)
        labels = lambda_set(spec)
        want = sum(
            kostka(f, lam) * hook_dimension(lam) * float(np.prod(spec.t ** np.array(f)))
            for f, lam in labels
        )
        got = label_errors(spec, labels).type_two
        assert 0.0 < want < 1.0
        assert abs(got - want) < 1e-12 * want, (d, n, got, want)


def test_label_log_type_two_matches_mpmath_past_the_float_range():
    # The default_rng(5) qubit pair at epsilon = 0.1: log2 t2 = -1208.565 at
    # n = 2048 and -2408.986 at n = 4096, where the float t2 reads 0.0,
    # against a 50-digit sum of d_lam t^f over the labels, d_lam =
    # C(n, k) - C(n, k - 1). Up to n = 1024, exp(ln t2) is the plain float
    # sum of the table cells within 1e-14.
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(5)
    rho, sigma = random_state(2, rng), random_state(2, rng)
    for n in (64, 256, 1024):
        spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.1, n=n)
        key = np.diag(spec.t).astype(complex).tobytes()
        plain = sum(
            math.exp(schur_weyl._weight_masses(lam, 2, key)[f[:-1]])
            for f, lam in lambda_set(spec)
        )
        assert 0.0 < plain
        got = label_errors(spec).type_two
        assert abs(got - plain) <= 1e-14 * plain, (n, got, plain)
    with mp.workdps(50):
        for n, log2_t2 in ((2048, -1208.565), (4096, -2408.986)):
            spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.1, n=n)
            by_frame = {}
            for f, lam in lambda_set(spec):
                by_frame.setdefault(lam[1] if len(lam) > 1 else 0, []).append(f[0])
            powers = [[mp.mpf(1)] for _ in spec.t]
            for t, row in zip(spec.t, powers):
                for _ in range(n):
                    row.append(row[-1] * mp.mpf(float(t)))
            total = mp.mpf(0)
            for k, tops in by_frame.items():
                dim = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
                total += dim * mp.fsum(powers[0][a] * powers[1][n - a] for a in tops)
            want = float(mp.log(total))
            errs = label_errors(spec)
            assert errs.type_two == 0.0
            assert abs(errs.log_type_two - want) <= 1e-12 * abs(want), (n, errs.log_type_two, want)
            assert round(float(errs.log_type_two) / math.log(2.0), 3) == log2_t2


def test_label_misses_match_dense_at_d3():
    # Seeds and sizes fixed in advance: d = 3, complex sigma eigenbases,
    # |S| = 1 (a rank-1 rho), 2 and 3 (each with a rank-1 letter), every
    # letter-count type against the sorted word and its reverse.
    for s_size, seed in ((1, 60), (2, 61), (3, 62)):
        rng = np.random.default_rng(seed)
        sigma = random_state(3, rng)
        alphabet = [random_state(3, rng, rank=1)]
        alphabet += [random_state(3, rng) for _ in range(s_size - 1)]
        for n in range(1, 7):
            spec = TestSpec(sigma=sigma, null_set=alphabet, epsilon=0.5, n=n, hull=True)
            labels = lambda_set(spec)
            p = build_test(spec, labels)
            misses = label_errors(spec, labels, alphabet).misses
            assert len(misses) == len(enumerate_frequencies(s_size, n))
            if s_size == 1:
                assert abs(misses[(n,)] - type_one(p, alphabet[0])) < 1e-12, n
            for c, miss in misses.items():
                word = [s for s, k in enumerate(c) for _ in range(k)]
                for w in (word, word[::-1]):
                    assert abs(miss - word_type_one(p, w, alphabet)) < 1e-12, (s_size, n, c)


def _d3_type_one_cases():
    # complex sigma eigenbases; rank-1, rank-2, commuting (with sigma) and
    # maximally mixed rho; one sigma with smallest eigenvalue just above
    # SIGMA_MIN_EIG
    cases = []
    for seed, rank in ((110, 1), (111, 2), (112, 3)):
        rng = np.random.default_rng(seed)
        cases.append((random_state(3, rng), random_state(3, rng, rank=rank)))
    rng = np.random.default_rng(113)
    u = haar_unitary(3, rng)
    cases.append((u @ np.diag([0.5, 0.3, 0.2]) @ u.conj().T,
                  u @ np.diag([0.7, 0.2, 0.1]) @ u.conj().T))
    cases.append((random_state(3, rng), np.eye(3) / 3))
    cases.append((_rotated([0.7, 0.3 - 1e-11, 1e-11], rng), random_state(3, rng)))
    assert 1e-11 > SIGMA_MIN_EIG
    return cases


def test_label_type_one_at_d3_matches_dense_type_one():
    # n = 7 (2187 words) only for the first case, to keep the dense oracle short
    for i, (sigma, rho) in enumerate(_d3_type_one_cases()):
        for n in range(1, 8 if i == 0 else 7):
            for eps in (0.3, 0.6):
                spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=eps, n=n)
                labels = lambda_set(spec)
                miss = label_errors(spec, labels, [rho]).misses[(n,)]
                assert abs(miss - type_one(build_test(spec, labels), rho)) < 1e-12, (i, n, eps)


def test_run_sanov_at_d3_n20_takes_type_one_from_irreps():
    # 3**20 words: the rejected and the accepted mass come from U(3) irreps
    # (the accepted one as the miss of the complementary label set) and
    # add up to one.
    n = 20
    rng = np.random.default_rng(114)
    sigma, rho = random_state(3, rng), random_state(3, rng)
    rep, = run_sanov(sigma, [rho], [n], epsilon=0.5, np_baseline=False)
    spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.5, n=n)
    labels = lambda_set(spec)
    every = frozenset(
        (f, fr)
        for f in enumerate_frequencies(3, n)
        for fr in enumerate_frames(3, n)
        if dominance(f, fr)
    )
    accepted = label_errors(spec, every - labels, [rho]).misses[(n,)]
    assert 0.0 < rep.type1_max < 1.0
    assert abs(rep.type1_max + accepted - 1.0) < 1e-12
    assert 0.0 < rep.type2 < 1.0


def test_run_sanov_at_d3_n8_passes_the_dense_guard():
    # 3**8 = 6561 is above the 4096 dense guard; the labels need no d**n operator
    rng = np.random.default_rng(63)
    sigma, rho = random_state(3, rng), random_state(3, rng)
    rep, = run_sanov(sigma, [rho], [8], epsilon=0.5, np_baseline=False)
    spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.5, n=8)
    # a length-8 sequence keeps the oracle on word blocks, off the irreps
    sites = [rho] * 8
    accept = sum(block_weight(f, lam, sites, basis=spec.basis) for f, lam in lambda_set(spec))
    assert 0.0 < rep.type1_max < 1.0
    assert abs(rep.type1_max - (1.0 - accept)) < 1e-12
    assert 0.0 < rep.type2 < 1.0


def test_label_errors_at_n_128_are_probabilities():
    # Rejected mass plus accepted mass (the misses of the complementary
    # label set) is one for every type, and every miss is a probability.
    n = 128
    rng = np.random.default_rng(40)
    sigma = random_state(2, rng)
    alphabet = [random_state(2, rng), random_state(2, rng)]
    spec = TestSpec(sigma=sigma, null_set=alphabet, epsilon=0.3, n=n, hull=True)
    labels = lambda_set(spec)
    every = frozenset(
        (f, fr)
        for f in enumerate_frequencies(2, n)
        for fr in enumerate_frames(2, n)
        if dominance(f, fr)
    )
    for letters in (alphabet[:1], alphabet):
        misses = label_errors(spec, labels, letters).misses
        accepted = label_errors(spec, every - labels, letters).misses
        assert len(misses) == (n + 1 if len(letters) == 2 else 1)
        for c, miss in misses.items():
            assert math.isfinite(miss) and 0.0 <= miss <= 1.0, c
            assert abs(miss + accepted[c] - 1.0) < 1e-12, c
    assert 0.0 < label_errors(spec, labels).type_two < 1.0
    letters = alphabet + [sigma]
    big = TestSpec(sigma=sigma, null_set=letters, epsilon=0.3, n=200, hull=True)
    with pytest.raises(SizeGuardError, match=r"\|S\| = 3, n = 200"):
        label_errors(big, {((200, 0), (200,))}, letters)


def test_label_word_forms_match_irreps_on_a_repeated_letter():
    # Seeds and sizes fixed in advance: at d = 2 every type of the alphabet
    # [rho, rho] (word forms) has the miss of [rho] (U(2) irreps), past the
    # sizes of any dense oracle; random complex pairs, one with a rank-1 rho.
    for seed in (50, 51, 52):
        rng = np.random.default_rng(seed)
        sigma = random_state(2, rng)
        rho = random_state(2, rng, rank=1 if seed == 52 else 2)
        for n in (16, 64, 128):
            spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.3, n=n)
            labels = lambda_set(spec)
            one = label_errors(spec, labels, [rho]).misses[(n,)]
            misses = label_errors(spec, labels, [rho, rho]).misses
            assert len(misses) == n + 1
            for c, miss in misses.items():
                assert abs(miss - one) < 1e-12, (seed, n, c)


def test_run_sanov_at_n_128_forms_no_dense_operator():
    rep, = run_sanov(np.eye(2) / 2, [np.diag([0.7, 0.3])], [128], epsilon=0.25)
    assert 0.0 < rep.type1_max < 1.0
    assert 0.0 < rep.np_beta <= rep.type2 < 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        TestSpec(sigma=np.diag([1.0, 0.0]), null_set=[np.eye(2) / 2], epsilon=0.1, n=2)
    with pytest.raises(ValueError):
        TestSpec(sigma=np.eye(2) / 2, null_set=[], epsilon=0.1, n=2)
    with pytest.raises(ValueError):
        TestSpec(sigma=np.eye(2) / 2, null_set=[np.eye(2) / 2], epsilon=2.5, n=2)
    with pytest.raises(ValueError):
        TestSpec(sigma=np.eye(2) / 2, null_set=[np.eye(3) / 3], epsilon=0.1, n=2)


def test_hull_grid_enlarges_label_set():
    a = np.diag([0.9, 0.1])
    b = np.diag([0.5, 0.5])
    n, eps = 6, 0.1
    # sigma eigenbasis fixes the letter order; keep it at e0, e1
    separate = TestSpec(sigma=np.diag([0.75, 0.25]), null_set=[a, b], epsilon=eps, n=n)
    hull = TestSpec(
        sigma=np.diag([0.75, 0.25]), null_set=[a, b], epsilon=eps, n=n, hull=True
    )
    l_sep = lambda_set(separate)
    l_hull = lambda_set(hull)
    assert l_sep < l_hull
    # a mid-hull state is covered by the hull test but not the two-point test
    mid = frozenset({((4, 2), (4, 2))})
    assert mid <= l_hull
    assert not mid <= l_sep


def _dominance_pairs(d: int, n: int) -> list:
    return [
        (f, lam)
        for lam in enumerate_frames(d, n)
        for f in enumerate_frequencies(d, n)
        if dominance(f, lam)
    ]


def _qubit_pairs(n: int, ks) -> list:
    # every label of the d = 2 frames (n - k, k), k in ks, as `_dominance_pairs`
    return [
        ((k + a, n - k - a), (n - k, k) if k else (n,))
        for k in ks
        for a in range(n - 2 * k + 1)
    ]


def test_irrep_miss_and_accepted_block_weights_sum_to_one():
    # the miss and the accepted single-state block weights read one weight-
    # mass table of rho', so together they are the whole of tr{rho^n} = 1
    rng = np.random.default_rng(61)
    for d, ns in ((2, range(1, 9)), (3, range(1, 9))):
        for n in ns:
            rho, sigma = random_state(d, rng), random_state(d, rng)
            spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.3, n=n)
            assert np.abs(spec.basis.imag).max() > 1e-3
            pairs = _dominance_pairs(d, n)
            for _ in range(3):
                labels = frozenset(pair for pair in pairs if rng.random() < 0.5)
                miss = label_errors(spec, labels, [rho]).misses[(n,)]
                kept = sum(block_weight(f, lam, rho, basis=spec.basis) for f, lam in labels)
                assert abs(miss + kept - 1.0) <= 1e-14, (d, n, miss + kept - 1.0)


def test_irrep_miss_stays_finite_past_the_float_range():
    # d_lam passes 2**1024 and s_lam(r) underflows near n = 1030. Accept
    # every label of the frames lam = (n - k, k) near the peak k = 0.3 n, so
    # the miss, about 1/2 and clear of the [0, 1] clamp of `misses`, is the
    # sum of d_lam s_lam(r) over the other frames; for r = (p, q) that is
    # d_lam (p q)**k (p**(m+1) - q**(m+1)) / (p - q), m = n - 2k, with d_lam
    # the exact int C(n, k) - C(n, k - 1)
    p, q = 0.7, 0.3
    rho = np.diag([p, q]).astype(complex)
    for n in (1536, 2048):
        band = range(round(q * n) - 12, round(q * n) + 13)
        labels = frozenset(_qubit_pairs(n, band))
        log_terms = []
        for k in range(n // 2 + 1):
            if k in band:
                continue
            dim = math.comb(n, k) - (math.comb(n, k - 1) if k else 0)
            m = n - 2 * k
            log_terms.append(
                math.log(dim) + k * math.log(q) + (n - k) * math.log(p)
                + math.log1p(-((q / p) ** (m + 1))) - math.log1p(-q / p)
            )
        edge = band[0] - 1
        assert (math.comb(n, edge) - math.comb(n, edge - 1)).bit_length() > 1024
        want = math.fsum(map(math.exp, log_terms))
        assert 0.2 < want < 0.8, (n, want)
        spec = TestSpec(sigma=np.diag([0.6, 0.4]), null_set=[rho], epsilon=0.1, n=n)
        miss = label_errors(spec, labels, [rho]).misses[(n,)]
        assert abs(miss / want - 1.0) <= 1e-12, (n, miss / want - 1.0)
        kept = math.fsum(block_weight(f, lam, rho) for f, lam in labels)
        assert abs(miss + kept - 1.0) <= 1e-12, (n, miss + kept - 1.0)
    # one partly accepted frame past 2**1023: for a diagonal rho its GT
    # diagonal is r**wt, so the miss is sum over rejected rows of d_lam r**wt
    n, lam = 1100, (600, 500)
    rho = np.diag([0.6, 0.4]).astype(complex)
    assert hook_dimension(lam).bit_length() > 1024
    rejected = {tuple(w) for w in gt_weights(lam, 2)[::2].tolist()}
    labels = frozenset(
        (f, fr) for f, fr in _qubit_pairs(n, range(n // 2 + 1)) if fr != lam or f not in rejected
    )
    log_r = np.log([0.6, 0.4])
    log_terms = math.log(hook_dimension(lam)) + np.array(sorted(rejected)) @ log_r
    want = float(np.exp(log_terms).sum())
    assert want > 1e-6
    spec = TestSpec(sigma=np.diag([0.7, 0.3]), null_set=[rho], epsilon=0.1, n=n)
    errs = label_errors(spec, labels, [rho])
    assert abs(errs.misses[(n,)] / want - 1.0) <= 1e-12
    # every label of every frame but lam's rejected rows: sum d_lam s_lam(t)
    # less their sigma mass, (0.7 + 0.3)**n = 1 less a few
    log_t = np.log([0.7, 0.3])
    lost = float(np.exp(math.log(hook_dimension(lam)) + np.array(sorted(rejected)) @ log_t).sum())
    assert abs(errs.type_two - (1.0 - lost)) <= 1e-12


def test_irrep_miss_is_the_plain_sum_below_the_float_range():
    # below the float range the miss is the int-times-float sum of the masses
    # of rho'^n on the rejected labels: d_lam s_lam(r) for a frame with no
    # accepted weight, d_lam times the rejected rows of the diagonal of the
    # dense pi_lam(rho') for a partly accepted one; the log table gives it within 1e-12, relative
    rng = np.random.default_rng(67)
    for d, ns in ((2, (16, 40, 64)), (3, (6, 10))):
        for n in ns:
            rho, sigma = random_state(d, rng), random_state(d, rng)
            spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.3, n=n)
            rho_p = spec.basis.conj().T @ rho @ spec.basis
            r = np.linalg.eigvalsh(rho)
            pairs = [pair for pair in _dominance_pairs(d, n) if rng.random() < 0.5]
            accepted = {}
            for f, lam in pairs:
                accepted.setdefault(lam, set()).add(f)
            want = 0.0
            for fr in enumerate_frames(d, n):
                if fr not in accepted:
                    mass = schur_polynomial(fr, r)
                else:
                    acc = accepted[fr]
                    rows = [tuple(w) not in acc for w in gt_weights(fr, d).tolist()]
                    mass = float(np.diagonal(gt_irrep(fr, d).matrix(rho_p)).real[rows].sum())
                want += hook_dimension(fr) * mass
            got = label_errors(spec, frozenset(pairs), [rho]).misses[(n,)]
            assert abs(got / want - 1.0) <= 1e-12, (d, n)
