import itertools
import math

import numpy as np
import pytest

from qsanov import avqs, hypotest, nogo, schur_weyl
from qsanov.avqs import (
    HULL_TOL,
    _in_hull_residual,
    _state_pool,
    _trace_dists,
    avqs_test,
    delta_net,
    delta_schedule,
    empirical_mixture,
    enumerate_words,
    gamma,
    gamma_prime,
    min_relative_entropy_hull,
    net_cardinality_bound,
    product_state,
    robustification_check,
    simplex_project,
    smoothed_test,
    spectral_estimation_check,
    type_two_slack,
    word_type_one,
    worst_word_log2_bound,
)
from qsanov.errors import SizeGuardError
from qsanov.hypotest import TestSpec, build_test, label_errors, lambda_set, theta
from qsanov.quantum import bloch_state, depolarize, qrel_entropy, random_state, trace_distance
from qsanov.schur_weyl import block_weight, invariance_defect, tensor_power
from qsanov.tableaux import ALPHA, enumerate_frequencies

ALPHABET = [np.diag([0.8, 0.2]).astype(complex), bloch_state([0.3, 0.0, 0.0])]
SIGMA = np.diag([0.75, 0.25])


def test_product_state_and_mixture():
    word = (0, 1, 0)
    got = product_state(word, ALPHABET)
    want = np.kron(np.kron(ALPHABET[0], ALPHABET[1]), ALPHABET[0])
    assert np.abs(got - want).max() < 1e-15
    const = product_state((1, 1, 1, 1), ALPHABET)
    assert np.abs(const - tensor_power(ALPHABET[1], 4)).max() < 1e-12
    mix = empirical_mixture((0, 1, 0), ALPHABET)
    assert np.abs(mix - (2 * ALPHABET[0] + ALPHABET[1]) / 3).max() < 1e-15
    with pytest.raises(SizeGuardError):
        product_state((0,) * 16, ALPHABET)


def test_avqs_test_is_hull_build():
    spec = TestSpec(sigma=SIGMA, null_set=ALPHABET, epsilon=0.3, n=4, hull=True)
    direct = build_test(spec)
    wrapped = avqs_test(ALPHABET, SIGMA, 0.3, 4)
    assert np.abs(direct - wrapped).max() < 1e-15


def test_word_type_one_definition():
    p = avqs_test(ALPHABET, SIGMA, 0.3, 3)
    for word in ((0, 0, 1), (1, 1, 1), (0, 1, 0)):
        big = product_state(word, ALPHABET)
        want = 1.0 - np.trace(p @ big).real
        assert abs(word_type_one(p, word, ALPHABET) - want) < 1e-12


def test_word_traces_match_dense_products_on_complex_letters():
    # site-wise contraction against tr{P rho_word} of the Kronecker product,
    # for non-commuting complex letters at d = 2 and 3, and on one site
    for d, n, seed in ((2, 1, 70), (2, 5, 71), (3, 1, 72), (3, 4, 73)):
        rng = np.random.default_rng(seed)
        sigma = random_state(d, rng)
        letters = [random_state(d, rng), random_state(d, rng, rank=1)]
        assert np.abs(letters[0] @ letters[1] - letters[1] @ letters[0]).max() > 1e-3
        p = avqs_test(letters, sigma, 0.3, n)
        for word in enumerate_words(2, n):
            want = 1.0 - np.einsum("ij,ji->", p, product_state(word, letters)).real
            assert abs(word_type_one(p, word, letters) - want) <= 1e-12 * max(want, 1e-3)
            mix = empirical_mixture(word, letters)
            rhs = (2.0 * n) ** 2 * (1.0 - np.einsum("ij,ji->", p, tensor_power(mix, n)).real)
            lhs, got = robustification_check(p, word, letters)
            assert abs(lhs - want) <= 1e-12 * max(want, 1e-3), (d, n, word)
            assert abs(got - rhs) <= 1e-12 * max(rhs, 1e-3), (d, n, word)


def test_word_and_product_traces_form_no_dense_product(monkeypatch):
    # with the two Kronecker paths disabled, every trace against a product
    # state still returns: none of them forms a d**n product
    rng = np.random.default_rng(74)
    sigma = random_state(3, rng)
    letters = [random_state(3, rng), random_state(3, rng)]
    p = avqs_test(letters, sigma, 0.3, 3)
    a = nogo.random_invariant_operator(2, 5, rng)
    want = (
        hypotest.type_one(p, letters[0]),
        hypotest.type_two(p, sigma),
        word_type_one(p, (0, 1, 1), letters),
        robustification_check(p, (1, 0, 1), letters),
        nogo.verify_nogo_instance(a, 2, 5, rng=np.random.default_rng(1)),
    )

    def refuse(*args, **kwargs):
        raise AssertionError("a dense d**n product was formed")

    # every module-level binding of the two names, wherever it was imported
    for module in (schur_weyl, hypotest, nogo, avqs):
        for name in ("tensor_power", "product_state"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    got = (
        hypotest.type_one(p, letters[0]),
        hypotest.type_two(p, sigma),
        word_type_one(p, (0, 1, 1), letters),
        robustification_check(p, (1, 0, 1), letters),
        nogo.verify_nogo_instance(a, 2, 5, rng=np.random.default_rng(1)),
    )
    assert got == want
    with pytest.raises(AssertionError, match="dense"):
        schur_weyl.tensor_power(sigma, 3)


def test_label_word_misses_match_block_weights():
    # Seeds and sizes fixed in advance; one word per letter-count type, its
    # acceptance summed block by block over the accepted labels.
    for s_size, sizes, seed in ((2, (3, 7, 12), 50), (3, (2, 5, 9), 51)):
        rng = np.random.default_rng(seed)
        sigma = random_state(2, rng)
        alphabet = [random_state(2, rng) for _ in range(s_size)]
        for n in sizes:
            spec = TestSpec(sigma=sigma, null_set=alphabet, epsilon=0.3, n=n, hull=True)
            labels = lambda_set(spec)
            misses = label_errors(spec, labels, alphabet).misses
            assert sorted(misses) == sorted(f.counts for f in enumerate_frequencies(s_size, n))
            for c, miss in misses.items():
                sites = np.stack([alphabet[s] for s, k in enumerate(c) for _ in range(k)])
                accept = sum(block_weight(f, lam, sites, basis=spec.basis) for f, lam in labels)
                assert abs(miss - (1.0 - accept)) < 1e-12, (s_size, n, c)


def test_label_word_misses_match_dense_word_type_one():
    n = 5
    spec = TestSpec(sigma=SIGMA, null_set=ALPHABET, epsilon=0.3, n=n, hull=True)
    misses = label_errors(spec, lambda_set(spec), ALPHABET).misses
    p = avqs_test(ALPHABET, SIGMA, 0.3, n)
    for word in enumerate_words(2, n):
        assert abs(misses[(n - sum(word), sum(word))] - word_type_one(p, word, ALPHABET)) < 1e-12


def test_slack_formulas():
    n, eps, d, s = 8, 0.3, 2, 2
    want = 2.0 ** (-n * ALPHA * eps * eps + (2 * d * d + s) * math.log2(2 * n))
    assert abs(2.0 ** worst_word_log2_bound(n, eps, d, s) - want) < 1e-15
    slack = type_two_slack(n, eps, d, SIGMA, s)
    assert abs(slack - theta(n, eps, d, SIGMA) - (s / n) * math.log2(2 * n)) < 1e-12


def test_worst_word_log2_bound_spans_the_float_range():
    # (n, eps, d, |S|) = (117, 0.05, 8, 2) has exponent 1022.94 and
    # (118, 0.05, 8, 2) 1024.53: below the limit 2 to the log2 form is bit
    # for bit the linear formula, past it the log2 form stays finite
    for n, eps, d, s in ((117, 0.05, 8, 2), (8, 0.3, 2, 2), (40, 0.2, 3, 4)):
        want = 2.0 ** (-n * ALPHA * eps * eps + (2.0 * d * d + s) * math.log2(2 * n))
        assert 2.0 ** worst_word_log2_bound(n, eps, d, s) == want
    assert 1022 < worst_word_log2_bound(117, 0.05, 8, 2) < 1024
    for n in (118, 256, 4096):
        exp = worst_word_log2_bound(n, 0.05, 8, 2)
        assert math.isfinite(exp) and exp >= 1024, n


def test_robustification_inequality_all_words():
    # both sides against the word trace and the mixture-power trace taken
    # one at a time, at d = 2 and in a complex qutrit basis
    rng = np.random.default_rng(7)
    qutrits = [random_state(3, rng), random_state(3, rng, rank=1)]
    cases = ((ALPHABET, SIGMA, 0.3, 4), (qutrits, random_state(3, rng), 0.6, 3))
    for alphabet, sigma, eps, n in cases:
        p = avqs_test(alphabet, sigma, eps, n)
        for word in enumerate_words(2, n):
            lhs, rhs = robustification_check(p, word, alphabet, rng=rng)
            assert lhs <= rhs + 1e-9, word
            assert 0.0 <= lhs <= 1.0 + 1e-12
            assert abs(lhs - word_type_one(p, word, alphabet)) <= 1e-12, word
            want = (2.0 * n) ** 2 * hypotest.type_one(p, empirical_mixture(word, alphabet))
            assert abs(rhs - want) <= 1e-12, word


def test_robustification_rejects_biased_operator():
    bad = np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex)  # |01><01|
    with pytest.raises(ValueError):
        robustification_check(bad, (0, 1), ALPHABET)


def test_spectral_estimation_inequality_and_total():
    word = (0, 1, 0, 1)
    n = len(word)
    frames = [(4,), (3, 1), (2, 2)]
    total = 0.0
    for lam in frames:
        lhs, rhs = spectral_estimation_check(lam, word, ALPHABET)
        assert lhs <= rhs + 1e-9, lam
        total += lhs
    # frame blocks resolve the identity, so the weights sum to one
    assert abs(total - 1.0) < 1e-9
    with pytest.raises(ValueError):
        spectral_estimation_check((3, 1), (0, 1, 0), ALPHABET)


def test_simplex_project_values():
    assert np.abs(simplex_project(np.array([0.5, 0.5])) - [0.5, 0.5]).max() < 1e-15
    assert np.abs(simplex_project(np.array([2.0, 0.0])) - [1.0, 0.0]).max() < 1e-12
    got = simplex_project(np.array([0.3, -0.2, 0.4]))
    assert np.abs(got - [0.45, 0.0, 0.55]).max() < 1e-12
    rng = np.random.default_rng(3)
    for _ in range(50):
        v = rng.normal(size=4) * 2
        p = simplex_project(v)
        assert p.min() >= -1e-15 and abs(p.sum() - 1) < 1e-12
        # projection is idempotent and closer than any other simplex point
        assert np.abs(simplex_project(p) - p).max() < 1e-12
        for _ in range(10):
            q = rng.dirichlet(np.ones(4))
            assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-12


def test_min_relative_entropy_two_generators_vs_grid():
    val, w = min_relative_entropy_hull(ALPHABET, SIGMA)
    grid = min(
        qrel_entropy(t * ALPHABET[0] + (1 - t) * ALPHABET[1], SIGMA)
        for t in np.linspace(0.0, 1.0, 1001)
    )
    assert val <= grid + 1e-12
    assert grid - val < 1e-5
    assert w.min() >= -1e-12 and abs(w.sum() - 1) < 1e-10
    mix = w[0] * ALPHABET[0] + w[1] * ALPHABET[1]
    assert abs(qrel_entropy(mix, SIGMA) - val) < 1e-10
    # never worse than the best single generator
    assert val <= min(qrel_entropy(g, SIGMA) for g in ALPHABET) + 1e-12


def _hull_loop(generators, sigma):
    """The hull minimiser as one loop over `qrel_entropy` and a log2 per point."""

    def log2_psd(m, floor=1e-18):
        vals, vecs = np.linalg.eigh(m)
        return (vecs * np.log2(np.clip(vals, floor, None))) @ vecs.conj().T

    gens = [np.asarray(g, dtype=complex) for g in generators]

    def mix(w):
        return sum(wi * gi for wi, gi in zip(w, gens))

    log_sigma = log2_psd(sigma, floor=1e-30)

    def grad(w):
        lg = log2_psd(mix(w)) - log_sigma
        return np.array([float(np.einsum("ij,ji->", g, lg).real) for g in gens])

    w = np.full(len(gens), 1.0 / len(gens))
    fw, step = qrel_entropy(mix(w), sigma), 0.5
    for _ in range(500):
        g = grad(w)
        moved = False
        for _ in range(40):
            cand = simplex_project(w - step * g)
            fc = qrel_entropy(mix(cand), sigma)
            if fc < fw - 1e-15:
                w, fw = cand, fc
                step *= 1.3
                moved = True
                break
            step *= 0.5
        if not moved or step < 1e-14:
            break
    return float(fw), w


def test_min_relative_entropy_hull_is_the_loop_bit_for_bit():
    # sigma is diagonalised once and each mixture once, for its value and
    # its gradient; the result is that of evaluating both from scratch
    rng = np.random.default_rng(63)
    bloch = [bloch_state(r * v / np.linalg.norm(v)) for r, v in
             zip((0.62, 0.38, 0.52, 0.42, 0.32), rng.standard_normal((5, 3)))]
    cases = [(bloch[:2], np.diag([0.75, 0.25])), (bloch[2:], np.diag([0.75, 0.25]))]
    cases.append(([random_state(3, rng), random_state(3, rng)], random_state(3, rng)))
    for i in range(10):
        d = (2, 3, 4)[i % 3]
        gens = [random_state(d, rng, rank=1 if i % 4 == 0 else None) for _ in range(2 + i % 2)]
        sigma = random_state(d, rng, rank=d - 1 if i % 5 == 4 else None)
        cases.append((gens, sigma))
    for gens, sigma in cases:
        val, w = min_relative_entropy_hull(gens, sigma)
        want_val, want_w = _hull_loop(gens, sigma)
        assert val == want_val
        assert np.array_equal(w, want_w)


def test_min_relative_entropy_single_generator():
    val, w = min_relative_entropy_hull([ALPHABET[0]], SIGMA)
    assert abs(val - qrel_entropy(ALPHABET[0], SIGMA)) < 1e-12
    assert abs(w[0] - 1.0) < 1e-12


def test_min_relative_entropy_three_generators_vs_grid():
    qubits = [np.diag([0.9, 0.1]), bloch_state([0.0, 0.4, 0.0]), np.eye(2) / 2]
    # a qutrit alphabet with a rank-1 letter and an interior minimizer
    rng = np.random.default_rng(62)
    qutrit_sigma = random_state(3, rng)
    qutrits = [random_state(3, rng), random_state(3, rng, rank=1), random_state(3, rng)]
    for gens, sigma, steps, gap in ((qubits, SIGMA, 50, 1e-4), (qutrits, qutrit_sigma, 120, 1e-3)):
        val, w = min_relative_entropy_hull(gens, sigma)
        assert abs(qrel_entropy(sum(wi * g for wi, g in zip(w, gens)), sigma) - val) < 1e-12
        best = math.inf
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                v = np.array([i, j, steps - i - j], dtype=float) / steps
                best = min(best, qrel_entropy(sum(vi * g for vi, g in zip(v, gens)), sigma))
        assert val <= best + 1e-12
        assert best - val < gap
    assert w.min() > 0.01
    # the maximally mixed qubit generator already achieves D(I/2 || sigma)
    val, _ = min_relative_entropy_hull(qubits, SIGMA)
    assert val <= qrel_entropy(np.eye(2) / 2, SIGMA) + 1e-12


def test_delta_schedule_and_cardinality():
    assert abs(delta_schedule(10, 2) - 12.0 * 10 ** (-1.0 / 16)) < 1e-12
    assert abs(net_cardinality_bound(0.5, 2) - 24.0**8) < 1e-3
    # at desk scale the schedule never drops below the trivial-net threshold
    for n in range(2, 11):
        for d in (2, 3):
            assert delta_schedule(n, d) >= 2.0


def test_delta_net_trivial_regime():
    net = delta_net(ALPHABET, 2.5)
    assert net.cardinality == 1
    assert np.abs(net.points[0] - np.eye(2) / 2).max() < 1e-15
    # full smoothing collapses every generator onto the centre
    assert net.cover_radius < 1e-12
    assert net.hull_contains_smoothed
    with pytest.raises(ValueError):
        delta_net(ALPHABET, 0.0)


def test_delta_net_small_delta_covers_smoothed_hull():
    # the lone generator's smoothed state lies outside the fixed pool's cover
    angle = 2 * math.pi / 3
    lone = [bloch_state([0.62 * math.sin(angle), 0.0, 0.62 * math.cos(angle)])]
    for gens, delta in [(ALPHABET, 0.5), (lone, 0.2)]:
        net = delta_net(gens, delta)
        assert net.hull_contains_smoothed
        assert net.cover_radius <= delta / 2 + 1e-12
        assert net.cardinality <= net_cardinality_bound(delta, 2)
        for p in net.points:
            vals = np.linalg.eigvalsh(p)
            assert vals.min() >= -1e-12 and abs(np.trace(p).real - 1) < 1e-12
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = rng.uniform()
            hull_point = t * gens[0] + (1 - t) * gens[-1]
            smoothed = depolarize(hull_point, delta)
            dist = min(trace_distance(smoothed, p) for p in net.points)
            assert dist <= delta, dist


def eigvalsh_trace_dists(stack, point):
    return 0.5 * np.abs(np.linalg.eigvalsh(stack - point)).sum(axis=-1)


def test_trace_dists_closed_form_matches_eigvalsh():
    rng = np.random.default_rng(23)
    zero = np.zeros((2, 2), dtype=complex)
    # random Hermitian differences: complex off-diagonal, nonzero trace
    diag = rng.uniform(-1, 1, (500, 2))
    off = rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)
    herm = np.zeros((500, 2, 2), dtype=complex)
    herm[:, 0, 0], herm[:, 1, 1] = diag[:, 0], diag[:, 1]
    herm[:, 1, 0], herm[:, 0, 1] = off, off.conj()
    # rank-deficient: c v v^dag for a unit complex v, and the zero difference
    v = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    rank1 = rng.uniform(-1, 1, 50)[:, None, None] * np.einsum("ki,kj->kij", v, v.conj())
    for stack in (herm, rank1, zero[None]):
        got = _trace_dists(stack, zero)
        assert np.abs(got - eigvalsh_trace_dists(stack, zero)).max() <= 1e-15
    assert _trace_dists(zero[None], zero)[0] == 0.0
    # the qubit pool against several of its own points
    pool = _state_pool(2, np.random.default_rng(0))
    for i in (0, 1, 777, 1600, 2000):
        got = _trace_dists(pool, pool[i])
        assert np.abs(got - eigvalsh_trace_dists(pool, pool[i])).max() <= 1e-15, i
        assert got[i] == 0.0


def test_delta_net_properties_on_random_qubit_alphabets(monkeypatch):
    # nets are checked by their properties against independent eigvalsh
    # distances, then point for point against nets greedily built on them:
    # the pool has exact distance ties (a whole shell from I/2), and the
    # lowest index among them wins however the last bits round
    for seed in range(10):
        rng = np.random.default_rng(seed)
        gens = [random_state(2, rng, rank=1), random_state(2, rng)]
        for delta in (0.2, 0.5):
            net = delta_net(gens, delta)
            pts = np.stack(net.points)
            pool = np.concatenate(
                [_state_pool(2, rng), np.stack([depolarize(g, delta) for g in gens])]
            )
            # a traceless qubit difference has Frobenius norm sqrt(2) times its
            # trace distance: pick each pool state's nearest net point by Frobenius,
            # then bound the cover radius by the eigvalsh distance to it
            frob = np.linalg.norm(pool[:, None] - pts[None], axis=(2, 3))
            dists = eigvalsh_trace_dists(pool, pts[frob.argmin(axis=1)])
            assert dists.max() <= delta / 2 + 1e-12, (seed, delta)
            assert net.cover_radius <= delta / 2 + 1e-12
            assert net.hull_contains_smoothed, (seed, delta)
            assert net.cardinality <= net_cardinality_bound(delta, 2)
            assert np.array_equal(np.stack(delta_net(gens, delta).points), pts)
            with monkeypatch.context() as m:
                m.setattr(avqs, "_trace_dists", eigvalsh_trace_dists)
                assert np.array_equal(np.stack(delta_net(gens, delta).points), pts), (seed, delta)


def test_in_hull_residual_stops_inside_and_measures_outside():
    # a pure qubit against the lone point I/2 runs every step and returns
    # |diag(1/2, -1/2)| = 1/sqrt(2) in the stacked real/imaginary coordinates
    pure = np.diag([1.0, 0.0]).astype(complex)
    centre = np.eye(2, dtype=complex) / 2
    assert abs(_in_hull_residual([centre], pure) - 1 / math.sqrt(2)) < 1e-9
    # a target inside the hull comes back at or below the tolerance
    inside = 0.3 * ALPHABET[0] + 0.7 * ALPHABET[1]
    assert _in_hull_residual(ALPHABET + [centre], inside) <= HULL_TOL


def test_smoothed_test_duality():
    n, d, delta = 3, 2, 0.3
    p = avqs_test(ALPHABET, SIGMA, 0.4, n)
    q = smoothed_test(p, delta, d, n)
    rng = np.random.default_rng(5)
    for _ in range(10):
        states = [random_state(d, rng) for _ in range(n)]
        big = product_state(range(n), states)
        noisy = product_state(range(n), [depolarize(s, delta) for s in states])
        lhs = np.trace(np.asarray(q, dtype=complex) @ big).real
        rhs = np.trace(p @ noisy).real
        assert abs(lhs - rhs) < 1e-10
    # smoothing keeps hermiticity and permutation invariance
    assert np.abs(q - np.asarray(q).conj().T).max() < 1e-12
    assert invariance_defect(q, d, n) < 1e-10


def smoothed_test_broadcast(p, delta, d, n):
    """Sitewise smoothing as a full-size eye broadcast per site."""
    work = np.asarray(p).reshape((d,) * (2 * n))
    for site in range(n):
        slots = (site, n + site)
        eye = np.expand_dims(np.eye(d), tuple(a for a in range(2 * n) if a not in slots))
        partial = np.expand_dims(np.trace(work, axis1=site, axis2=n + site), slots)
        work = (1.0 - delta) * work + (delta / d) * (partial * eye)
    out = work.reshape(d**n, d**n)
    if np.iscomplexobj(out) and np.abs(out.imag).max() < 1e-15:
        return out.real
    return out


def test_smoothed_test_in_place_matches_the_broadcast():
    rng = np.random.default_rng(41)
    for d, n in ((2, 4), (3, 3)):
        dim = d**n
        real = avqs_test([random_state(d, rng), random_state(d, rng)], np.eye(d) / d, 0.4, n)
        cplx = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        assert not np.iscomplexobj(real)
        for p in (real, cplx):
            kept = p.copy()
            for delta in (0.0, 0.3, 1.0):
                got = smoothed_test(p, delta, d, n)
                assert np.array_equal(p, kept)
                want = smoothed_test_broadcast(p, delta, d, n)
                assert got.dtype == want.dtype == p.dtype, (d, delta)
                assert np.array_equal(got, want), (d, delta)  # -0.0 == 0.0


def test_smoothed_test_endpoints_and_errors():
    n, d = 3, 2
    p = avqs_test(ALPHABET, SIGMA, 0.4, n)
    assert np.abs(smoothed_test(p, 0.0, d, n) - p).max() < 1e-12
    fully = smoothed_test(p, 1.0, d, n)
    want = np.trace(p).real / d**n * np.eye(d**n)
    assert np.abs(fully - want).max() < 1e-10
    with pytest.raises(ValueError):
        smoothed_test(p, 1.5, d, n)
    with pytest.raises(ValueError):
        smoothed_test(p, 0.3, d, n + 1)


def test_gamma_prime_variants():
    n, nu, d, s = 4096, 0.1, 2, 2
    for variant, shift, power in (("statement", 2.0, 8), ("proof", 4.0, 2)):
        inner_exp = ALPHA * (n**-0.25 - shift * s / n) - ((s - 2.0 * d * d) / n) * math.log2(
            2 * n
        )
        inner = 1.0 - nu - 2.0 ** (-n * inner_exp)
        want = (math.log2(inner) - power * d * d * math.log2(2 * n)) / n
        assert abs(gamma_prime(n, nu, d, s, variant) - want) < 1e-12
    assert gamma_prime(n, nu, d, s, "statement") != gamma_prime(n, nu, d, s, "proof")
    # a large alphabet at small n drives the inner expression nonpositive
    assert gamma_prime(4, 0.5, 2, 40) == -math.inf
    with pytest.raises(ValueError):
        gamma_prime(n, nu, d, s, "other")


def test_gamma_composition():
    n, nu, d, s = 4096, 0.1, 2, 2
    want = (
        theta(n, n**-0.25, d, SIGMA)
        + gamma_prime(n, nu, d, s)
        + (8.0 * d**6 / n) * math.log2(2 * n)
    )
    assert abs(gamma(n, nu, d, SIGMA, s) - want) < 1e-12


def test_enumerate_words_modes():
    words = list(enumerate_words(2, 6))
    assert words == list(itertools.product((0, 1), repeat=6))
    # the guard stands at exactly 10**6 words and trips before any is made
    assert next(enumerate_words(1000, 2)) == (0, 0)
    with pytest.raises(SizeGuardError, match=r"\|S\| = 1001, n = 2"):
        enumerate_words(1001, 2)
    with pytest.raises(SizeGuardError, match=r"\|S\| = 2, n = 20"):
        enumerate_words(2, 20)
