import itertools
import math

import numpy as np
import pytest

from qsanov.avqs import robustification_check
from qsanov.nogo import (
    NogoReport,
    _probe_states,
    dim_ratio_bound,
    haar_twirl_mc,
    haar_unitary,
    nogo_bound,
    random_invariant_operator,
    unitary_twirl_invariant,
    vacuity_threshold,
    verify_nogo_instance,
)
from qsanov.quantum import random_state
from qsanov.schur_weyl import invariance_defect, isotypical_projector, tensor_power
from qsanov.tableaux import enumerate_frames, hook_dimension, type_class_size

from test_schur_weyl import perm_index_map
from test_tableaux import multiset_perm_count, syt_count


def test_haar_unitary_properties():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        u = haar_unitary(d, rng)
        assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12
    a = haar_unitary(2, np.random.default_rng(9))
    b = haar_unitary(2, np.random.default_rng(9))
    assert np.abs(a - b).max() == 0.0


def test_twirl_fixed_points():
    d, n = 2, 4
    dim = d**n
    # identity and single frame projectors are already twirl invariant
    assert np.abs(unitary_twirl_invariant(np.eye(dim), d, n) - np.eye(dim)).max() < 1e-10
    for lam in ((4,), (3, 1), (2, 2)):
        p = isotypical_projector(lam, d, n)
        assert np.abs(unitary_twirl_invariant(p, d, n) - p).max() < 1e-10


def test_twirl_preserves_trace_and_positivity():
    rng = np.random.default_rng(1)
    d, n = 2, 3
    a = random_invariant_operator(d, n, rng)
    t = unitary_twirl_invariant(a, d, n)
    assert abs(np.trace(t).real - np.trace(a).real) < 1e-9
    assert np.linalg.eigvalsh(t).min() > -1e-10
    assert np.abs(t - np.asarray(t).conj().T).max() < 1e-10


def test_twirl_commutes_with_collective_rotation():
    rng = np.random.default_rng(2)
    d, n = 2, 3
    a = random_invariant_operator(d, n, rng)
    t = unitary_twirl_invariant(a, d, n)
    for seed in (3, 4):
        u = tensor_power(haar_unitary(d, np.random.default_rng(seed)), n)
        assert np.abs(u @ t @ u.conj().T - t).max() < 1e-8
    for perm in ((1, 0, 2), (2, 0, 1)):
        m = perm_index_map(perm, d)
        assert np.abs(t[np.ix_(m, m)] - t).max() < 1e-10


def test_twirl_matches_monte_carlo():
    d, n = 2, 4
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        a = random_invariant_operator(d, n, rng)
        exact = unitary_twirl_invariant(a, d, n)
        mc, se = haar_twirl_mc(a, d, n, samples=200, rng=rng)
        assert np.linalg.norm(mc - exact) <= 3.0 * se, (seed, se)


def test_twirl_rejects_bad_input():
    with pytest.raises(ValueError):
        unitary_twirl_invariant(np.eye(7), 2, 3)
    bad = np.zeros((8, 8))
    bad[1, 1] = 1.0  # |001><001| breaks permutation symmetry
    with pytest.raises(ValueError):
        unitary_twirl_invariant(bad, 2, 3)


def test_random_invariant_operator_contract():
    rng = np.random.default_rng(5)
    for d, n in ((2, 3), (2, 5), (3, 3)):
        a = random_invariant_operator(d, n, rng)
        assert invariance_defect(a, d, n) < 1e-10
        vals = np.linalg.eigvalsh(a)
        assert vals.min() > -1e-12 and vals.max() < 1 + 1e-12
        assert abs(vals.min()) < 1e-10 and abs(vals.max() - 1) < 1e-10


def test_random_invariant_operator_is_the_group_average():
    # the same Gaussian draws, averaged over all n! permutations by brute force
    for d, n, seed in ((2, 4, 6), (3, 3, 7), (2, 5, 8)):
        got = random_invariant_operator(d, n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        dim = d**n
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = (g + g.conj().T) / 2.0
        acc = np.zeros_like(h)
        for perm in itertools.permutations(range(n)):
            pmap = perm_index_map(perm, d)
            acc += h[np.ix_(pmap, pmap)]
        acc /= math.factorial(n)
        vals = np.linalg.eigvalsh(acc)
        want = (acc - vals[0] * np.eye(dim)) / (vals[-1] - vals[0])
        assert np.abs(got - want).max() < 1e-12, (d, n)


def _unique_rows_operator(d, n, rng):
    """The orbit average keyed by the rows of letter-pair counts (np.unique)."""
    dim = d**n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    words = np.array(np.unravel_index(np.arange(dim), (d,) * n)).T
    one_hot = np.eye(d * d, dtype=np.uint8)
    counts = sum(one_hot[d * words[:, None, i] + words[None, :, i]] for i in range(n))
    _, orbit = np.unique(counts.reshape(dim * dim, d * d), axis=0, return_inverse=True)
    orbit = orbit.ravel()
    sizes = np.bincount(orbit)
    mean = (np.bincount(orbit, h.real.ravel()) + 1j * np.bincount(orbit, h.imag.ravel())) / sizes
    acc = mean[orbit].reshape(dim, dim)
    vals = np.linalg.eigvalsh(acc)
    lo, hi = float(vals[0]), float(vals[-1])
    if hi - lo < 1e-12:
        return np.eye(dim, dtype=complex)
    return (acc - lo * np.eye(dim)) / (hi - lo)


def test_random_invariant_operator_matches_the_unique_rows_form_bit_for_bit():
    # integer orbit keys number the orbits differently; bincount sums each
    # orbit in entry order either way, so every bit agrees
    for d, n in ((2, 1), (2, 3), (3, 4), (2, 7), (4, 3), (16, 2)):
        got = random_invariant_operator(d, n, np.random.default_rng(30 + d + n))
        want = _unique_rows_operator(d, n, np.random.default_rng(30 + d + n))
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (d, n)


def test_verify_nogo_traces_match_dense_products():
    # eps_hat from the batched site-wise traces against the Kronecker powers
    # of the same probes, drawn again from the same seed
    for d, n in ((2, 5), (3, 3)):
        a = random_invariant_operator(d, n, np.random.default_rng(n))
        report = verify_nogo_instance(a, d, n, sample_states=16, rng=np.random.default_rng(9))
        probes = list(_probe_states(d, 16, np.random.default_rng(9)))
        worst = min(1.0, min(np.einsum("ij,ji->", a, tensor_power(r, n)).real for r in probes))
        assert abs(report.eps_hat - max(0.0, 1.0 - worst)) < 1e-12, (d, n)
        assert report.min_eig == float(np.linalg.eigvalsh(a)[0])


def test_dim_ratio_frozen_and_sweep():
    ratio, floor = dim_ratio_bound((2, 1), 2, 3)
    assert abs(ratio - 2.0 / 3.0) < 1e-15
    assert abs(floor - 6.0**-4) < 1e-18
    for d in (2, 3):
        for n in range(2, 9):
            for lam in enumerate_frames(d, n):
                got_ratio, got_floor = dim_ratio_bound(lam, d, n)
                want = syt_count(lam) / multiset_perm_count(
                    lam + (0,) * (d - len(lam))
                )
                assert abs(got_ratio - want) < 1e-12
                assert got_ratio >= got_floor, (d, n, lam)
    with pytest.raises(ValueError):
        dim_ratio_bound((2, 1), 2, 4)
    with pytest.raises(ValueError):
        dim_ratio_bound((2, 1, 1), 2, 4)


def test_nogo_bound_values():
    assert nogo_bound(0.0, 2, 4) == 1.0
    eps_star = vacuity_threshold(2, 4)
    assert abs(eps_star - 16.0**-16) < 1e-30
    assert abs(nogo_bound(eps_star, 2, 4)) < 1e-12
    assert nogo_bound(2 * eps_star, 2, 4) < 0
    with pytest.raises(ValueError):
        nogo_bound(-0.1, 2, 4)


def test_nogo_bound_never_overflows():
    # at d = 8, n = 2 the amplification (2dn)**(4d*d) = 2**1280 is past the float range
    assert nogo_bound(0.0, 8, 2) == 1.0
    assert nogo_bound(1e-12, 8, 2) == -math.inf
    assert nogo_bound(1e-3, 7, 3) == -math.inf
    # a power past 2**1023 under an eps that keeps the product finite
    assert nogo_bound(2.0**-300, 8, 2) == 1.0 - 2.0**980
    # inside the float range the formula is kept bit for bit
    for eps, d, n in [(1e-3, 2, 4), (0.5, 2, 7), (1e-12, 3, 4), (0.25, 4, 3), (1e-12, 7, 2)]:
        assert nogo_bound(eps, d, n) == 1.0 - eps * (2.0 * d * n) ** (4 * d * d)
    report = verify_nogo_instance(np.eye(64), 8, 2)
    assert (report.eps_hat, report.bound, report.vacuous) == (0.0, 1.0, False)
    assert report.min_eig == pytest.approx(1.0)


def test_verify_nogo_identity():
    report = verify_nogo_instance(np.eye(16), 2, 4)
    assert report.eps_hat == 0.0
    assert report.bound == 1.0
    assert not report.vacuous
    assert abs(report.min_eig - 1.0) < 1e-12
    assert report.to_dict() == {
        "eps_hat": 0.0,
        "min_eig": report.min_eig,
        "bound": 1.0,
        "vacuous": False,
    }


def test_verify_nogo_near_identity():
    # shaving a sliver off one frame block makes the bound vacuous long
    # before the operator stops accepting product states
    p = isotypical_projector((4,), 2, 4)
    a = np.eye(16) - 1e-6 * p
    report = verify_nogo_instance(a, 2, 4)
    assert report.eps_hat > 0
    assert report.vacuous
    assert report.bound < 0


def test_verify_nogo_random_operator_is_vacuous():
    rng = np.random.default_rng(3)
    a = random_invariant_operator(2, 4, rng)
    report = verify_nogo_instance(a, 2, 4, rng=rng)
    # a generic normalized operator misses badly on some product state
    assert report.eps_hat > 0.01
    assert report.vacuous


def test_verify_nogo_rejects_noninvariant():
    bad = np.zeros((8, 8))
    bad[1, 1] = 1.0
    with pytest.raises(ValueError):
        verify_nogo_instance(bad, 2, 3)


def _site_average(b, d, n, perms):
    """Mean of U_pi B U_pi^dag over the given site permutations pi."""
    work = b.reshape((d,) * (2 * n))
    total = sum(work.transpose(list(p) + [n + i for i in p]) for p in perms)
    return total.reshape(d**n, d**n) / len(perms)


def test_even_permutation_average_is_rejected():
    # averaging over A_3 alone leaves an operator that every even pi fixes;
    # a check on sampled perms could miss the odd ones (seed 22 did), the
    # two generators cannot
    even = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    for d in (2, 3):
        dim = d**3
        m = np.random.default_rng(7).standard_normal((dim, dim))
        b = m + m.T
        a = _site_average(b, d, 3, even)
        alphabet = [random_state(d, np.random.default_rng(40 + k)) for k in range(2)]
        for _ in range(3):
            assert invariance_defect(a, d, 3) > 0.5
        with pytest.raises(ValueError):
            robustification_check(a, (0, 1, 0), alphabet, rng=np.random.default_rng(22))
        with pytest.raises(ValueError):
            unitary_twirl_invariant(a, d, 3)
        with pytest.raises(ValueError):
            verify_nogo_instance(a, d, 3)
        full = _site_average(b, d, 3, list(itertools.permutations(range(3))))
        assert invariance_defect(full, d, 3) < 1e-12
        for n in (1, 2):
            m = np.random.default_rng(8).standard_normal((d**n, d**n))
            raw = m + m.T
            full = _site_average(raw, d, n, list(itertools.permutations(range(n))))
            assert invariance_defect(full, d, n) < 1e-12
            # one site has no permutation to break; two sites have the one swap
            assert (invariance_defect(raw, d, n) == 0.0) == (n == 1)


def test_invariance_tolerance_scales_with_the_operator():
    # an A_3 average shrunk to 1e-9 reads a defect of about 2.5e-9, under
    # the absolute 1e-8; read against its own scale it is still rejected
    even = [(0, 1, 2), (1, 2, 0), (2, 0, 1)]
    every = list(itertools.permutations(range(3)))
    m = np.random.default_rng(7).standard_normal((8, 8))
    b = m + m.T
    a = _site_average(b, 2, 3, even)
    with pytest.raises(ValueError):
        unitary_twirl_invariant(1e-9 * a, 2, 3)
    with pytest.raises(ValueError):
        verify_nogo_instance(1e-9 * a, 2, 3)
    full = _site_average(b, 2, 3, every)
    for scale in (1e-9, 1e-6, 1e-3, 1.0):
        twirl = unitary_twirl_invariant(scale * full, 2, 3)
        assert abs(np.trace(twirl) - scale * np.trace(full)) < 1e-12 * max(scale, 1e-3)
    # the zero operator is invariant at any scale
    assert np.abs(unitary_twirl_invariant(np.zeros((8, 8)), 2, 3)).max() == 0.0
