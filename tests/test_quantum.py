import math

import numpy as np
import pytest

from qsanov.quantum import (
    assert_state,
    assert_states,
    binary_entropy,
    bloch_spiral,
    bloch_state,
    depolarize,
    depolarize_adjoint,
    eigenbasis,
    entropy_identity_check,
    fannes_audenaert_bound,
    pinch,
    qrel_entropy,
    random_state,
    spectrum,
    state_with_spectrum_and_diagonal,
    trace_distance,
    trace_norm,
)
from qsanov.hypotest import TestSpec, lambda_set
from qsanov.nogo import haar_unitary
from qsanov.tableaux import CHECK_TOL, as_prob_vec, entropy, relative_entropy


def birkhoff_mix(vec, rng, terms=4):
    """Apply a random doubly stochastic matrix: a mix of permutations."""
    d = len(vec)
    w = rng.dirichlet(np.ones(terms))
    out = np.zeros(d)
    for t in range(terms):
        out += w[t] * np.asarray(vec)[rng.permutation(d)]
    return out


def test_assert_state_rejects_bad_input():
    with pytest.raises(ValueError):
        assert_state(np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        assert_state(np.array([[0.5, 0.3], [0.1, 0.5]]))  # not Hermitian
    with pytest.raises(ValueError):
        assert_state(np.diag([0.7, 0.7]))  # trace 1.4
    with pytest.raises(ValueError):
        assert_state(np.diag([1.5, -0.5]))  # negative eigenvalue


def bad_states(d):
    """A non-Hermitian, a trace-1.4 and a negative-eigenvalue d x d matrix."""
    skew = np.eye(d) / d
    skew[0, 1] = 0.2
    return [
        ("not Hermitian", skew),
        ("trace is 1.4", np.eye(d) * 1.4 / d),
        ("negative eigenvalue", np.diag([1.5, -0.5] + [0.0] * (d - 2))),
    ]


def test_stacked_validator_names_the_first_bad_state():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        good = [random_state(d, rng) for _ in range(5)]
        m, evals = assert_states(good)
        assert m.shape == (5, d, d) and m.dtype == complex
        assert np.array_equal(evals, np.stack([np.linalg.eigvalsh(s) for s in good]))
        assert np.all(np.diff(evals, axis=1) >= 0)
        for what, bad in bad_states(d):
            for at in (0, 3):
                stack = good[:at] + [bad] + good[at:]
                with pytest.raises(ValueError, match=f"state {at} .*{what}"):
                    assert_states(stack)
                with pytest.raises(ValueError, match=f"state {at}"):
                    spectrum(np.stack(stack))
            # the one-state case keeps its message, with no index
            with pytest.raises(ValueError, match=f"^state (is |has |trace is )"):
                assert_state(bad)
    with pytest.raises(ValueError, match="square"):
        assert_states(np.zeros((3, 2, 3)))


def test_stacked_pinch_and_spectrum_match_per_state_bit_for_bit():
    # seeded complex states in a noncommuting complex basis, d = 2, 3, 4
    rng = np.random.default_rng(29)
    for d in (2, 3, 4):
        states = np.stack([random_state(d, rng, rank=1 + k % d) for k in range(12)])
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        basis = np.linalg.qr(g)[0]
        pinched = pinch(states, basis)
        spectra = spectrum(states)
        assert pinched.shape == spectra.shape == (12, d)
        for k, s in enumerate(states):
            assert pinched[k].tobytes() == pinch(s, basis).tobytes(), (d, k)
            assert spectra[k].tobytes() == spectrum(s).tobytes(), (d, k)
        grid = states.reshape(3, 4, d, d)
        assert pinch(grid, basis).tobytes() == pinched.tobytes()
        assert spectrum(grid).tobytes() == spectra.tobytes()


def count_eigvalsh(monkeypatch) -> list:
    """Patch np.linalg.eigvalsh to record the shape of each call's input."""
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a, *args, **kwargs):
        calls.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


def test_a_state_the_validator_accepts_has_a_spectrum_and_pinchings():
    # one rule for probability rows (`tableaux._prob_rows`): a trace within
    # CHECK_TOL of 1 and eigenvalues or pinched entries down to -CHECK_TOL,
    # clipped, pass `spectrum`, `pinch` and `lambda_set` as they pass the
    # validator
    rot = np.array([[1.0, 1j], [1j, 1.0]]) / math.sqrt(2.0)
    low = np.diag([1.0 + 1.4e-9, -9e-10])
    states = [np.diag([0.6, 0.4 + 5e-10]), low, rot @ low @ rot.conj().T]
    for s in states:
        assert_state(s)
        for rows in (spectrum(s), pinch(s, np.eye(2)), pinch(s, rot)):
            assert rows.min() >= 0.0 and abs(rows.sum() - 1.0) < 1e-15
        spec = TestSpec(sigma=np.diag([0.7, 0.3]), null_set=[s], epsilon=0.3, n=4)
        assert lambda_set(spec)
    # at the edge of the trace check, where row sums round past the trace
    rng = np.random.default_rng(7)
    for k in range(300):
        d = 2 + k % 3
        s = random_state(d, rng) * (1.0 + (-1) ** k * (1.0 - 1e-7 * rng.uniform()) * CHECK_TOL)
        if np.abs(np.trace(s).real - 1.0) <= CHECK_TOL:
            assert_state(s)
            for rows in (spectrum(s), pinch(s, np.eye(d)), pinch(s, haar_unitary(d, rng))):
                assert rows.min() >= 0.0
    assert np.array_equal(spectrum(np.stack(states))[0], spectrum(states[0]))
    assert np.allclose(spectrum(states[0]), [0.6, 0.4])
    assert as_prob_vec([1.0 + 1.4e-9, -9e-10]).tolist() == [1.0, 0.0]
    for bad, message in (([0.6, 0.4 + 2e-9], "sums to"), ([1.0 + 2e-9, -2e-9], "negative entry")):
        with pytest.raises(ValueError, match=message):
            as_prob_vec(bad)


def test_spectrum_runs_one_decomposition(monkeypatch):
    calls = count_eigvalsh(monkeypatch)
    rng = np.random.default_rng(2)
    spectrum(random_state(3, rng))
    assert calls == [(3, 3)]
    spectrum(np.stack([random_state(3, rng) for _ in range(7)]))
    assert calls[1:] == [(7, 3, 3)]


def test_bloch_spiral_is_one_stack_of_bloch_states():
    shells, n_dir = (0.25, 0.5, 0.9, 1.0), 37
    stack = bloch_spiral(shells, n_dir)
    assert isinstance(stack, np.ndarray) and stack.shape == (len(shells) * n_dir, 2, 2)
    golden = math.pi * (3.0 - math.sqrt(5.0))
    k = 0
    for shell in shells:
        for i in range(n_dir):
            z = 1.0 - 2.0 * (i + 0.5) / n_dir
            r = math.sqrt(max(0.0, 1.0 - z * z))
            x = shell * np.array([r * math.cos(golden * i), r * math.sin(golden * i), z])
            assert stack[k].tobytes() == bloch_state(x).tobytes(), (shell, i)
            k += 1
    with pytest.raises(ValueError, match="norm"):
        bloch_spiral((1.1,), 4)


def test_bloch_state_spectrum_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-1, 1, 3)
        if np.linalg.norm(x) > 1:
            x /= np.linalg.norm(x) * 1.01
        r = np.linalg.norm(x)
        vals = spectrum(bloch_state(x))
        assert abs(vals[0] - (1 + r) / 2) < 1e-12
        assert abs(vals[1] - (1 - r) / 2) < 1e-12
    with pytest.raises(ValueError):
        bloch_state([1.2, 0, 0])


def test_eigenbasis_reconstructs_and_sorts():
    rng = np.random.default_rng(4)
    for _ in range(20):
        rho = random_state(3, rng)
        vals, vecs = eigenbasis(rho)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.abs(vecs.conj().T @ vecs - np.eye(3)).max() < 1e-10
        assert np.abs((vecs * vals) @ vecs.conj().T - rho).max() < 1e-10


def test_pinch_is_probability_vector():
    rng = np.random.default_rng(5)
    for _ in range(20):
        rho = random_state(3, rng)
        sig = random_state(3, rng)
        _, basis = eigenbasis(sig)
        p = pinch(rho, basis)
        assert abs(p.sum() - 1.0) < 1e-9
        assert p.min() >= 0.0
    # pinch of a diagonal state in the computational basis is its diagonal
    p = pinch(np.diag([0.2, 0.3, 0.5]), np.eye(3))
    assert np.abs(p - [0.2, 0.3, 0.5]).max() < 1e-12


def test_qrel_entropy_commuting_matches_classical():
    assert abs(qrel_entropy(np.diag([0.7, 0.3]), np.eye(2) / 2) - (1 - entropy([0.7, 0.3]))) < 1e-12
    rng = np.random.default_rng(6)
    for _ in range(30):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        assert abs(qrel_entropy(np.diag(p), np.diag(q)) - relative_entropy(p, q)) < 1e-9


def test_qrel_entropy_support_rules():
    # rho leaks onto the null space of sigma
    assert qrel_entropy(np.eye(2) / 2, np.diag([1.0, 0.0])) == math.inf
    # supported rho against singular sigma stays finite
    val = qrel_entropy(np.diag([1.0, 0.0]), np.diag([0.6, 0.4]))
    assert abs(val - relative_entropy([1, 0], [0.6, 0.4])) < 1e-9
    assert qrel_entropy(np.diag([0.5, 0.5]), np.diag([0.5, 0.5])) < 1e-12


def test_qrel_entropy_is_never_negative():
    # Klein's inequality: D(r || r) = 0 must not round below zero
    rng = np.random.default_rng(0)
    for i in range(200):
        r = random_state(2 + i % 2, rng, rank=1 if i % 4 == 0 else None)
        assert 0.0 <= qrel_entropy(r, r) < 1e-12


def test_entropy_identity():
    # D(rho||sigma) = -H(spec rho) - sum_i pinched_i log2 t_i, sigma nonsingular
    rng = np.random.default_rng(7)
    for d in (2, 3):
        for _ in range(25):
            rho = random_state(d, rng)
            sig = random_state(d, rng)
            assert entropy_identity_check(rho, sig) < 1e-9
    with pytest.raises(ValueError):
        entropy_identity_check(np.eye(2) / 2, np.diag([1.0, 0.0]))


def test_pinching_cannot_increase_divergence():
    rng = np.random.default_rng(8)
    for _ in range(30):
        rho = random_state(2, rng)
        sig = random_state(2, rng)
        _, basis = eigenbasis(sig)
        classical = relative_entropy(pinch(rho, basis), pinch(sig, basis))
        assert classical <= qrel_entropy(rho, sig) + 1e-9


def test_trace_distance_bloch_closed_form():
    rng = np.random.default_rng(9)
    for _ in range(30):
        x = rng.uniform(-0.5, 0.5, 3)
        y = rng.uniform(-0.5, 0.5, 3)
        dist = trace_distance(bloch_state(x), bloch_state(y))
        assert abs(dist - 0.5 * np.linalg.norm(x - y)) < 1e-12
    assert trace_norm(np.diag([1.0, -2.0])) == 3.0


def test_depolarize_and_adjoint():
    rng = np.random.default_rng(10)
    rho = random_state(2, rng)
    assert np.abs(depolarize(rho, 0.0) - rho).max() < 1e-15
    assert np.abs(depolarize(rho, 1.0) - np.eye(2) / 2).max() < 1e-15
    with pytest.raises(ValueError):
        depolarize(rho, 1.5)
    # duality: tr{A N(rho)} = tr{N+(A) rho}
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = random_state(3, rng)
        delta = float(rng.uniform(0, 1))
        lhs = np.trace(a @ depolarize(rho, delta))
        rhs = np.trace(depolarize_adjoint(a, delta) @ rho)
        assert abs(lhs - rhs) < 1e-10


def test_entropy_difference_bound():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert abs(fannes_audenaert_bound(0.5, 2, 0.25) - 2.5) < 1e-12
    with pytest.raises(ValueError):
        fannes_audenaert_bound(1.5, 2, 0.25)
    with pytest.raises(ValueError):
        fannes_audenaert_bound(0.5, 2, 0.0)
    # tau log2 d + h(tau) dominates the entropy difference at matched t_min=1
    rng = np.random.default_rng(13)
    for _ in range(100):
        p = rng.dirichlet(np.ones(3))
        q = rng.dirichlet(np.ones(3))
        tau = 0.5 * np.abs(p - q).sum()
        if tau > 0.5:
            continue
        assert abs(entropy(p) - entropy(q)) <= fannes_audenaert_bound(tau, 3, 1.0) + 1e-12


def test_random_state_properties():
    rng = np.random.default_rng(14)
    rho = random_state(4, rng)
    assert_state(rho)
    pure = random_state(4, rng, rank=1)
    vals = np.linalg.eigvalsh(pure)
    assert vals[-1] > 1 - 1e-9 and np.abs(vals[:-1]).max() < 1e-9


def test_state_construction_round_trip():
    rng = np.random.default_rng(15)
    for d in (2, 3, 4):
        for _ in range(100):
            spec = np.sort(rng.dirichlet(np.ones(d)))[::-1]
            diag = birkhoff_mix(spec, rng)
            rho = state_with_spectrum_and_diagonal(spec, diag)
            assert np.abs(np.diag(rho) - diag).max() < 1e-8
            got = np.sort(np.linalg.eigvalsh(rho))[::-1]
            assert np.abs(got - spec).max() < 1e-8
            assert np.abs(rho - rho.T).max() < 1e-12


def test_state_construction_rejects_unmajorized():
    with pytest.raises(ValueError):
        state_with_spectrum_and_diagonal([0.5, 0.5], [0.9, 0.1])
    with pytest.raises(ValueError):
        state_with_spectrum_and_diagonal([0.6, 0.4], [0.5, 0.6])  # sums differ
    # boundary case: equal vectors are fine
    rho = state_with_spectrum_and_diagonal([0.6, 0.4], [0.6, 0.4])
    assert np.abs(rho - np.diag([0.6, 0.4])).max() < 1e-12


def test_state_construction_unsorted_diagonal_order_kept():
    spec = np.array([0.5, 0.3, 0.2])
    diag = np.array([0.25, 0.45, 0.30])
    rho = state_with_spectrum_and_diagonal(spec, diag)
    assert np.abs(np.diag(rho) - diag).max() < 1e-8
