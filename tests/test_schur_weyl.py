import functools
import itertools
import math

import numpy as np
import pytest

from qsanov import schur_weyl
from qsanov.errors import SizeGuardError
from qsanov.quantum import random_state
from qsanov.schur_weyl import (
    block_projector,
    block_weight,
    central_character,
    character,
    completeness_check,
    dense_from_blocks,
    frequency_blocks,
    gt_irrep,
    gt_weights,
    guard_dimension,
    invariance_defect,
    isotypical_projector,
    kcycle_class_size,
    product_trace,
    schur_polynomial,
    spectral_estimate_check,
    tensor_power,
    weyl_dimension,
    word_codes,
    words_of_type,
)
from qsanov.hypotest import SIGMA_MIN_EIG, TestSpec, build_test, label_errors, run_sanov
from qsanov.nogo import haar_unitary
from qsanov.quantum import eigenbasis
from qsanov.tableaux import (
    enumerate_frames,
    enumerate_frequencies,
    hook_dimension,
    kostka,
)

# frozen character tables, classes keyed by cycle type
S3_TABLE = {
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}
S4_TABLE = {
    (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
    (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
    (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
    (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
}


def cycle_type_of(perm):
    n = len(perm)
    seen = [False] * n
    lens = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        lens.append(length)
    return tuple(sorted(lens, reverse=True))


def perm_index_map(perm, d):
    """Array M with M[code(w)] = code(pi . w) over all d**n words.

    pi . w is the word w' with w'[pi(i)] = w[i]: letter i moves to slot
    pi(i).
    """
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a permutation: {p!r}")
    shape = (d,) * len(p)
    digits = np.unravel_index(np.arange(d ** len(p)), shape)
    return np.ravel_multi_index([digits[i] for i in np.argsort(p)], shape)


def brute_central_idempotent(f, lam):
    """(dim/n!) sum_pi chi(pi) U_pi restricted to the words of type f."""
    n = sum(f)
    d = len(f)
    words = words_of_type(f)
    codes = word_codes(words, d)
    pos = {c: i for i, c in enumerate(codes)}
    m = len(codes)
    out = np.zeros((m, m))
    dim = hook_dimension(lam)
    for perm in itertools.permutations(range(n)):
        chi = character(lam, cycle_type_of(perm))
        if chi == 0:
            continue
        pmap = perm_index_map(perm, d)
        for i, c in enumerate(codes):
            out[pos[pmap[c]], i] += chi
    return out * (dim / math.factorial(n))


# ---------------------------------------------------------------------------
# permutation action


def test_words_of_type_sorted_and_complete():
    for f in [(2, 1), (2, 2), (1, 2, 1)]:
        words = words_of_type(f)
        d = len(f)
        n = sum(f)
        assert words.shape == (math.factorial(n) // math.prod(map(math.factorial, f)), n)
        codes = word_codes(words, d)
        if list(f) == sorted(f, reverse=True):
            assert np.all(np.diff(codes) > 0)
        else:
            # letter 1 (count 2) takes slot 0 of the sorted counts (2, 1, 1)
            assert np.array_equal(words, np.array([1, 0, 2])[words_of_type((2, 1, 1))])
        assert len(np.unique(codes)) == len(codes)
        for row in words:
            assert tuple(np.bincount(row, minlength=d)) == f
        assert words is words_of_type(f)
        assert not words.flags.writeable


def test_perm_operator_is_representation():
    rng = np.random.default_rng(21)
    d, n = 2, 5
    for _ in range(25):
        p = tuple(rng.permutation(n))
        q = tuple(rng.permutation(n))
        pq = tuple(p[q[x]] for x in range(n))  # (p o q)(x) = p(q(x))
        # U_{p o q} = U_p U_q as index maps
        assert np.array_equal(perm_index_map(pq, d), perm_index_map(p, d)[perm_index_map(q, d)])
    assert np.array_equal(perm_index_map(tuple(range(n)), d), np.arange(d**n))
    with pytest.raises(ValueError):
        perm_index_map((0, 0, 1), d)


def test_perm_action_on_letters():
    # (pi . w)_k = w_{pi^{-1}(k)}: letter at slot pi(i) comes from slot i
    d, n = 3, 3
    perm = (1, 2, 0)  # slot 0 -> 1, 1 -> 2, 2 -> 0
    w = (0, 1, 2)
    code = int(np.ravel_multi_index(w, (d,) * n))
    moved = perm_index_map(perm, d)[code]
    target = (2, 0, 1)  # w pulled back through pi^{-1}
    assert moved == int(np.ravel_multi_index(target, (d,) * n))
    assert cycle_type_of(perm) == (3,)


def test_perm_matrix_is_permutation_unitary():
    u = np.zeros((8, 8))
    u[perm_index_map((1, 0, 2), 2), np.arange(8)] = 1.0
    assert np.abs(u @ u.T - np.eye(8)).max() == 0
    assert set(np.unique(u)) == {0.0, 1.0}


# ---------------------------------------------------------------------------
# characters


def test_character_tables_frozen():
    for lam, row in S3_TABLE.items():
        for mu, chi in row.items():
            assert character(lam, mu) == chi
    for lam, row in S4_TABLE.items():
        for mu, chi in row.items():
            assert character(lam, mu) == chi


def test_conjugacy_class_sizes():
    # the k-cycle class size against the k-cycles that the class sums walk
    for n in range(2, 8):
        for k in range(2, n + 1):
            assert kcycle_class_size(n, k) == sum(1 for _ in schur_weyl._k_cycles(n, k))


def test_central_characters_are_ratios():
    # z_k(lam) = |C_k| chi_lam(k-cycle) / dim F_lam, an exact integer
    for n in range(2, 8):
        for fr in enumerate_frames(3, n):
            for k in range(2, n + 1):
                mu = (k,) + (1,) * (n - k)
                num = kcycle_class_size(n, k) * character(fr.parts, mu)
                dim = hook_dimension(fr.parts)
                assert num % dim == 0
                assert central_character(fr.parts, n, k) == num // dim


# ---------------------------------------------------------------------------
# projector blocks


def test_blocks_match_brute_central_idempotent():
    cases = [(2, n) for n in range(2, 6)] + [(3, n) for n in range(2, 5)]
    freqs = [f.counts for d, n in cases for f in enumerate_frequencies(d, n)]
    # at d = 3, n = 6 the 2-cycle class sum alone does not separate the frames
    freqs += [(2, 2, 2), (3, 2, 1)]
    for f in freqs:
        for lam, block in frequency_blocks(f).items():
            brute = brute_central_idempotent(f, lam)
            assert np.abs(block - brute).max() < 1e-10, (f, lam)


def direct_blocks(counts):
    """Frame projectors from the class sums on the lexicographic words of f.

    The oracle for every ordering of f: no relabelling, the same targets
    sum_k (pi/7)**(k-2) chi_k(lam) as `frequency_blocks`. Returns the words
    and the blocks in their row order.
    """
    d, n = len(counts), sum(counts)
    words = np.array(
        [w for w in itertools.product(range(d), repeat=n)
         if tuple(np.bincount(w, minlength=d)) == counts]
    )
    cands = [fr.parts for fr in enumerate_frames(d, n) if kostka(counts, fr.parts)]
    ks = []  # the fewest cycle lengths 2..K that tell the frames apart
    while len({tuple(central_character(lam, n, k) for k in ks) for lam in cands}) < len(cands):
        ks.append(len(ks) + 2)
    weights = (math.pi / 7.0) ** np.arange(len(ks))
    targets = [sum(w * central_character(lam, n, k) for w, k in zip(weights, ks)) for lam in cands]
    mixed = sum(
        (w * schur_weyl.class_sum_on_words(words, d, k) for w, k in zip(weights, ks)),
        np.zeros((len(words), len(words))),
    )
    vals, vecs = np.linalg.eigh(mixed)
    owner = np.abs(vals[:, None] - np.array(targets)[None, :]).argmin(axis=1)
    blocks = {}
    for i, lam in enumerate(cands):
        sel = vecs[:, owner == i]
        blocks[lam] = sel @ sel.T
    return words, blocks


def test_relabelled_blocks_match_direct_class_sums():
    cases = [(2, n) for n in range(1, 9)] + [(3, n) for n in range(1, 7)]
    cases += [(4, n) for n in range(1, 6)]
    for d, n in cases:
        for f in enumerate_frequencies(d, n):
            words, want = direct_blocks(f.counts)
            # row i of a block is word words_of_type(f)[i]
            idx = np.searchsorted(word_codes(words, d), word_codes(words_of_type(f), d))
            assert np.array_equal(words[idx], words_of_type(f))
            got = frequency_blocks(f)
            assert sorted(got) == sorted(want), f.counts
            for lam, block in got.items():
                assert np.abs(block - want[lam][np.ix_(idx, idx)]).max() <= 1e-12, (f, lam)


def test_build_test_in_complex_basis_matches_direct_blocks():
    d, n = 3, 5
    rng = np.random.default_rng(31)
    u = haar_unitary(d, rng)
    spec = TestSpec(u @ np.diag([0.5, 0.3, 0.2]) @ u.conj().T, [np.eye(d) / d], 0.3, n)
    assert np.abs(spec.basis.imag).max() > 0.1
    labels = {
        (f.counts, fr.parts)
        for f in enumerate_frequencies(d, n)
        for fr in enumerate_frames(d, n)
        if kostka(f.counts, fr.parts) and rng.uniform() < 0.5
    }
    assert any(list(f) != sorted(f, reverse=True) for f, _ in labels)
    # the oracle placed on its own word codes, then rotated by basis^(x n)
    out = np.zeros((d**n, d**n))
    for f, lam in labels:
        words, blocks = direct_blocks(f)
        codes = word_codes(words, d)
        out[np.ix_(codes, codes)] += blocks[lam]
    t = tensor_power(spec.basis, n)
    assert np.abs(build_test(spec, labels) - t @ out @ t.conj().T).max() <= 1e-12


def test_sweep_builds_sorted_frequencies_only(monkeypatch):
    # d = 3, n = 8: 45 frequencies, 10 of them non-increasing
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    schur_weyl._frequency_blocks.cache_clear()
    try:
        freqs = [f.counts for f in enumerate_frequencies(3, 8)]
        blocks = {f: frequency_blocks(f) for f in freqs}
        assert len(freqs) == 45 and len(calls) == 10
        for f in freqs:
            assert blocks[f] is blocks[tuple(sorted(f, reverse=True))]
    finally:
        schur_weyl._frequency_blocks.cache_clear()


def test_blocks_reject_eigenvalues_off_their_targets(monkeypatch):
    # Z_2 targets on f = (2, 2) are 6, 2 and 0: a shift of 1 is half the smallest gap.
    # The only eigh in frequency_blocks is the one of the restricted orbit operator.
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh(a + np.eye(len(a))))
    schur_weyl._frequency_blocks.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="targets"):
            frequency_blocks((2, 2))
    finally:
        schur_weyl._frequency_blocks.cache_clear()


def test_blocks_reject_owner_counts_off_kostka_squares(monkeypatch):
    # every eigenvalue sits on a target, but the smallest is moved onto the
    # largest one, so the frames own 2 and 0 orbit eigenvalues instead of 1 and 1
    eigh = np.linalg.eigh

    def moved(a):
        vals, vecs = eigh(a)
        return np.r_[vals[-1], vals[1:]], vecs

    monkeypatch.setattr(np.linalg, "eigh", moved)
    schur_weyl._frequency_blocks.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match="own"):
            frequency_blocks((2, 2))
    finally:
        schur_weyl._frequency_blocks.cache_clear()


def _sorted_frequencies(d, n):
    freqs = (f.counts for f in enumerate_frequencies(d, n))
    return [f for f in freqs if list(f) == sorted(f, reverse=True)]


def test_orbit_blocks_match_the_dense_class_sum_oracle():
    # every sorted f at d = 2 (n <= 10), d = 3 (n <= 8), d = 4 (n <= 5) and d = 5, n = 5
    cases = [(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 9)]
    cases += [(4, n) for n in range(1, 6)] + [(5, 5)]
    schur_weyl._frequency_blocks.cache_clear()
    try:
        for d, n in cases:
            for f in _sorted_frequencies(d, n):
                words, want = direct_blocks(f)
                assert np.array_equal(words, words_of_type(f))
                got = frequency_blocks(f)
                assert sorted(got) == sorted(want), f
                for lam, block in got.items():
                    assert np.abs(block - want[lam]).max() <= 1e-12, (f, lam)
    finally:
        schur_weyl._frequency_blocks.cache_clear()


def test_blocks_diagonalise_on_the_orbits_only(monkeypatch):
    # no dense class sum is formed, and the one eigh per block has size sum_lam K**2
    def dense(*args):
        raise AssertionError("class_sum_on_words called")

    sizes = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(schur_weyl, "class_sum_on_words", dense)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(a.shape) or eigh(a))
    schur_weyl._frequency_blocks.cache_clear()
    try:
        orbits = {}
        for d, n in [(2, 10), (3, 8), (4, 5), (5, 5)]:
            for f in _sorted_frequencies(d, n):
                sizes.clear()
                orbits[f] = sum(kostka(f, lam) ** 2 for lam in frequency_blocks(f))
                assert sizes == [(orbits[f], orbits[f])], (f, sizes)
        assert len(words_of_type((3, 3, 2))) == 560 and orbits[(3, 3, 2)] == 35
        assert len(words_of_type((5, 5))) == 252 and orbits[(5, 5)] == 6
    finally:
        schur_weyl._frequency_blocks.cache_clear()


def test_block_algebra():
    for d, n in [(2, 6), (2, 8), (3, 5)]:
        assert completeness_check(d, n) <= 1e-9
        for f in enumerate_frequencies(d, n):
            blocks = frequency_blocks(f.counts)
            lams = sorted(blocks)
            for lam in lams:
                b = blocks[lam]
                assert np.abs(b - b.T).max() < 1e-9
                assert np.abs(b @ b - b).max() < 1e-9
                want = kostka(f.counts, lam) * hook_dimension(lam)
                assert abs(np.trace(b) - want) < 1e-6
            for i in range(len(lams)):
                for j in range(i + 1, len(lams)):
                    assert np.abs(blocks[lams[i]] @ blocks[lams[j]]).max() < 1e-9


def test_block_projector_full_matrix():
    p = block_projector((2, 1), (2, 1))
    assert p.shape == (8, 8)
    assert np.abs(p @ p - p).max() < 1e-10
    assert abs(np.trace(p) - kostka((2, 1), (2, 1)) * hook_dimension((2, 1))) < 1e-9
    assert invariance_defect(p, 2, 3) < 1e-12
    # vanished Kostka number: zero block
    z = block_projector((3, 1), (2, 2))
    assert np.abs(z).max() == 0.0


def test_invariance_defect_on_non_invariant_operators():
    # the two generators of S_n, conjugated by explicit permutation matrices
    for d, n, seed in ((2, 4, 31), (3, 3, 32), (2, 5, 33)):
        dim = d**n
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        perms = [(1, 0, *range(2, n)), (*range(1, n), 0)]
        want, via_map = 0.0, 0.0
        for perm in perms:
            u = np.zeros((dim, dim))
            for word in itertools.product(range(d), repeat=n):
                moved = [0] * n
                for i, letter in enumerate(word):
                    moved[perm[i]] = letter
                u[np.ravel_multi_index(moved, (d,) * n), np.ravel_multi_index(word, (d,) * n)] = 1
            want = max(want, float(np.abs(u @ a @ u.T - a).max()))
            m = perm_index_map(perm, d)
            via_map = max(via_map, float(np.abs(a[np.ix_(m, m)] - a).max()))
        got = invariance_defect(a, d, n)
        assert abs(got - want) <= 1e-15, (d, n)
        assert got == via_map, (d, n)  # bit for bit the index-map conjugation
        assert got > 0.5


def test_frequency_and_isotypical_partitions():
    d, n = 2, 4
    total_l = sum(isotypical_projector(fr.parts, d, n) for fr in enumerate_frames(d, n))
    assert np.abs(total_l - np.eye(d**n)).max() < 1e-10
    for fr in enumerate_frames(d, n):
        p = isotypical_projector(fr.parts, d, n)
        assert np.abs(p @ p - p).max() < 1e-10
        assert invariance_defect(p, d, n) < 1e-10


def test_block_projector_with_basis():
    theta = 0.3
    basis = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    p = block_projector((2, 1), (2, 1), basis=basis)
    q = block_projector((2, 1), (2, 1))
    t = tensor_power(basis, 3)
    assert np.abs(p - t @ q @ t.conj().T).max() < 1e-12


def test_block_weight_against_dense_trace():
    rng = np.random.default_rng(22)
    d, n = 2, 4
    for f in enumerate_frequencies(d, n):
        for fr in enumerate_frames(d, n):
            p = block_projector(f.counts, fr.parts)
            rho = random_state(d, rng)
            dense = np.einsum("ij,ji->", p, tensor_power(rho, n)).real
            assert abs(block_weight(f.counts, fr.parts, rho) - dense) < 1e-10
            sites = np.stack([random_state(d, rng) for _ in range(n)])
            big = sites[0]
            for k in range(1, n):
                big = np.kron(big, sites[k])
            dense = np.einsum("ij,ji->", p, big).real
            assert abs(block_weight(f.counts, fr.parts, sites) - dense) < 1e-10
    # one state at d = 3 in a complex basis, on the Gelfand-Tsetlin irreps
    rng = np.random.default_rng(24)
    rho, basis = random_state(3, rng), haar_unitary(3, rng)
    d, n = 3, 4
    big = tensor_power(rho, n)
    for f in enumerate_frequencies(d, n):
        for fr in enumerate_frames(d, n):
            p = block_projector(f.counts, fr.parts, basis=basis)
            dense = np.einsum("ij,ji->", p, big).real
            assert abs(block_weight(f.counts, fr.parts, rho, basis=basis) - dense) < 1e-10
    # more rows than letters, |f| != |lam|, and no weight equal to f
    assert block_weight((2, 2), (2, 1, 1), np.eye(2) / 2) == 0.0
    assert block_weight((2, 1, 1), (2, 2, 1), rho) == 0.0
    assert block_weight((4, 0, 0), (2, 2), rho) == 0.0


def test_block_weight_past_the_word_block_guard():
    # d = 2, n = 64: the word blocks (up to C(64, 32) words) are never built
    n = 64
    rng = np.random.default_rng(25)
    basis = haar_unitary(2, rng)
    frames = enumerate_frames(2, n)
    freqs = enumerate_frequencies(2, n)
    schur_weyl._frequency_blocks.cache_clear()
    # rho diagonal in the basis: d_lam K_{f,lam} p^f0 q^f1. The irrep
    # diagonal is accurate to about eps**2 times the frame's largest weight
    # (3.9e-7 relative on the smallest, f = (0, 64), lam = (64,)), so the
    # bound is relative to the frame's mass d_lam s_lam(p, q); the Kostka
    # number is still recovered exactly on every pair.
    p, q = 0.7, 0.3
    rho = basis @ np.diag([p, q]) @ basis.conj().T
    for fr in frames:
        d_lam = hook_dimension(fr.parts)
        lam = fr.padded(2)
        mass = d_lam * sum(p**k * q ** (n - k) for k in range(lam[1], lam[0] + 1))
        for f in freqs:
            unit = d_lam * p ** f[0] * q ** f[1]
            want = kostka(f.counts, fr.parts) * unit
            got = block_weight(f.counts, fr.parts, rho, basis=basis)
            assert abs(got - want) <= 1e-12 * mass, (f, fr, got, want)
            assert round(got / unit) == kostka(f.counts, fr.parts), (f, fr, got, want)
    # generic rho: the weights of a frame sum to d_lam s_lam(x, y), with
    # s_lam(x, y) = (xy)^lam_2 sum_{k <= m} x^k y^(m - k), m = lam_1 - lam_2
    rho = random_state(2, rng)
    x, y = np.linalg.eigvalsh(rho)
    for fr in frames:
        lam = fr.padded(2)
        m = lam[0] - lam[1]
        want = hook_dimension(fr.parts) * (x * y) ** lam[1] * sum(
            x**k * y ** (m - k) for k in range(m + 1)
        )
        got = sum(block_weight(f.counts, fr.parts, rho, basis=basis) for f in freqs)
        assert abs(got - want) <= 1e-12 * want, (fr, got, want)
    assert schur_weyl._frequency_blocks.cache_info().currsize == 0


def test_block_weight_with_rotated_basis():
    rng = np.random.default_rng(23)
    theta = 0.7
    basis = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    rho = random_state(2, rng)
    p = block_projector((2, 2), (3, 1), basis=basis)
    dense = np.einsum("ij,ji->", p, tensor_power(rho, 4)).real
    assert abs(block_weight((2, 2), (3, 1), rho, basis=basis) - dense) < 1e-10


def test_spectral_estimate_inequality():
    rng = np.random.default_rng(24)
    for n in range(2, 7):
        rho = random_state(2, rng)
        for fr in enumerate_frames(2, n):
            lhs, rhs = spectral_estimate_check(fr.parts, rho, n)
            assert lhs <= rhs + 1e-12


def test_size_guards():
    with pytest.raises(SizeGuardError):
        guard_dimension(2, 16)
    with pytest.raises(SizeGuardError):
        frequency_blocks((10, 10))
    with pytest.raises(SizeGuardError):
        tensor_power(np.eye(2), 13)  # dense limit is tighter


def test_size_guard_messages_name_what_tripped():
    with pytest.raises(SizeGuardError, match=r"f = \(8, 7\) has 6435 words"):
        frequency_blocks((8, 7))
    with pytest.raises(SizeGuardError, match=r"f = \(7, 8\) has 6435 words"):
        frequency_blocks((7, 8))
    with pytest.raises(SizeGuardError, match="d = 2, n = 13"):
        tensor_power(np.eye(2), 13)
    with pytest.raises(SizeGuardError, match="d = 3, n = 8"):
        dense_from_blocks([], 3, 8)


def _complex_letters(rng, shape, d):
    """Random complex d x d letters; neighbours do not commute."""
    return rng.standard_normal((*shape, d, d)) + 1j * rng.standard_normal((*shape, d, d))


def _dense_product_trace(a, states):
    """tr{A rho_0 x ... x rho_{n-1}} from the Kronecker product, per batch entry."""
    flat = states.reshape(-1, *states.shape[-3:])
    got = [np.einsum("ij,ji->", a, functools.reduce(np.kron, x)) for x in flat]
    return np.array(got).reshape(states.shape[:-3])


def test_product_trace_matches_dense_products():
    # Kronecker products of complex, mutually non-commuting letters against
    # the site-wise contraction, in every batch shape; 1e-12 relative to the
    # sum of |terms|, which bounds the rounding of either form
    rng = np.random.default_rng(17)
    cases = [(2, 1), (2, 3), (2, 6), (3, 1), (3, 3), (4, 2), (4, 3)]
    for d, n in cases:
        dim = d**n
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        for batch in ((), (17,), (3, 5)):
            states = _complex_letters(rng, (*batch, n), d)
            got = product_trace(a, states)
            want = _dense_product_trace(a, states)
            assert got.shape == tuple(batch)
            scale = np.abs(a).max() * np.prod(np.abs(states).sum(axis=(-1, -2)), axis=-1)
            assert np.all(np.abs(got - want) <= 1e-12 * scale), (d, n, batch)
        first, second = states[0, 0, 0], states[0, 0, -1]
        if n > 1:
            assert np.abs(first @ second - second @ first).max() > 0.1
    # a real operator against complex states stays complex; real with real stays real
    a = rng.standard_normal((8, 8))
    states = _complex_letters(rng, (3,), 2)
    got = product_trace(a, states)
    assert np.iscomplexobj(got)
    scale = np.abs(a).max() * np.prod(np.abs(states).sum(axis=(-1, -2)))
    assert abs(got - _dense_product_trace(a, states)) <= 1e-12 * scale
    assert product_trace(a, states.real).dtype == np.float64
    # states of one letter broadcast over the sites and over a batch
    rho = random_state(3, np.random.default_rng(4))
    a = rng.standard_normal((27, 27))
    want = np.einsum("ij,ji->", a, tensor_power(rho, 3))
    got = product_trace(a, np.broadcast_to(rho, (5, 3, 3, 3)))
    assert np.abs(got - want).max() < 1e-12 * max(1.0, abs(want))


def test_product_trace_rejects_bad_shapes():
    with pytest.raises(ValueError, match="states must have shape"):
        product_trace(np.eye(4), np.eye(2))
    with pytest.raises(ValueError, match="states must have shape"):
        product_trace(np.eye(4), np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="does not match"):
        product_trace(np.eye(8), np.zeros((2, 2, 2)))
    with pytest.raises(SizeGuardError, match="d = 2, n = 13"):
        product_trace(np.eye(2), np.zeros((13, 2, 2)))


def test_block_cache_shares_instances():
    a = frequency_blocks((3, 2))
    b = frequency_blocks((3, 2))
    assert a is b
    assert frequency_blocks((2, 3)) is frequency_blocks((3, 2))


# ---------------------------------------------------------------------------
# U(d) irreps in the Gelfand-Tsetlin basis


def _all_generators(irrep):
    """Every E_ij: the stored E_kk, E_{k,k+1}, E_{k+1,k}, the rest by commutators."""
    d = irrep.d
    e = {}
    for i in range(d):
        for j in range(max(0, i - 1), min(d, i + 2)):
            e[(i, j)] = irrep.generator(i, j)
    for gap in range(2, d):
        for i in range(d - gap):
            j = i + gap
            a, b = e[(i, j - 1)], e[(j - 1, j)]
            e[(i, j)] = a @ b - b @ a
            e[(j, i)] = e[(i, j)].T
    return e


def _exp_i(h):
    """exp(i h) for a Hermitian h."""
    vals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def test_gt_irreps_satisfy_the_gl_d_relations():
    # [E_ij, E_kl] = delta_jk E_il - delta_il E_kj, dim = Kostka sum, and
    # pi(V) is a unitary homomorphism equal to exp(i dpi(H)) for V = exp(iH)
    rng = np.random.default_rng(120)
    for d, top in ((2, 6), (3, 5), (4, 4)):
        for n in range(1, top + 1):
            for fr in enumerate_frames(d, n):
                irrep = gt_irrep(fr.parts, d)
                kostka_sum = sum(kostka(f.counts, fr.parts) for f in enumerate_frequencies(d, n))
                assert irrep.dim == kostka_sum == weyl_dimension(fr.parts, d)
                e = _all_generators(irrep)
                for (i, j), a in e.items():
                    for (k, l), b in e.items():
                        want = (j == k) * e[(i, l)] - (i == l) * e[(k, j)]
                        assert np.abs(a @ b - b @ a - want).max() < 1e-12, (fr.parts, i, j, k, l)
                u, w = haar_unitary(d, rng), haar_unitary(d, rng)
                pu, pw = irrep.unitary(u), irrep.unitary(w)
                assert np.abs(pu @ pu.conj().T - np.eye(irrep.dim)).max() < 1e-12
                assert np.abs(irrep.unitary(u @ w) - pu @ pw).max() < 1e-12
                h = _hermitian_log(u)
                dpi = sum(h[i, j] * e[(i, j)] for i in range(d) for j in range(d))
                assert np.abs(_exp_i(dpi) - pu).max() < 1e-12, fr.parts


def _hermitian_log(u):
    """Hermitian h with exp(i h) = u, from the eigenvectors of a normal u."""
    vals, vecs = np.linalg.eig(u)
    q, _ = np.linalg.qr(vecs)  # distinct eigenvalues: orthonormal up to phases
    angles = np.angle(np.diagonal(q.conj().T @ u @ q))
    h = (q * angles) @ q.conj().T
    assert np.abs(_exp_i(h) - u).max() < 1e-12
    return h


def _sym_powers(x, n):
    """Sym^m(x) of a 2 x 2 matrix for m = n, n - 2, ..., 0: the closed-form d = 2 oracle.

    Written in the orthonormal symmetric basis, whose vector a is the
    normalized sum of the words with a zeros. With p = x00 u + x10 v and
    q = x01 u + x11 v, c[a, b] is the coefficient of u^a v^(m-a) in
    p^b q^(m-b), grown one factor at a time, and
    Sym^m(x)[a, b] = c[a, b] sqrt(C(m, b) / C(m, a)).
    """
    (x00, x01), (x10, x11) = x
    c = np.ones((1, 1), dtype=x.dtype)
    out = {}
    for m in range(n + 1):
        if m:
            grown = np.zeros((m + 1, m + 1), dtype=x.dtype)
            grown[1:, 1:] += x00 * c
            grown[:-1, 1:] += x10 * c
            grown[1:, 0] += x01 * c[:, 0]
            grown[:-1, 0] += x11 * c[:, 0]
            c = grown
        if (n - m) % 2 == 0:
            log_binom = np.array(
                [math.lgamma(m + 1) - math.lgamma(a + 1) - math.lgamma(m - a + 1)
                 for a in range(m + 1)]
            )
            out[m] = c * np.exp(0.5 * (log_binom[None, :] - log_binom[:, None]))
    return out


def test_gt_irreps_at_d2_are_det_times_sym_powers():
    rng = np.random.default_rng(121)
    for rank in (1, 2):
        x = random_state(2, rng, rank=rank)
        for n in range(1, 9):
            sym = _sym_powers(x, n)
            det = float(np.linalg.det(x).real)
            for k in range(n // 2 + 1):
                lam = (n - k, k) if k else (n,)
                got = gt_irrep(lam, 2).matrix(x)
                want = det**k * sym[n - 2 * k]
                assert np.abs(got - want).max() < 1e-14, (rank, n, k)


def test_gt_irrep_of_a_diagonal_state_is_its_weight_powers():
    # a diagonal X skips the eigh: diag(x**wt) against pi(V) diag(r**wt)
    # pi(V)^dag with V = eigh(X), whose eigenvalues come sorted
    for d, n in ((2, 7), (3, 5)):
        full = np.diag(np.linspace(0.1, 1.0, d)[::-1])
        singular = np.diag([0.0] + [1.0 / (d - 1)] * (d - 1))
        for x in (full / np.trace(full), singular):
            for fr in enumerate_frames(d, n):
                irrep = gt_irrep(fr.parts, d)
                r, v = np.linalg.eigh(x.astype(complex))
                p = irrep.unitary(v)
                want = (p * np.prod(r[None, :] ** irrep.weights, axis=1)) @ p.conj().T
                got = irrep.matrix(x)
                assert np.abs(got - want).max() < 1e-14, (d, n, fr.parts)
                assert np.count_nonzero(got - np.diag(np.diagonal(got))) == 0


def _weight_cases(d):
    # complex sigma eigenbases; rank-1, rank-2, commuting (with sigma) and
    # maximally mixed rho; a sigma with smallest eigenvalue near SIGMA_MIN_EIG
    cases = []
    for seed, rank in ((130, 1), (131, 2), (132, d)):
        rng = np.random.default_rng([seed, d])
        cases.append((random_state(d, rng), random_state(d, rng, rank=rank)))
    rng = np.random.default_rng([133, d])
    u = haar_unitary(d, rng)
    spec = np.arange(d, 0, -1) / (d * (d + 1) / 2)
    cases.append((u @ np.diag(spec) @ u.conj().T, u @ np.diag(spec[::-1]) @ u.conj().T))
    cases.append((random_state(d, rng), np.eye(d) / d))
    tiny = np.r_[np.ones(d - 1) / (d - 1) * (1 - 1e-11), 1e-11]
    u = haar_unitary(d, rng)
    cases.append((u @ np.diag(tiny) @ u.conj().T, random_state(d, rng)))
    return cases


def test_gt_iid_weights_match_word_block_weights():
    # d_lam tr{Pi_f pi_lam(rho')} against block_weight on the per-site
    # states [rho] * n (the word path), rho' = B^dag rho B
    assert 1e-11 > SIGMA_MIN_EIG
    for d, top in ((3, 7), (4, 4)):
        for i, (sigma, rho) in enumerate(_weight_cases(d)):
            _, basis = eigenbasis(sigma)
            rho_b = basis.conj().T @ rho @ basis
            for n in range(1, top + 1):
                for fr in enumerate_frames(d, n):
                    irrep = gt_irrep(fr.parts, d)
                    diag = hook_dimension(fr.parts) * np.diagonal(irrep.matrix(rho_b)).real
                    for f in enumerate_frequencies(d, n):
                        got = diag[np.all(irrep.weights == f.counts, axis=1)].sum()
                        want = block_weight(f.counts, fr.parts, [rho] * n, basis=basis)
                        assert abs(got - want) < 1e-12, (d, i, n, fr.parts, f.counts)


def test_keyl_werner_marginal_at_n20():
    # sum_f tr{Pi_f pi_lam(rho)} = s_lam(spec rho), on the dense pi_lam(rho)
    # and as the total of rho's weight-mass table, and the frames of n = 20
    # share the unit mass of rho^n
    n = 20
    rng = np.random.default_rng(140)
    for rho in (random_state(3, rng), random_state(3, rng, rank=2)):
        r = np.linalg.eigvalsh(rho)
        key = np.ascontiguousarray(rho).tobytes()
        total = 0.0
        for fr in enumerate_frames(3, n):
            schur = schur_polynomial(fr.parts, r)
            trace = float(np.trace(gt_irrep(fr.parts, 3).matrix(rho)).real)
            assert abs(trace - schur) <= 1e-12 * schur + 1e-300, fr.parts
            table = float(np.exp(schur_weyl._weight_masses(fr.parts, 3, key)).sum())
            want = hook_dimension(fr.parts) * schur
            assert abs(table - want) <= 1e-12 * want + 1e-300, fr.parts
            total += hook_dimension(fr.parts) * schur
        assert abs(total - 1.0) < 1e-12


def test_spectral_estimate_at_d3_n12():
    # 3**12 is above the index-level guard of the block-by-block left side
    n = 12
    rng = np.random.default_rng(141)
    rho = random_state(3, rng)
    total = 0.0
    for fr in enumerate_frames(3, n):
        lhs, rhs = spectral_estimate_check(fr.parts, rho, n)
        want = hook_dimension(fr.parts) * float(np.trace(gt_irrep(fr.parts, 3).matrix(rho)).real)
        assert abs(lhs - want) < 1e-12
        assert lhs <= rhs + 1e-12
        total += lhs
    assert abs(total - 1.0) < 1e-12


def test_gt_guards_name_the_irrep():
    # (90,) at d = 3 has C(92, 2) = 4186 patterns, (400,) has 80601
    with pytest.raises(SizeGuardError, match=r"U\(3\) irrep lam = \(90,\) has dimension 4186"):
        gt_irrep((90,), 3)
    with pytest.raises(SizeGuardError, match=r"lam = \(400,\) has dimension 80601"):
        gt_weights((400,), 3)
    assert gt_weights((90,), 3).shape == (4186, 3)


# ---------------------------------------------------------------------------
# closed-form U(2) irreps and the weight-mass table


def _mp_sym_column(v, j, b):
    """Column b of Sym^j(v) in the orthonormal symmetric basis, to 50 digits.

    As in `_sym_powers`, entry a is the coefficient of u^a v^(j-a) in
    p^b q^(j-b), p = v00 u + v10 v, q = v01 u + v11 v, times
    sqrt(C(j, b) / C(j, a)); here every product is exact to 50 digits.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        (x00, x01), (x10, x11) = ((mp.mpc(complex(z)) for z in row) for row in v)
        poly = [mp.mpc(1)]
        for cu, cv in [(x00, x10)] * b + [(x01, x11)] * (j - b):
            grown = [mp.mpc(0)] * (len(poly) + 1)
            for a, c in enumerate(poly):
                grown[a + 1] += cu * c
                grown[a] += cv * c
            poly = grown
        return np.array([
            complex(poly[a] * mp.sqrt(mp.binomial(j, b) / mp.binomial(j, a))) for a in range(j + 1)
        ])


def test_u2_closed_form_matches_sym_powers_and_mpmath():
    rng = np.random.default_rng(150)
    for j in range(11):
        for k in (0, 2):
            v = haar_unitary(2, rng)
            want = np.linalg.det(v) ** k * _sym_powers(v, j + 2 * k)[j]
            got = gt_irrep((j + k, k), 2).unitary(v)
            assert np.abs(got - want).max() < 1e-12, (j, k)
    for j in (64, 256):
        v = haar_unitary(2, rng)
        got = gt_irrep((j + 3, 3), 2).unitary(v)
        det3 = np.linalg.det(v) ** 3
        for b in (0, j // 3, j // 2, j):
            assert np.abs(got[:, b] - det3 * _mp_sym_column(v, j, b)).max() < 1e-12, (j, b)
    # unitary homomorphism at J = 256
    irrep = gt_irrep((256,), 2)
    u, w = haar_unitary(2, rng), haar_unitary(2, rng)
    pu, pw = irrep.unitary(u), irrep.unitary(w)
    assert np.abs(pu @ pu.conj().T - np.eye(257)).max() < 1e-12
    assert np.abs(irrep.unitary(u @ w) - pu @ pw).max() < 1e-12


def test_u2_irreps_are_not_built_from_gt_rotation_blocks():
    # a d = 3 unitary reads its U(2) sub-blocks from the closed form, so the
    # only Gelfand-Tsetlin irrep it builds is its own
    schur_weyl._clear_irrep_caches()
    irrep = gt_irrep((4, 2, 1), 3)
    irrep.unitary(haar_unitary(3, np.random.default_rng(151)))
    assert schur_weyl._gt_irrep.cache_info().currsize == 1
    assert gt_irrep((5, 2), 2).rotation_blocks == gt_irrep((5, 2), 2).sub_blocks == ()


def _mp_u2_diagonal(x, lam, a):
    """pi_lam(X)[a, a] of U(2) to 50 digits, from the float entries of X."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        k = lam[1] if len(lam) > 1 else 0
        j = lam[0] - k
        big_a, big_d = mp.mpf(float(x[0, 0].real)), mp.mpf(float(x[1, 1].real))
        e = mp.mpf(float(x[0, 1].real)) ** 2 + mp.mpf(float(x[0, 1].imag)) ** 2
        terms = (
            mp.binomial(a, i) * mp.binomial(j - a, i) * big_a ** (a - i) * big_d ** (j - a - i) * e**i
            for i in range(min(a, j - a) + 1)
        )
        return (big_a * big_d - e) ** k * mp.fsum(terms)


def test_u2_diagonal_is_relatively_exact_and_takes_no_eigh(monkeypatch):
    # against _sym_powers at n = 40 (every weight) and mpmath at n = 40 and
    # 512 (a few weights per frame), relative per weight, for rank-1, rank-2
    # and diagonal states; rank-1 frames k >= 1 carry only det noise
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    rng = np.random.default_rng(152)
    states = {
        "rank-1": random_state(2, rng, rank=1),
        "rank-2": random_state(2, rng),
        "diagonal": np.diag([0.64, 0.36]).astype(complex),
    }
    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for name, x in states.items():
        sym = _sym_powers(x, 40)
        det = float(np.linalg.det(x).real)
        for n in (40, 512):
            for k in sorted({0, 1, n // 4, n // 2}):
                lam = (n - k, k) if k else (n,)
                got = np.exp(schur_weyl._u2_log_diagonal(lam, x))
                if name == "rank-1" and k:
                    assert np.abs(got).max() < 1e-15, (n, k)
                    continue
                if n == 40:
                    want = det**k * np.diagonal(sym[n - 2 * k]).real
                    live = want > 1e-250
                    assert np.all(np.abs(got[live] / want[live] - 1.0) < 1e-12), (name, n, k)
                for a in sorted({0, len(got) // 3, int(got.argmax()), len(got) - 1}):
                    want = _mp_u2_diagonal(x, lam, a)
                    if want > 1e-250:
                        assert abs(got[a] / float(want) - 1.0) < 1e-12, (name, n, k, a)


def test_u2_masses_match_mpmath_past_the_float_range():
    # block weights at n = 1536 and 2048, where d_lam is past 2**1024
    rng = np.random.default_rng(153)
    x = random_state(2, rng)
    mp = pytest.importorskip("mpmath")
    for n, k in ((1536, 307), (1536, 384), (2048, 341), (2048, 409)):
        lam = (n - k, k)
        assert hook_dimension(lam).bit_length() > 1024
        # x**n underflows here; x / r_max does not
        diag = np.exp(schur_weyl._u2_log_diagonal(lam, x / np.linalg.eigvalsh(x)[-1]))
        top = int(diag.argmax())
        for a in (top, top - len(diag) // 8):
            f = (k + a, n - k - a)
            got = block_weight(f, lam, x)
            want = mp.mpf(hook_dimension(lam)) * _mp_u2_diagonal(x, lam, a)
            assert 0.0 < got and abs(got / float(want) - 1.0) < 1e-12, (n, k, a)


def test_block_weight_below_the_frame_top_does_not_underflow():
    # lam = (1536, 512) of X = random_state(2, default_rng(153)): the frame's
    # largest scaled diagonal entry is 1.5e-274, so a weight-mass table kept
    # in linear space loses most of its rows to 0.0; the log table keeps them
    x = random_state(2, np.random.default_rng(153))
    mp = pytest.importorskip("mpmath")
    n, lam, f = 2048, (1536, 512), (827, 1221)
    with mp.workdps(50):
        want = mp.mpf(hook_dimension(lam)) * _mp_u2_diagonal(x, lam, f[0] - lam[1])
    assert 1e-81 < want < 1e-79
    got = block_weight(f, lam, x)
    assert abs(got / float(want) - 1.0) < 1e-11
    logs = schur_weyl._weight_masses(lam, 2, np.ascontiguousarray(x).tobytes())
    # cells lam_2..lam_1 are the frame's weights, and below lam_2 none is
    assert logs.shape == (lam[0] + 1,) and np.isfinite(logs[lam[1] :]).all()
    assert (logs[: lam[1]] == -np.inf).all()


def test_u2_masses_sum_to_the_trace_power():
    # sum over all labels of the mass of X^n is (tr X)^n = 1: a rank-2 state
    # at n = 512 through block_weight's log tables, and the d = 2 diagonals at
    # n = 4096 for the pure state of (1, i) / sqrt(2), whose entries are
    # dyadic, so that det X = 0 exactly and only lam = (n) carries mass
    x = random_state(2, np.random.default_rng(154))
    key = np.ascontiguousarray(x).tobytes()
    total = 0.0
    for fr in enumerate_frames(2, 512):
        total += np.exp(schur_weyl._weight_masses(fr.parts, 2, key)).sum()
    assert abs(total - 1.0) < 1e-12
    n = 4096
    x = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    total, carried = 0.0, []
    for k in range(n // 2 + 1):
        mass = float(np.exp(schur_weyl._u2_log_diagonal((n - k, k) if k else (n,), x)).sum())
        if mass > 0.0:
            carried.append(k)
            log_dim = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 2)
            total += math.exp(log_dim + math.log(n - 2 * k + 1) + math.log(mass))
    assert carried == [0]
    assert abs(total - 1.0) < 1e-12


def test_weight_mass_tables_are_indexed_by_the_weight():
    # cell f[:-1] against a test-side np.unique index over gt_weights, as
    # ln(d_lam sum of the diagonal of pi_lam(rho') over the rows of weight f),
    # on every label with K > 0; every other cell is -inf
    for d, top in ((3, 8), (4, 5)):
        sigma, rho = _weight_cases(d)[2]  # full rank: every mass is positive
        _, basis = eigenbasis(sigma)
        x = basis.conj().T @ rho @ basis
        key = np.ascontiguousarray(x).tobytes()
        for n in range(1, top + 1):
            for fr in enumerate_frames(d, n):
                logs = schur_weyl._weight_masses(fr.parts, d, key)
                assert logs.shape == (fr.parts[0] + 1,) * (d - 1) and not logs.flags.writeable
                weights = gt_weights(fr.parts, d)
                classes, inverse = np.unique(weights, axis=0, return_inverse=True)
                diag = np.diagonal(gt_irrep(fr.parts, d).matrix(x)).real
                live = np.zeros(logs.shape, dtype=bool)
                for i, f in enumerate(map(tuple, classes.tolist())):
                    assert kostka(f, fr.parts) > 0
                    want = hook_dimension(fr.parts) * diag[inverse.ravel() == i].sum()
                    assert abs(math.exp(logs[f[:-1]]) / want - 1.0) < 1e-12, (fr.parts, f)
                    live[f[:-1]] = True
                assert (logs[~live] == -np.inf).all(), fr.parts
                k_live = sum(kostka(f.counts, fr.parts) > 0 for f in enumerate_frequencies(d, n))
                assert live.sum() == k_live


def test_qubit_weight_masses_enumerate_no_patterns(monkeypatch):
    def no_table(*args):
        raise AssertionError("Gelfand-Tsetlin patterns enumerated")

    schur_weyl._clear_irrep_caches()
    monkeypatch.setattr(schur_weyl, "_gt_table", no_table)
    for x in (random_state(2, np.random.default_rng(155)), np.diag([0.7, 0.3]).astype(complex)):
        key = np.ascontiguousarray(x).tobytes()
        for fr in enumerate_frames(2, 40):
            logs = schur_weyl._weight_masses(fr.parts, 2, key)
            low = fr.parts[1] if len(fr.parts) > 1 else 0
            assert np.isfinite(logs[low:]).all() and (logs[:low] == -np.inf).all()
        assert block_weight((25, 15), (30, 10), x) > 0.0
    # frame totals read the table of diag(spec rho): a whole run, a miss
    # over frames with no accepted weight, and the spectral estimate
    rng = np.random.default_rng(5)
    rho, sigma = random_state(2, rng), random_state(2, rng)
    report = run_sanov(sigma, [rho], [256], epsilon=0.1, np_baseline=False)[0]
    assert 0.0 < report.type1_max < 1.0 and 0.0 < report.type2 < 1.0
    rho = np.diag([0.7, 0.3])
    spec = TestSpec(sigma=sigma, null_set=[rho], epsilon=0.1, n=512)
    assert abs(label_errors(spec, frozenset(), [rho]).misses[(512,)] - 1.0) < 1e-12
    lhs, rhs = spectral_estimate_check((600, 500), rho, 1100)
    assert 0.0 < lhs < rhs


def test_spectral_estimate_names_the_rows_of_a_long_frame():
    # the d = 2 table reads all -inf for a frame with more than 2 rows, so
    # the check refuses such a frame before it reads one
    for lam, d in (((2, 1, 1), 2), ((1, 1, 1, 1), 2), ((1, 1, 1, 1), 3)):
        rho = np.eye(d) / d
        rows = rf"frame \({', '.join(map(str, lam))}\) has more than {d} rows"
        with pytest.raises(ValueError, match=rows):
            spectral_estimate_check(lam, rho, 4)


def test_single_state_masses_match_the_word_block_path():
    # the weight-mass table of rho' = B^dag rho B against block_weight on
    # [rho] * n through word blocks, in a complex sigma eigenbasis
    for sigma, rho in _weight_cases(3)[:3]:
        _, basis = eigenbasis(sigma)
        for n in range(1, 8):
            for fr in enumerate_frames(3, n):
                for f in enumerate_frequencies(3, n):
                    got = block_weight(f.counts, fr.parts, rho, basis=basis)
                    want = block_weight(f.counts, fr.parts, [rho] * n, basis=basis)
                    assert abs(got - want) < 1e-12, (n, fr.parts, f.counts)


def test_block_weight_and_spectral_estimate_past_the_float_range():
    # d_lam of (600, 500) is past 2**1023: both raised OverflowError on the
    # int-times-float product
    mp = pytest.importorskip("mpmath")
    lam = (600, 500)
    rho = np.diag([0.7, 0.3])
    with mp.workdps(50):
        dim = mp.mpf(hook_dimension(lam))
        point = dim * (mp.mpf(0.7) * mp.mpf(0.3)) ** 550
        schur = (mp.mpf(0.7) * mp.mpf(0.3)) ** 500 * mp.fsum(
            mp.mpf(0.7) ** m * mp.mpf(0.3) ** (100 - m) for m in range(101)
        )
        total = dim * schur
    got = block_weight((550, 550), lam, rho)
    assert abs(got / float(point) - 1.0) < 1e-12
    lhs, rhs = spectral_estimate_check(lam, rho, 1100)
    assert abs(lhs / float(total) - 1.0) < 1e-12
    assert lhs <= rhs


def test_gt_diagonal_of_a_diagonal_state_takes_no_eigh(monkeypatch):
    # the weight-mass table of a diagonal X is d_lam K_lam,f x**f per weight,
    # with no eigh, against the rows of pi(V) diag(r**wt) pi(V)^dag with
    # V = eigh(X), on full-rank and singular diagonal states at d = 3 and 4
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called")

    schur_weyl._clear_irrep_caches()
    for d, n in ((3, 5), (4, 4)):
        full = np.diag(np.linspace(0.1, 1.0, d)[::-1])
        singular = np.diag([0.0] + [1.0 / (d - 1)] * (d - 1))
        for x in (full / np.trace(full), singular):
            x = x.astype(complex)
            key = x.tobytes()
            r, v = np.linalg.eigh(x)
            wants = []
            for fr in enumerate_frames(d, n):
                irrep = gt_irrep(fr.parts, d)
                wants.append(
                    (np.abs(irrep.unitary(v)) ** 2) @ np.prod(np.clip(r, 0, None) ** irrep.weights, axis=1)
                )
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "eigh", no_eigh)
                for fr, want in zip(enumerate_frames(d, n), wants):
                    logs = schur_weyl._weight_masses(fr.parts, d, key)
                    weights = gt_weights(fr.parts, d)
                    dim = hook_dimension(fr.parts)
                    for f in enumerate_frequencies(d, n):
                        k = kostka(f.counts, fr.parts)
                        if not k:
                            continue
                        got = math.exp(logs[f.counts[:-1]]) / dim
                        power = k * float(np.prod(np.diagonal(x).real ** np.array(f.counts)))
                        assert abs(got - power) <= 1e-14 * power, (d, n, fr.parts, f.counts)
                        rows = np.all(weights == f.counts, axis=1)
                        assert abs(got - want[rows].sum()) <= 1e-14 * want.max(), (d, n, fr.parts)


def test_frequency_blocks_are_slices_of_one_read_only_stack():
    blocks = frequency_blocks((3, 2, 1))
    bases = {id(block.base) for block in blocks.values()}
    assert len(bases) == 1
    assert not any(block.flags.writeable for block in blocks.values())
    stack = next(iter(blocks.values())).base
    assert stack.shape == (len(blocks), *next(iter(blocks.values())).shape)
    assert not stack.flags.writeable
