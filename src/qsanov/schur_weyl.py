"""Schur-Weyl duality on n-fold tensor powers of C^d.

For a fixed orthonormal basis of C^d, the tensor power splits into word
blocks V_f spanned by the product basis vectors whose letter counts equal
the frequency f. Each block carries a permutation action of S_n and splits
further into frame components V_{f,lam}, one per partition lam dominating
the sorted frequency; the component multiplicities are Kostka numbers.
Relabelling letters commutes with S_n, so only non-increasing f are built;
any other f reads the same blocks on relabelled words (`words_of_type`).

The S_n side is what word states and dense operators need. Projectors onto
the components are computed inside each word block (`frequency_blocks`).
Every central element of the group algebra acts on a frame component as an
exact integer scalar (its central character, from the Murnaghan-Nakayama
rule). The k-cycle class sums Z_k commute, so for the fewest cycle lengths
2..K whose central characters tell the candidate frames of a block apart,
the real combination sum_k (pi/7)**(k-2) Z_k has the frame components as
its eigenspaces. It is never formed on the m words of a block: an
S_n-invariant operator there is fixed by its entries against the sorted
word, one per orbit of the Young subgroup S_f, and the r = sum_lam
K_lam,f**2 orbits are keyed by letter-pair count tables. One r x r
eigendecomposition per block yields all of its projectors, each eigenvalue
is checked against the exact target sum_k (pi/7)**(k-2) chi_k(lam), and
every block entry is read off the orbit of its word pair. The blocks are
real in the word basis. `class_sum_on_words` keeps the dense m x m class
sum as an oracle. `dense_from_blocks` is the one path from blocks to
d**n operators (`block_projector`, `isotypical_projector`), and
`word_block_state` restricts a product of site states to a block.
Full-space work is guarded: index-level work allows d**n up to 60000,
dense d**n x d**n matrices up to 4096 (`dense_operator`), whose S_n
invariance is certified on the two generators of S_n (`invariance_defect`).
A dense operator's trace against product states is contracted one site at
a time (`product_trace`); `tensor_power` forms a d**n product only where
the dense product is itself the output.

The U(d) side is built in the Gelfand-Tsetlin basis (`gt_irrep`):
pi_lam(X) of a d x d matrix X >= 0 is dense of the irrep's dimension,
guarded at 4096, and its weight table at 60000 (`gt_weights`,
`schur_polynomial`, `weyl_dimension`). Every U(2) irrep, at d = 2 and as
the U(2) sub-blocks of every U(d >= 3) irrep, is the closed form
pi_mu(V) = det(V)**mu_2 D**(J/2)(V), J = mu_1 - mu_2, whose rotation
eigenbasis depends on J alone and is built once per J (`_u2_unitary`);
its diagonal on X >= 0 is a sum of nonnegative terms, taken in logs with
no eigh (`_u2_log_diagonal`). Every one-state scalar reads one table per
(frame, d, state), indexed by the weight f itself: cell f[:-1] holds
ln(d_lam tr{Pi_f pi_lam(X)}), a log-sum-exp over the Gelfand-Tsetlin rows
of weight f plus ln d_lam from the log-factorial table, so that no mass
underflows and no d_lam overflows a float (`_weight_masses`, the one
reader of the diagonal of pi_lam(X)). Single-state block weights read one
cell (`block_weight`); `hypotest.label_errors` sums the tables under and
off each frame's mask of accepted weights. A frame's total
d_lam s_lam(spec X) is the sum of the table of diag(spec X)
(`spectral_estimate_check`), with no eigh and, at d = 2, no pattern.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .errors import SizeGuardError
from .quantum import assert_basis, assert_state, spectrum
from .tableaux import (
    _dominates,
    _frame_parts,
    _freq_counts,
    _interlacing_rows,
    enumerate_frames,
    enumerate_frequencies,
    hook_dimension,
    kostka,
    log_factorials,
    log_hook_dimension,
    relative_entropy,
    type_class_size,
)

GUARD_LIMIT = 60000
DENSE_LIMIT = 4096
INVARIANCE_TOL = 1e-8  # the largest `invariance_defect` per unit max|A| read as S_n-invariant


def guard_dimension(d: int, n: int, limit: int = GUARD_LIMIT) -> int:
    dim = d**n
    if dim > limit:
        raise SizeGuardError(f"d = {d}, n = {n}: d**n = {dim} exceeds the guard of {limit}")
    return dim


def dense_operator(a, d: int, n: int) -> np.ndarray:
    """`a` as an array, checked to be a d**n x d**n operator within DENSE_LIMIT."""
    mat = np.asarray(a)
    dim = guard_dimension(d, n, DENSE_LIMIT)
    if mat.shape != (dim, dim):
        raise ValueError(f"operator shape {mat.shape} does not match d**n = {dim}")
    return mat


def tensor_power(a, n: int) -> np.ndarray:
    """n-fold Kronecker power (dense, guarded)."""
    m = np.asarray(a)
    guard_dimension(m.shape[0], n, DENSE_LIMIT)
    return reduce(np.kron, [m] * n) if n > 1 else m.copy()


def product_trace(a, states) -> np.ndarray:
    """tr{A states[..., 0] x ... x states[..., n-1]} for states of shape (..., n, d, d).

    The sites are contracted one at a time, so no d**n product is formed:
    site 0 is one GEMM against A with its site-0 row and column indices
    brought together, and each later site is a batched contraction of the
    intermediate, d**2 times smaller than the one before. The batch runs in
    chunks of d**2 products, so no intermediate is larger than A. The
    result has the batch shape and the common dtype of A and the states.
    """
    st = np.asarray(states)
    if st.ndim < 3 or st.shape[-1] != st.shape[-2]:
        raise ValueError(f"states must have shape (..., n, d, d), got {st.shape}")
    *batch, n, d, _ = st.shape
    mat = dense_operator(a, d, n)
    half = mat.shape[0] // d
    sq = d * d
    # site 0's (row, column) pair first; vecs[b, k] = states[b, k].T flattened
    t = mat.reshape(d, half, d, half).transpose(0, 2, 1, 3).reshape(sq, -1)
    vecs = st.swapaxes(-1, -2).reshape(-1, n, sq)
    out = np.empty(len(vecs), dtype=np.result_type(t, vecs))
    for s in range(0, len(vecs), sq):
        chunk = vecs[s : s + sq]
        c = len(chunk)
        m = chunk[:, 0] @ t
        for k in range(1, n):
            rest = half // d**k
            m = m.reshape(c, d, rest, d, rest).transpose(0, 1, 3, 2, 4).reshape(c, sq, -1)
            m = (chunk[:, k, None, :] @ m)[:, 0]
        out[s : s + c] = m[:, 0]
    return out.reshape(batch)


# ---------------------------------------------------------------------------
# words


def words_of_type(f) -> np.ndarray:
    """All words with letter counts f, shape (m, n), cached per f and read-only.

    Lexicographically sorted for non-increasing f; any other f relabels the
    words of its sorted counts row for row, sharing their blocks.
    """
    return _words_of_type(_freq_counts(f))


@lru_cache(maxsize=256)
def _words_of_type(counts: tuple[int, ...]) -> np.ndarray:
    # slot j of the sorted counts is letter order[j]; ties keep letter order
    order = sorted(range(len(counts)), key=lambda a: -counts[a])
    if order != sorted(order):
        words = np.array(order)[_words_of_type(tuple(counts[a] for a in order))]
        words.flags.writeable = False
        return words
    # the words of c are, letter by letter in order, that letter followed by
    # the words of c less one of it; each sub-count is built once
    built: dict[tuple[int, ...], np.ndarray] = {}

    def words_of(c: tuple[int, ...]) -> np.ndarray:
        if c not in built:
            parts = []
            for letter, k in enumerate(c):
                if k:
                    tail = words_of(c[:letter] + (k - 1,) + c[letter + 1 :])
                    parts.append(np.column_stack([np.full(len(tail), letter), tail]))
            built[c] = np.concatenate(parts) if parts else np.zeros((1, 0), dtype=np.int64)
        return built[c]

    words = words_of(counts)
    words.flags.writeable = False
    return words


def word_codes(words: np.ndarray, d: int) -> np.ndarray:
    """Base-d codes of words; the first letter is most significant."""
    n = words.shape[1]
    powers = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return words @ powers


# ---------------------------------------------------------------------------
# characters


@lru_cache(maxsize=None)
def _mn_character(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    # Murnaghan-Nakayama recursion over border strips, via beta numbers.
    if sum(lam) == 0:
        return 1
    k = mu[0]
    rest = mu[1:]
    rows = len(lam)
    beta = [lam[i] + (rows - 1 - i) for i in range(rows)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - k
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        new_beta = sorted((c for c in beta if c != b), reverse=True)
        new_beta.append(nb)
        new_beta.sort(reverse=True)
        rows2 = len(new_beta)
        new_lam = tuple(new_beta[i] - (rows2 - 1 - i) for i in range(rows2))
        new_lam = tuple(x for x in new_lam if x > 0)
        total += (-1) ** height * _mn_character(new_lam, rest)
    return total


def character(lam, mu) -> int:
    """Irreducible S_n character chi_lam at cycle type mu (exact integer)."""
    mu_p = _frame_parts(mu)
    lam_p = _frame_parts(lam, sum(mu_p))
    return _mn_character(lam_p, tuple(sorted(mu_p, reverse=True)))


def kcycle_class_size(n: int, k: int) -> int:
    """Number of k-cycles in S_n."""
    return math.factorial(n) // (math.factorial(n - k) * k)


def central_character(lam, n: int, k: int) -> int:
    """Scalar by which the k-cycle class sum acts on the lam component; lam partitions n."""
    lam_p = _frame_parts(lam, n)
    mu = tuple([k] + [1] * (n - k))
    value = Fraction(
        kcycle_class_size(n, k) * _mn_character(lam_p, mu), hook_dimension(lam_p)
    )
    if value.denominator != 1:
        raise ArithmeticError(f"central character not integral for {lam_p}, k={k}")
    return int(value)


# ---------------------------------------------------------------------------
# class sums and frame blocks


def _k_cycles(n: int, k: int):
    """All k-cycles of S_n as image tuples."""
    for support in itertools.combinations(range(n), k):
        first = support[0]
        for order in itertools.permutations(support[1:]):
            cycle = (first,) + order
            perm = list(range(n))
            for idx in range(k):
                perm[cycle[idx]] = cycle[(idx + 1) % k]
            yield tuple(perm)


def class_sum_on_words(words: np.ndarray, d: int, k: int) -> np.ndarray:
    """The k-cycle class sum on a block of sorted, distinct words (non-increasing f).

    Dense m x m; `frequency_blocks` works on the S_f-orbits instead, and
    this stays as the oracle it is checked against.
    """
    m, n = words.shape
    codes = word_codes(words, d)
    if np.any(np.diff(codes) <= 0):
        raise ValueError("words must be sorted and distinct")
    z = np.zeros((m, m))
    cols = np.arange(m)
    for perm in _k_cycles(n, k):
        inv = np.empty(n, dtype=np.int64)
        for i, p in enumerate(perm):
            inv[p] = i
        new_codes = word_codes(words[:, inv], d)
        pos = np.searchsorted(codes, new_codes)
        z[pos, cols] += 1.0
    return z


_CYCLE_WEIGHT = math.pi / 7.0


def frequency_blocks(f) -> dict[tuple[int, ...], np.ndarray]:
    """All frame-component projectors on the word block of frequency f.

    The candidate frames are those dominating f. With 2..K the fewest
    cycle lengths whose central characters chi_k tell the candidates
    apart, the lam component is the eigenspace of
    sum_k (pi/7)**(k-2) Z_k for the value sum_k (pi/7)**(k-2) chi_k(lam).

    The block is the permutation module of the Young subgroup S_f, the
    stabiliser of the sorted word w0, and splits as sum_lam K_lam,f S^lam
    (Young's rule). An S_n-invariant operator is fixed by its entries
    against w0, one per S_f-orbit of words, so the class sums are taken
    on the r = sum_lam K_lam,f**2 orbits only (`_word_orbits`), where the
    lam eigenspace has dimension K_lam,f**2. One r x r eigh yields every
    projector: entry [w, w'] is the (w0, v) entry for the orbit of v whose
    letter-pair count table against w0 equals that of (w, w'). Each
    eigenvector goes to the nearest target value; ArithmeticError is
    raised when the characters do not separate the frames, when an
    eigenvalue lies more than a quarter of the smallest target gap from
    its target, or when frame lam does not own K_lam,f**2 eigenvalues.

    Returns a dict mapping frame parts to the projector matrix in the
    word basis of `words_of_type(f)` (real symmetric, size |T_f|,
    read-only). Only non-increasing f are built; any reordering returns the
    same dict. Results are cached per f in a bounded cache; the dict is
    shared between callers and must not be modified.
    """
    return _frequency_blocks(_freq_counts(f))


def _word_orbits(words: np.ndarray, counts: tuple[int, ...]):
    """S_f-orbits of the sorted words of non-increasing counts f.

    A pair of words (w, w') is keyed by its letter-pair count table
    N[x, y] = #{i : w_i = x, w'_i = y}, whose margins are both f, so the
    entries with x, y below the last letter in use fix it. They are read
    in mixed radix f_x + 1 as one GEMM of place values against one-hot
    letters. The S_f-orbit of v is the key of (w0, v), w0 = words[0].

    Returns (orbit_of, pair_orbit, reps, sizes), orbits numbered in key
    order: orbit_of(v) is the orbit of words v of shape (..., n),
    pair_orbit[w, w'] the orbit whose key is that of (w, w'), reps one word
    per orbit and sizes the orbit sizes. Both search the r sorted orbit keys.
    """
    m, n = words.shape
    inner = sum(c > 0 for c in counts) - 1
    radix = np.repeat(np.asarray(counts[:inner], dtype=np.int64) + 1, inner)
    places = np.cumprod(np.r_[1, radix])
    place = np.zeros((inner + 1, inner + 1))
    place[:inner, :inner] = places[:-1].reshape(inner, inner)
    a = place[words[:, :, None], np.arange(inner)].reshape(m, -1)
    b = (words[:, :, None] == np.arange(inner)).reshape(m, -1).astype(float)
    codes = (a @ b.T).astype(np.intp)  # exact: keys are below places[-1] <= 2**25 here
    keys, first, sizes = np.unique(codes[0], return_index=True, return_counts=True)
    pair_orbit = np.searchsorted(keys, codes)
    row = place[words[0]]

    def orbit_of(v: np.ndarray) -> np.ndarray:
        return np.searchsorted(keys, row[np.arange(n), v].sum(axis=-1).astype(np.intp))

    return orbit_of, pair_orbit, words[first], sizes


@lru_cache(maxsize=256)
def _frequency_blocks(counts: tuple[int, ...]) -> dict[tuple[int, ...], np.ndarray]:
    d = len(counts)
    n = sum(counts)
    guard_dimension(d, n)
    m = type_class_size(counts)
    if m > DENSE_LIMIT:
        raise SizeGuardError(
            f"word block of f = {counts} has {m} words, above the dense guard of {DENSE_LIMIT}"
        )
    if (canon := tuple(sorted(counts, reverse=True))) != counts:
        return _frequency_blocks(canon)
    words = words_of_type(counts)
    candidates = [lam for lam in enumerate_frames(d, n) if _dominates(counts, lam)]
    chars = [()] * len(candidates)
    k = 1
    while len(set(chars)) < len(candidates):
        k += 1
        if k > n:
            raise ArithmeticError("cycle class sums failed to separate frames")
        chars = [
            c + (central_character(lam, n, k),) for c, lam in zip(chars, candidates)
        ]
    weights = _CYCLE_WEIGHT ** np.arange(k - 1)
    targets = np.asarray(chars, dtype=float) @ weights
    orbit_of, pair_orbit, reps, sizes = _word_orbits(words, counts)
    r = len(sizes)
    # hits[O, O'] = sum_k w_k #{k-cycles pi : pi . v_O in O'}; a class holds the
    # inverse of each of its cycles, so reading the images as pi**-1 . v_O counts the same
    hits = np.zeros(r * r)
    for j, w in enumerate(weights, start=2):
        images = orbit_of(reps[:, np.array(list(_k_cycles(n, j)))])
        hits += w * np.bincount((np.arange(r)[:, None] * r + images).ravel(), minlength=r * r)
    # the mixed class sum in the orthonormal orbit-sum basis
    root = np.sqrt(sizes)
    vals, vecs = np.linalg.eigh(hits.reshape(r, r) * root[:, None] / root[None, :])
    owner = np.abs(vals[:, None] - targets[None, :]).argmin(axis=1)
    gap = np.diff(np.sort(targets)).min(initial=np.inf)
    if np.abs(vals - targets[owner]).max() > gap / 4.0:
        raise ArithmeticError("class-sum eigenvalues do not match the frame targets")
    owned = np.bincount(owner, minlength=len(candidates))
    if owned.tolist() != [kostka(counts, lam) ** 2 for lam in candidates]:
        raise ArithmeticError("frames do not own K_lam,f**2 orbit eigenvalues each")
    o0 = orbit_of(words[0])
    # row i: the (w0, v) entries of frame i's projector, one per orbit of v;
    # one gather reads every block, and the dict values are its slices
    table = np.empty((len(candidates), r))
    for i in range(len(candidates)):
        sel = vecs[:, owner == i]
        table[i] = (sel @ sel[o0]) / root
    stack = np.take(table, pair_orbit, axis=1)
    stack.flags.writeable = False
    return dict(zip(candidates, stack))


def dense_from_blocks(pieces, d: int, n: int, basis=None) -> np.ndarray:
    """Dense d**n operator assembled from (f, block) word-block pieces.

    Each block lands on the rows and columns of the words with letter
    counts f; pieces sharing an f add up. With a basis, the sum is rotated
    out of it by basis^(x n), and the result is returned real when its
    imaginary part is below 1e-15. Only the columns of basis^(x n) at the
    placed words enter the rotation.
    """
    dim = guard_dimension(d, n, DENSE_LIMIT)
    out = np.zeros((dim, dim))
    used = np.zeros(dim, dtype=bool)
    for f, block in pieces:
        codes = word_codes(words_of_type(f), d)
        out[np.ix_(codes, codes)] += block
        used[codes] = True
    if basis is None:
        return out
    b = assert_basis(basis)
    if np.allclose(b, np.eye(d), atol=1e-14):
        return out
    t = tensor_power(b, n)[:, used]
    out = t @ out[np.ix_(used, used)] @ t.conj().T
    if np.abs(out.imag).max() < 1e-15:
        out = out.real
    return out


def block_projector(f, lam, basis=None) -> np.ndarray:
    """Dense projector onto the lam component of the frequency-f word block.

    With a basis, the word block is rotated out of it (`dense_from_blocks`).
    Vanishing Kostka number gives the zero matrix.
    """
    counts = _freq_counts(f)
    lam_p = _frame_parts(lam, sum(counts), len(counts))
    block = frequency_blocks(counts).get(lam_p)
    pieces = [] if block is None else [(counts, block)]
    return dense_from_blocks(pieces, len(counts), sum(counts), basis)


def isotypical_projector(lam, d: int, n: int) -> np.ndarray:
    """Central projector onto the frame-lam component, lam partitioning n in at most d rows.

    Independent of any basis choice; assembled from the word blocks of the
    computational basis.
    """
    lam_p = _frame_parts(lam, n, d)
    pieces = (
        (f, block)
        for f in enumerate_frequencies(d, n)
        if (block := frequency_blocks(f).get(lam_p)) is not None
    )
    return dense_from_blocks(pieces, d, n)


def completeness_check(d: int, n: int) -> float:
    """Norm of (sum of all frequency/frame projectors) minus the identity.

    Works block by block: distinct frequencies occupy disjoint word
    coordinates, so the deviation is block diagonal and its spectral norm
    is the max over blocks.
    """
    guard_dimension(d, n)
    worst = 0.0
    for f in enumerate_frequencies(d, n):
        blocks = frequency_blocks(f)
        m = words_of_type(f).shape[0]
        total = np.zeros((m, m))
        for block in blocks.values():
            total += block
        worst = max(worst, float(np.abs(np.linalg.eigvalsh(total - np.eye(m))).max()))
    return worst


def block_weight(f, lam, states, basis=None) -> float:
    """tr of the (f, lam) projector against a product of single-site states.

    `states` is one state rho, used on every site, or a length-n sequence,
    taken in `basis` when one is given. One state gives the nonnegative sum
    d_lam sum_{wt T = f} pi_lam(rho)[T, T] on the Gelfand-Tsetlin irrep, with
    no word block or d**n guard; a sequence is restricted to the word block
    of f (`word_block_state`). Zero unless |f| = |lam| and lam dominates f;
    ValueError unless f has d letters, d that of the states.

    One state reads cell f[:-1] of the log weight-mass table of (lam, rho')
    (`_weight_masses`), shared by every f of the frame, as the exp of
    ln(d_lam tr{Pi_f pi_lam(rho')}): finite where d_lam is past the float
    range, with no underflow before the mass's own. At d >= 3 a tiny weight
    of a non-diagonal rho' is accurate only to about eps**2 times the
    frame's largest weight, in absolute terms (see `_weight_masses`); at
    d = 2 each weight is accurate relative to itself.
    """
    rho = np.asarray(states, dtype=complex)
    counts = _freq_counts(f, d=rho.shape[-1])
    lam_p = _frame_parts(lam)
    if sum(counts) != sum(lam_p) or not _dominates(counts, lam_p):
        return 0.0
    if rho.ndim == 2:
        d = len(counts)
        if basis is not None:
            b = assert_basis(basis)
            rho = b.conj().T @ rho @ b
        logs = _weight_masses(lam_p, d, np.ascontiguousarray(rho).tobytes())
        return math.exp(logs[counts[:-1]])
    prod = word_block_state(counts, states, basis)
    return float(np.einsum("ab,ba->", frequency_blocks(counts)[lam_p], prod).real)


def word_block_state(f, states, basis=None) -> np.ndarray:
    """A product of site states restricted to the word block of f.

    Entry [a, b] is prod_i states[i][w_a[i], w_b[i]] over the words
    w = words_of_type(f), with the states taken in `basis` when one is
    given. `states` is a length-n sequence of d x d states; ValueError
    unless f has d letters summing to n.
    """
    sts = np.asarray(states, dtype=complex)
    if sts.ndim != 3:
        raise ValueError("states must be a length-n sequence")
    counts = _freq_counts(f, len(sts), sts.shape[-1])
    if basis is not None:
        b = assert_basis(basis)
        sts = [b.conj().T @ s @ b for s in sts]
    words = words_of_type(counts)
    m = words.shape[0]
    prod = np.ones((m, m), dtype=complex)
    for i, s in enumerate(sts):
        col = words[:, i]
        prod *= s[col[:, None], col[None, :]]
    return prod


# ---------------------------------------------------------------------------
# U(d) irreps in the Gelfand-Tsetlin basis
#
# By Schur-Weyl duality X^(x n) acts on the lam component as
# pi_lam(X) (x) 1_{d_lam}, d_lam = hook_dimension(lam), and the words of
# letter counts f span the weight-f vectors of pi_lam. The irreps are
# built in the orthonormal Gelfand-Tsetlin basis (Molev, arXiv:math/0211289),
# a weight basis adapted to U(1) < U(2) < ... < U(d), so neither the d**n
# space nor a word block is needed.


def _gt_patterns(lam: tuple[int, ...], d: int) -> np.ndarray:
    """Gelfand-Tsetlin patterns under lam, shape (dim, d (d + 1) / 2).

    Row k (k = 1..d) has k entries, stored from column k (k - 1) / 2 on;
    row d is lam padded with zeros, and entry i of row k - 1 lies between
    entries i + 1 and i of row k. The patterns are enumerated row by row
    from row d - 1 down, so those sharing row d - 1 are contiguous and in
    the order of the patterns of U(d - 1) under that row. Row 1 ranges over
    one interval below each choice of rows 2..d, written as one block.
    """
    rows = [lam + (0,) * (d - len(lam))]
    if d == 1:
        return np.array([rows[0]], dtype=np.int64)
    out: list[np.ndarray] = []

    def rec(above: tuple[int, ...]):
        if len(above) == 2:
            block = np.empty((above[0] - above[1] + 1, d * (d + 1) // 2), dtype=np.int64)
            block[:, 0] = np.arange(above[1], above[0] + 1)
            block[:, 1:] = [x for row in reversed(rows) for x in row]
            out.append(block)
            return
        for row in _interlacing_rows(above):
            rows.append(row)
            rec(row)
            rows.pop()

    rec(rows[0])
    return np.concatenate(out)


def _gt_row(patterns: np.ndarray, k: int) -> np.ndarray:
    """Row k (1-based) of every pattern."""
    return patterns[:, k * (k - 1) // 2 : k * (k + 1) // 2]


def _gt_weights(patterns: np.ndarray, d: int) -> np.ndarray:
    """Weight of each pattern: (sum of row k) - (sum of row k - 1)."""
    sums = [_gt_row(patterns, k).sum(axis=1) for k in range(d + 1)]
    return np.stack([sums[k] - sums[k - 1] for k in range(1, d + 1)], axis=1)


def weyl_dimension(lam, d: int) -> int:
    """Dimension of the U(d) irrep of highest weight lam (Weyl's formula)."""
    parts = _frame_parts(lam)
    if len(parts) > d:
        return 0
    lp = parts + (0,) * (d - len(parts))
    num = den = 1
    for i in range(d):
        for j in range(i + 1, d):
            num *= lp[i] - lp[j] + j - i
            den *= j - i
    return num // den


def gt_weights(lam, d: int) -> np.ndarray:
    """Weights (letter counts) of the Gelfand-Tsetlin basis of pi_lam, (dim, d).

    Read-only and cached per (lam, d); SizeGuardError above GUARD_LIMIT
    patterns.
    """
    return _gt_table(_frame_parts(lam, d=d), int(d))[1]


@lru_cache(maxsize=512)
def _gt_table(lam: tuple[int, ...], d: int) -> tuple[np.ndarray, np.ndarray]:
    """(patterns, weights) of pi_lam, read-only: the one enumeration per (lam, d)."""
    dim = weyl_dimension(lam, d)
    if dim > GUARD_LIMIT:
        raise SizeGuardError(
            f"U({d}) irrep lam = {lam} has dimension {dim}, above the guard of {GUARD_LIMIT}"
        )
    patterns = _gt_patterns(lam, d)
    weights = _gt_weights(patterns, d)
    patterns.flags.writeable = weights.flags.writeable = False
    return patterns, weights


def schur_polynomial(lam, r) -> float:
    """s_lam(r) = sum over Gelfand-Tsetlin patterns T of r**wt(T), 0**0 = 1.

    Every term is nonnegative for r >= 0, so nothing cancels.
    """
    r = np.asarray(r, dtype=float)
    return float(_weight_powers(gt_weights(lam, r.shape[0]), r).sum())


def _weight_powers(weights: np.ndarray, r: np.ndarray) -> np.ndarray:
    return np.prod(np.power(np.clip(r, 0.0, None)[None, :], weights), axis=1)


def _log_weight_powers(weights: np.ndarray, r: np.ndarray) -> np.ndarray:
    """ln of `_weight_powers`: r clipped at 0, 0**0 = 1 and ln 0 = -inf."""
    pos = r > 0
    out = weights[:, pos] @ np.log(r[pos])
    out[(weights[:, ~pos] > 0).any(axis=1)] = -np.inf
    return out


def _cosets(v: np.ndarray) -> tuple[np.ndarray, float, float, np.ndarray]:
    """v = K1 R K2 with K1 = diag(k1, e^{i gamma}), K2 = diag(k2, 1) in U(d-1) x U(1).

    R = exp(theta (e_ab - e_ba)), a = d - 2, b = d - 1, rotates the last
    two letters: R e_b = sin(theta) e_a + cos(theta) e_b. K1 R e_b is the
    last column of v, and K2 = R^-1 K1^-1 v then fixes e_b. Returns
    (k1, gamma, theta, k2).
    """
    d = v.shape[0]
    x = v[:, -1]
    s = float(np.linalg.norm(x[:-1]))
    theta = math.atan2(s, abs(x[-1]))
    gamma = float(np.angle(x[-1]))
    k1 = np.eye(d - 1, dtype=complex)
    if s > 0:
        q, r = np.linalg.qr(np.column_stack([x[:-1] / s, k1]))
        q[:, 0] *= r[0, 0]  # the first column is x[:-1] / s itself
        k1 = np.roll(q, -1, axis=1)
    big_k1 = np.zeros((d, d), dtype=complex)
    big_k1[:-1, :-1] = k1
    big_k1[-1, -1] = np.exp(1j * gamma)
    rot = np.eye(d)
    rot[-2:, -2:] = [[math.cos(theta), math.sin(theta)], [-math.sin(theta), math.cos(theta)]]
    k2 = rot.T @ big_k1.conj().T @ v
    return k1, gamma, theta, k2[:-1, :-1]


@dataclass(frozen=True, eq=False)
class GTIrrep:
    """The U(d) irrep pi_lam in the orthonormal Gelfand-Tsetlin basis.

    `weights[T]` is the weight of pattern T, so E_kk acts as
    diag(weights[:, k]). `raising[k]` holds the nonzero entries
    (rows, cols, vals) of E_{k,k+1} (0-based), real in this basis;
    E_{k+1,k} is its transpose and E_ij, j > i + 1, follows from
    [E_{i,j-1}, E_{j-1,j}].

    At d = 2, pi_lam(V) is the closed form in J = lam_1 - lam_2
    (`_u2_unitary`), and the two block fields are empty. At d >= 3,
    pi_lam(V) is taken from V = K1 R K2 (`_cosets`). pi_lam of
    K = diag(k, e^{i gamma}) in U(d - 1) x U(1) is block diagonal over
    row d - 1 (`sub_blocks`: the U(d - 1) irrep mu and its slice of
    patterns), pi_mu(k) e^{i gamma (|lam| - |mu|)}.
    R = exp(theta (e_ab - e_ba)) moves row d - 1 only, so exp(theta G),
    G = E_ab - E_ba, is block diagonal over rows 1..d - 2
    (`rotation_blocks`: the patterns of a block and the eigendecomposition
    (vecs, omega) of i G on it).
    """

    lam: tuple[int, ...]
    weights: np.ndarray
    raising: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]
    sub_blocks: tuple[tuple[tuple[int, ...], slice], ...]
    rotation_blocks: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]

    @property
    def d(self) -> int:
        return self.weights.shape[1]

    @property
    def dim(self) -> int:
        return self.weights.shape[0]

    def generator(self, i: int, j: int) -> np.ndarray:
        """Dense dpi_lam(e_ij) for |i - j| <= 1, letters 0-based."""
        out = np.zeros((self.dim, self.dim))
        if i == j:
            out[np.diag_indices(self.dim)] = self.weights[:, i]
            return out
        if abs(i - j) != 1:
            raise ValueError("only E_kk, E_{k,k+1} and E_{k+1,k} are stored")
        rows, cols, vals = self.raising[min(i, j)]
        out[rows, cols] = vals
        return out if i < j else out.T

    def unitary(self, v) -> np.ndarray:
        """pi_lam(V) for a d x d unitary V."""
        v = np.asarray(v, dtype=complex)
        if self.d == 1:
            return np.full((1, 1), v[0, 0] ** sum(self.lam))
        if self.d == 2:
            return _u2_unitary(self.lam, v)
        k1, gamma, theta, k2 = _cosets(v)
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for idx, vecs, omega in self.rotation_blocks:
            out[np.ix_(idx, idx)] = (vecs * np.exp(-1j * theta * omega)) @ vecs.conj().T
        n = sum(self.lam)
        keys = k1.tobytes(), k2.tobytes()
        for mu, sl in self.sub_blocks:
            left, right = (_sub_unitary(mu, self.d - 1, key) for key in keys)
            out[:, sl] = out[:, sl] @ right
            out[sl, :] = np.exp(1j * gamma * (n - sum(mu))) * (left @ out[sl, :])
        return out

    def matrix(self, x) -> np.ndarray:
        """pi_lam(X) = pi_lam(V) diag(r**wt) pi_lam(V)^dag for X = V diag(r) V^dag >= 0.

        A diagonal X needs no eigh: the Gelfand-Tsetlin basis is a weight
        basis, so pi_lam(X) = diag(x**wt).
        """
        x = np.asarray(x, dtype=complex)
        if _is_diagonal(x):
            return np.diag(_weight_powers(self.weights, np.diagonal(x).real))
        r, v = np.linalg.eigh(x)
        p = self.unitary(v)
        return (p * _weight_powers(self.weights, r)) @ p.conj().T


def _is_diagonal(x: np.ndarray) -> bool:
    return not np.any(x - np.diag(np.diagonal(x)))


# ---------------------------------------------------------------------------
# U(2) in closed form
#
# The U(2) irrep mu = (mu_1, mu_2) is det**mu_2 times the spin J/2 irrep,
# J = mu_1 - mu_2, on the Gelfand-Tsetlin rows a = 0..J of weight
# (mu_2 + a, mu_1 - a). E_01 raises row a by sqrt((J - a)(a + 1)), so the
# rotation generator, and with it the Wigner-d matrix, depends on J alone.


@lru_cache(maxsize=256)
def _u2_rotation(j: int) -> tuple[np.ndarray, np.ndarray]:
    """(vecs, omega), the eigendecomposition of i(E_01 - E_10) on spin j/2, read-only."""
    a = np.arange(j)
    gen = np.zeros((j + 1, j + 1))
    gen[a + 1, a] = np.sqrt(((j - a) * (a + 1)).astype(float))
    gen -= gen.T
    omega, vecs = np.linalg.eigh(1j * gen)
    vecs.flags.writeable = omega.flags.writeable = False
    return vecs, omega


@lru_cache(maxsize=64)
def _u2_cosets(key: bytes) -> tuple[complex, float, float, complex]:
    """(k1, gamma, theta, k2) of `_cosets` for a 2 x 2 unitary given by its bytes.

    Every U(2) irrep of one V, a sub-block of each frame, shares them.
    """
    k1, gamma, theta, k2 = _cosets(np.frombuffer(key, dtype=complex).reshape(2, 2))
    return k1[0, 0], gamma, theta, k2[0, 0]


def _u2_unitary(mu: tuple[int, ...], v: np.ndarray) -> np.ndarray:
    """pi_mu(V) of U(2), rows in Gelfand-Tsetlin order, with no pattern or irrep build.

    With V = diag(k1, e^{i gamma}) R(theta) diag(k2, 1) (`_cosets`), row
    a of weight (w0, w1) carries the phases k1**w0 e^{i gamma w1} on the
    left and k2**w0 on the right of the Wigner-d matrix
    exp(-i theta (vecs omega vecs^dag)) of `_u2_rotation`; together they
    are det(V)**mu_2 D**(J/2)(V).
    """
    top = mu[0] if mu else 0
    low = mu[1] if len(mu) > 1 else 0
    k1, gamma, theta, k2 = _u2_cosets(np.ascontiguousarray(v, dtype=complex).tobytes())
    vecs, omega = _u2_rotation(top - low)
    w0 = low + np.arange(top - low + 1)
    rot = (vecs * np.exp(-1j * theta * omega)) @ vecs.conj().T
    left = k1**w0 * np.exp(1j * gamma * (top + low - w0))
    return left[:, None] * rot * (k2**w0)[None, :]


_U2_ROWS = 256  # rows of the log-term triangle per step of `_u2_log_diagonal`


def _u2_log_diagonal(lam: tuple[int, ...], x: np.ndarray) -> np.ndarray:
    """ln pi_lam(X)[T, T] of U(2) for X >= 0, rows in Gelfand-Tsetlin order.

    For lam = (n - k, k), J = n - 2k and row a, of weight (k + a, n - k - a),
    with A = X_00, D = X_11 and E = |X_01|**2 it is
        det(X)**k sum_i C(a, i) C(J - a, i) A**(a - i) D**(J - a - i) E**i
        = det(X)**k A**a D**(J - a) T_a(E / (A D)),
    a sum of nonnegative terms (the diagonal of det**k Sym^J(X)); no eigh
    and no pattern is used. A diagonal X gives wt . ln x. Otherwise
    T_a(q) = sum_i C(a, i) C(J - a, i) q**i = T_{J-a}(q) is summed in logs
    for a <= J / 2, so no term overflows or underflows, on a triangle of
    _U2_ROWS rows at a time. The log binomials are taken in numpy's long
    double, since the log factorials they cancel from are ~J ln J large;
    each entry is then accurate to a few eps times its log, relative to
    itself. A vanishing entry is -inf.
    """
    top = lam[0] if lam else 0
    k = lam[1] if len(lam) > 1 else 0
    j = top - k
    rows = np.arange(j + 1)
    a00, a11 = float(x[0, 0].real), float(x[1, 1].real)
    e = float(abs(x[0, 1])) ** 2
    if e == 0.0 or a00 <= 0.0 or a11 <= 0.0:
        # X_01 = 0 whenever X >= 0 has a vanishing diagonal entry
        return _log_weight_powers(np.column_stack([k + rows, top - rows]), np.array([a00, a11]))
    det = a00 * a11 - e
    if k and det <= 0.0:
        return np.full(j + 1, -np.inf)
    lf = log_factorials(j)
    log_q = math.log(e) - math.log(a00) - math.log(a11)
    half = j // 2
    log_t = np.empty(half + 1)
    for start in range(0, half + 1, _U2_ROWS):
        a = np.arange(start, min(start + _U2_ROWS, half + 1))[:, None]
        i = np.arange(a[-1, 0] + 1)[None, :]
        live = i <= a
        ai, bi = np.where(live, a - i, 0), np.where(live, j - a - i, 0)
        terms = (lf[a] + lf[j - a] - lf[ai] - lf[bi] - 2 * lf[i]).astype(float) + i * log_q
        terms[~live] = -np.inf
        peak = terms.max(axis=1)
        log_t[start : start + len(a)] = peak + np.log(np.exp(terms - peak[:, None]).sum(axis=1))
    out = np.concatenate([log_t, log_t[: j - half][::-1]])
    out += rows * math.log(a00) + (j - rows) * math.log(a11)
    if k:
        out += k * math.log(det)
    return out


@lru_cache(maxsize=512)
def _sub_unitary(mu: tuple[int, ...], d: int, key: bytes) -> np.ndarray:
    """pi_mu(k) of U(d), k given by its bytes.

    Every frame lam of one state V meets the same k, so each mu is built
    once per state; U(2) takes the closed form.
    """
    k = np.frombuffer(key, dtype=complex).reshape(d, d)
    out = _u2_unitary(mu, k) if d == 2 else _gt_irrep(mu, d).unitary(k)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=512)
def _weight_masses(lam: tuple[int, ...], d: int, key: bytes) -> np.ndarray:
    """The log weight-mass table of frame lam and X >= 0, X given by its bytes.

    Cell f[:-1] of this read-only array, of shape (lam_1 + 1,)**(d - 1), is
    ln(d_lam tr{Pi_f pi_lam(X)}) for a weight f of lam: ln d_lam
    (`log_hook_dimension`) plus a log-sum-exp of ln pi_lam(X)[T, T] over
    the Gelfand-Tsetlin rows T of weight f, so no mass underflows or
    overflows. Every other cell, and a vanishing mass, reads -inf. This is
    the one reader of the diagonal of pi_lam(X). At d = 2 row a, the one
    row of weight (lam_2 + a, lam_1 - a), fills cell lam_2 + a from the
    closed form (`_u2_log_diagonal`), with no pattern built; each mass is
    accurate relative to itself. At d >= 3 the row logs are wt . ln x for
    a diagonal X, with no eigh. Otherwise, from one eigh X = V diag(r) V^dag,
    row T is ln sum_T' |pi_lam(V)[T, T']|**2 (r / r_max)**wt(T') plus
    n ln r_max (pi_lam is homogeneous of degree n), a sum of nonnegative
    terms; the entries of pi_lam(V) carry about eps of absolute noise, so a
    tiny mass is accurate only to about eps**2 times the frame's largest,
    in absolute terms.

    A frame's total mass d_lam s_lam(spec X) does not depend on the basis,
    so it is the sum of the table of diag(spec X), which takes the
    diagonal branch.
    """
    x = np.frombuffer(key, dtype=complex).reshape(d, d)
    top = lam[0] if lam else 0
    out = np.full((top + 1,) * (d - 1), -np.inf)
    if d == 2:
        out[sum(lam[1:]) :] = log_hook_dimension(lam) + _u2_log_diagonal(lam, x)
    else:
        weights = gt_weights(lam, d)
        if _is_diagonal(x):
            logs = _log_weight_powers(weights, np.diagonal(x).real)
        else:
            r, v = np.linalg.eigh(x)
            powers = _weight_powers(weights, r / r[-1])
            scaled = (np.abs(_gt_irrep(lam, d).unitary(v)) ** 2) @ powers
            with np.errstate(divide="ignore"):
                logs = np.log(scaled) + sum(lam) * math.log(r[-1])
        # the C-order cell of f[:-1]; at d = 1 every row sits in the one cell
        cells = weights[:, :-1] @ (top + 1) ** np.arange(d - 2, -1, -1)
        peak = np.full(out.size, -np.inf)
        np.maximum.at(peak, cells, logs)
        shift = np.where(peak > -np.inf, peak, 0.0)
        sums = np.bincount(cells, weights=np.exp(logs - shift[cells]), minlength=peak.size)
        with np.errstate(divide="ignore"):
            out = (log_hook_dimension(lam) + shift + np.log(sums)).reshape(out.shape)
    out.flags.writeable = False
    return out


def _clear_irrep_caches() -> None:
    """Empty every cache of computed irrep values and weight tables, so that they are recomputed."""
    for cached in (_gt_irrep, _u2_rotation, _u2_cosets, _sub_unitary, _weight_masses):
        cached.cache_clear()


def gt_irrep(lam, d: int) -> GTIrrep:
    """The U(d) irrep of highest weight lam, cached per (lam, d).

    Raises SizeGuardError when its dimension is above DENSE_LIMIT, since
    pi_lam(V) is dense.
    """
    return _gt_irrep(_frame_parts(lam, d=d), int(d))


@lru_cache(maxsize=256)
def _gt_irrep(lam: tuple[int, ...], d: int) -> GTIrrep:
    dim = weyl_dimension(lam, d)
    if dim > DENSE_LIMIT:
        raise SizeGuardError(
            f"U({d}) irrep lam = {lam} has dimension {dim}, above the dense guard of {DENSE_LIMIT}"
        )
    pat, weights = _gt_table(lam, d)
    index = {p: t for t, p in enumerate(map(tuple, pat.tolist()))}
    # E_{k,k+1} (1-based k) raises entry i of row k; with l_kj = m_kj - j,
    # its coefficient is the square root of
    # -prod_j (l_ki - l_{k+1,j}) prod_j (l_ki - l_{k-1,j} + 1)
    #   / prod_{j != i} (l_ki - l_kj) (l_ki - l_kj + 1)
    raising = []
    for k in range(1, d):
        l_rows = {j: _gt_row(pat, j) - np.arange(1, j + 1) for j in (k - 1, k, k + 1)}
        parts = []
        for i in range(k):
            ok = _gt_row(pat, k)[:, i] < _gt_row(pat, k + 1)[:, i]
            if i:
                ok &= _gt_row(pat, k)[:, i] < _gt_row(pat, k - 1)[:, i - 1]
            src = np.nonzero(ok)[0]
            li = l_rows[k][src, i][:, None].astype(float)
            num = -np.prod(li - l_rows[k + 1][src], axis=1)
            num *= np.prod(li - l_rows[k - 1][src] + 1, axis=1)
            others = np.delete(l_rows[k][src], i, axis=1)
            den = np.prod((li - others) * (li - others + 1), axis=1)
            moved = pat[src].copy()
            moved[:, k * (k - 1) // 2 + i] += 1
            dst = np.array([index[p] for p in map(tuple, moved.tolist())], dtype=np.int64)
            parts.append((dst, src, np.sqrt(num / den)))
        raising.append(tuple(np.concatenate(a) for a in zip(*parts)))
    sub_blocks, rotation_blocks = [], []
    if d > 2:
        starts = np.flatnonzero(np.any(np.diff(_gt_row(pat, d - 1), axis=0) != 0, axis=1)) + 1
        bounds = [0, *starts.tolist(), dim]
        for a, b in zip(bounds[:-1], bounds[1:]):
            mu = _frame_parts(tuple(_gt_row(pat, d - 1)[a].tolist()))
            sub_blocks.append((mu, slice(a, b)))
        rows, cols, vals = raising[d - 2]
        gen = np.zeros((dim, dim))
        gen[rows, cols] = vals
        gen -= gen.T
        groups: dict[tuple[int, ...], list[int]] = {}
        for t, key in enumerate(map(tuple, pat[:, : (d - 2) * (d - 1) // 2].tolist())):
            groups.setdefault(key, []).append(t)
        for members in groups.values():
            idx = np.array(members, dtype=np.int64)
            omega, vecs = np.linalg.eigh(1j * gen[np.ix_(idx, idx)])
            rotation_blocks.append((idx, vecs, omega))
    arrays = [*(a for r in raising for a in r), *(a for b in rotation_blocks for a in b)]
    for arr in arrays:
        arr.flags.writeable = False
    return GTIrrep(
        lam=lam,
        weights=weights,
        raising=tuple(raising),
        sub_blocks=tuple(sub_blocks),
        rotation_blocks=tuple(rotation_blocks),
    )


def spectral_estimate_check(lam, rho, n: int) -> tuple[float, float]:
    """(tr{P_lam rho^n}, (2n)**(d*d) * 2**(-n D(lam_norm || spec rho))).

    The left side is d_lam s_lam(spec rho) (Keyl-Werner): the sum of the
    weight-mass table of diag(spec rho) (`_weight_masses`), so no d**n space
    is formed and no eigh beyond the spectrum's is run, and each mass is the
    exp of its log, finite where d_lam is past the float range. The right
    side uses the convention 2**(-inf) = 0. ValueError unless lam
    partitions n in at most d rows.
    """
    rho_m = assert_state(rho)
    d = rho_m.shape[0]
    lam_p = _frame_parts(lam, n, d)
    spec = spectrum(rho_m)
    lhs = float(np.exp(_weight_masses(lam_p, d, np.diag(spec).astype(complex).tobytes())).sum())
    lam_norm = np.asarray(lam_p + (0,) * (d - len(lam_p)), dtype=float) / n
    div = relative_entropy(lam_norm, spec)
    rhs = (2.0 * n) ** (d * d) * 2.0 ** (-n * div)
    return lhs, rhs


def invariance_defect(a, d: int, n: int) -> float:
    """Largest entry of U_pi A U_pi^dag - A over the generators of S_n.

    S_n is generated by (0 1) and (0 1 ... n-1), so the defect is zero
    exactly when A commutes with every site permutation. Conjugation only
    moves entries, so a defect delta bounds the defect under any pi by
    l(pi) delta, l(pi) its word length in the two generators. Each
    conjugation is an axis transpose; n = 2 has one generator, n = 1 none.
    """
    work = dense_operator(a, d, n).reshape((d,) * (2 * n))
    gens = {(1, 0, *range(2, n)), (*range(1, n), 0)} if n > 1 else set()
    worst = 0.0
    for p in gens:
        # axis i of the conjugate is axis p[i] of A, on rows and on columns
        conj = work.transpose(p + tuple(n + i for i in p))
        worst = max(worst, float(np.abs(conj - work).max()))
    return worst


def require_invariant(a, d: int, n: int) -> np.ndarray:
    """`a` as a checked d**n x d**n operator; ValueError unless it commutes with S_n.

    The defect is read against INVARIANCE_TOL * min(1, max|A|), so a small
    operator is held to its own scale and no bound is looser than 1e-8.
    """
    mat = dense_operator(a, d, n)
    scale = min(1.0, float(np.abs(mat).max(initial=0.0)))
    if invariance_defect(mat, d, n) > INVARIANCE_TOL * scale:
        raise ValueError("operator is not permutation invariant")
    return mat
