"""Symmetric-group machinery on n-fold tensor powers of C^d.

For a fixed orthonormal basis of C^d, the tensor power splits into word
blocks V_f spanned by the product basis vectors whose letter counts equal
the frequency f. Each block carries a permutation action of S_n and splits
further into frame components V_{f,lam}, one per partition lam dominating
the sorted frequency; the component multiplicities are Kostka numbers.

Projectors onto the components are computed inside each word block. Every
central element of the group algebra acts on a frame component as an exact
integer scalar (its central character). The k-cycle class sums Z_k commute,
so for the fewest cycle lengths 2..K whose central characters tell the
candidate frames of a block apart, the real combination
sum_k (pi/7)**(k-2) Z_k is one symmetric matrix whose eigenspaces are the
frame components. A single eigendecomposition per block therefore yields
all of its projectors, and each eigenvalue is checked against the exact
target sum_k (pi/7)**(k-2) chi_k(lam). The projectors agree with the
classical central idempotents built from the full character sum.

Matrices handled here are real in the word basis. Dense full-space
materialization is guarded: index-level work allows d**n up to 60000,
dense d**n x d**n matrices up to 4096.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np

from .errors import SizeGuardError
from .quantum import assert_basis
from .tableaux import (
    _frame_parts,
    _freq_counts,
    dominance,
    enumerate_frames,
    enumerate_frequencies,
    hook_dimension,
    relative_entropy,
    type_class_size,
)

GUARD_LIMIT = 60000
DENSE_LIMIT = 4096


def guard_dimension(d: int, n: int, limit: int = GUARD_LIMIT) -> int:
    dim = d**n
    if dim > limit:
        raise SizeGuardError(f"d = {d}, n = {n}: d**n = {dim} exceeds the guard of {limit}")
    return dim


def tensor_power(a, n: int) -> np.ndarray:
    """n-fold Kronecker power (dense, guarded)."""
    m = np.asarray(a)
    guard_dimension(m.shape[0], n, DENSE_LIMIT)
    return reduce(np.kron, [m] * n) if n > 1 else m.copy()


# ---------------------------------------------------------------------------
# words


def words_of_type(f) -> np.ndarray:
    """All words with letter counts f, lexicographically sorted, shape (m, n)."""
    counts = list(_freq_counts(f))
    d = len(counts)
    n = sum(counts)
    rows: list[tuple[int, ...]] = []
    prefix: list[int] = []

    def rec():
        if len(prefix) == n:
            rows.append(tuple(prefix))
            return
        for letter in range(d):
            if counts[letter]:
                counts[letter] -= 1
                prefix.append(letter)
                rec()
                prefix.pop()
                counts[letter] += 1

    rec()
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def word_codes(words: np.ndarray, d: int) -> np.ndarray:
    """Base-d codes of words; the first letter is most significant."""
    n = words.shape[1]
    powers = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return words @ powers


# ---------------------------------------------------------------------------
# permutation operators


def _validate_perm(perm) -> tuple[int, ...]:
    p = tuple(int(x) for x in perm)
    if sorted(p) != list(range(len(p))):
        raise ValueError(f"not a permutation of 0..{len(p) - 1}: {p!r}")
    return p


def compose(p, q) -> tuple[int, ...]:
    """(p o q)(x) = p(q(x))."""
    p = _validate_perm(p)
    q = _validate_perm(q)
    return tuple(p[q[x]] for x in range(len(p)))


class PermOperator:
    """Action of a permutation on the n-fold tensor power of C^d.

    The operator sends the product basis word w to the word w' with
    w'[pi(i)] = w[i]: letter i moves to slot pi(i).
    """

    __slots__ = ("perm", "d", "n")

    def __init__(self, perm, d: int):
        self.perm = _validate_perm(perm)
        self.d = int(d)
        self.n = len(self.perm)

    def inverse_slots(self) -> np.ndarray:
        inv = np.empty(self.n, dtype=np.int64)
        for i, p in enumerate(self.perm):
            inv[p] = i
        return inv

    def apply_to_words(self, words: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(words[:, self.inverse_slots()])

    def index_map(self) -> np.ndarray:
        """Array M with M[code(w)] = code(pi . w), for all d**n words."""
        dim = guard_dimension(self.d, self.n)
        codes = np.arange(dim, dtype=np.int64)
        digits = np.empty((dim, self.n), dtype=np.int64)
        rem = codes
        for j in range(self.n - 1, -1, -1):
            digits[:, j] = rem % self.d
            rem = rem // self.d
        return word_codes(self.apply_to_words(digits), self.d)

    def matrix(self) -> np.ndarray:
        dim = guard_dimension(self.d, self.n, DENSE_LIMIT)
        out = np.zeros((dim, dim))
        out[self.index_map(), np.arange(dim)] = 1.0
        return out

    def cycle_type(self) -> tuple[int, ...]:
        seen = [False] * self.n
        lengths = []
        for s in range(self.n):
            if seen[s]:
                continue
            length = 0
            j = s
            while not seen[j]:
                seen[j] = True
                j = self.perm[j]
                length += 1
            lengths.append(length)
        return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# characters


def conjugacy_classes(n: int) -> list[tuple[tuple[int, ...], int]]:
    """All cycle types of S_n with their class sizes (exact)."""
    out = []
    for mu in enumerate_frames(n, n):
        parts = mu.parts
        z = 1
        for length, reps in _multiplicities(parts).items():
            z *= length**reps * math.factorial(reps)
        out.append((parts, math.factorial(n) // z))
    return out


def _multiplicities(parts) -> dict[int, int]:
    m: dict[int, int] = {}
    for p in parts:
        m[p] = m.get(p, 0) + 1
    return m


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
    lam_p = _frame_parts(lam)
    mu_p = _frame_parts(mu)
    if sum(lam_p) != sum(mu_p):
        raise ValueError("frame and cycle type must partition the same n")
    return _mn_character(lam_p, tuple(sorted(mu_p, reverse=True)))


@dataclass
class CharacterTable:
    """Characters of the frames with at most d rows, over all cycle types."""

    n: int
    frames: list[tuple[int, ...]]
    classes: list[tuple[tuple[int, ...], int]]
    values: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = field(repr=False)

    def chi(self, lam, mu) -> int:
        return self.values[(_frame_parts(lam), _frame_parts(mu))]

    def orthogonality_defect(self) -> int:
        """Max |sum_mu |class| chi chi' - n! [lam = lam']| over frame pairs."""
        fact = math.factorial(self.n)
        worst = 0
        for a in self.frames:
            for b in self.frames:
                s = sum(
                    size * self.values[(a, mu)] * self.values[(b, mu)]
                    for mu, size in self.classes
                )
                expect = fact if a == b else 0
                worst = max(worst, abs(s - expect))
        return worst


def character_table(d: int, n: int) -> CharacterTable:
    frames = [fr.parts for fr in enumerate_frames(d, n)]
    classes = conjugacy_classes(n)
    values = {
        (lam, mu): _mn_character(lam, mu) for lam in frames for mu, _ in classes
    }
    return CharacterTable(n=n, frames=frames, classes=classes, values=values)


def kcycle_class_size(n: int, k: int) -> int:
    """Number of k-cycles in S_n."""
    return math.factorial(n) // (math.factorial(n - k) * k)


def central_character(lam, n: int, k: int) -> int:
    """Scalar by which the k-cycle class sum acts on the lam component."""
    lam_p = _frame_parts(lam)
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
    """Matrix of the k-cycle class sum restricted to the given word block."""
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


_BLOCK_CACHE: dict[tuple[int, ...], dict[tuple[int, ...], np.ndarray]] = {}
_CYCLE_WEIGHT = math.pi / 7.0


def frequency_blocks(f) -> dict[tuple[int, ...], np.ndarray]:
    """All frame-component projectors on the word block of frequency f.

    The candidate frames are those dominating f. With 2..K the fewest
    cycle lengths whose central characters chi_k tell the candidates
    apart, the lam component is the eigenspace of
    sum_k (pi/7)**(k-2) Z_k for the value sum_k (pi/7)**(k-2) chi_k(lam),
    so one eigh yields every projector. Each eigenvector goes to the
    nearest target value; ArithmeticError is raised when the characters do
    not separate the frames, or when an eigenvalue lies more than a quarter
    of the smallest target gap from its target.

    Returns a dict mapping frame parts to the projector matrix in the
    word basis (real symmetric, size |T_f|). Results are cached per f;
    the cache is a plain dict and is safe to share across threads only
    for reading.
    """
    counts = _freq_counts(f)
    cached = _BLOCK_CACHE.get(counts)
    if cached is not None:
        return cached
    d = len(counts)
    n = sum(counts)
    guard_dimension(d, n)
    words = words_of_type(counts)
    m = words.shape[0]
    if m > DENSE_LIMIT:
        raise SizeGuardError(
            f"word block of f = {counts} has {m} words, above the dense guard of {DENSE_LIMIT}"
        )
    candidates = [
        fr.parts for fr in enumerate_frames(d, n) if dominance(counts, fr.parts)
    ]
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
    mixed = np.zeros((m, m))
    for j, w in enumerate(weights, start=2):
        mixed += w * class_sum_on_words(words, d, j)
    vals, vecs = np.linalg.eigh(mixed)
    owner = np.abs(vals[:, None] - targets[None, :]).argmin(axis=1)
    gap = np.diff(np.sort(targets)).min(initial=np.inf)
    if np.abs(vals - targets[owner]).max() > gap / 4.0:
        raise ArithmeticError("class-sum eigenvalues do not match the frame targets")
    blocks: dict[tuple[int, ...], np.ndarray] = {}
    for i, lam in enumerate(candidates):
        sel = vecs[:, owner == i]
        blocks[lam] = sel @ sel.T
    _BLOCK_CACHE[counts] = blocks
    return blocks


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


@dataclass
class ProjectorBlock:
    """Joint frequency/frame projector, stored on its word block.

    `block` is the real symmetric projector restricted to the words of
    frequency f (the basis in which the tensor factors are pinched);
    `matrix()` embeds it into the full d**n space, rotating out of the
    pinching basis when one is attached.
    """

    f: tuple[int, ...]
    lam: tuple[int, ...]
    block: np.ndarray
    basis: np.ndarray | None = None

    @property
    def d(self) -> int:
        return len(self.f)

    @property
    def n(self) -> int:
        return sum(self.f)

    @property
    def trace(self) -> float:
        return float(np.trace(self.block))

    def matrix(self) -> np.ndarray:
        return dense_from_blocks([(self.f, self.block)], self.d, self.n, self.basis)

    def to_json_dict(self) -> dict:
        mat = self.matrix()
        return {
            "d": self.d,
            "n": self.n,
            "f": list(self.f),
            "lambda": list(self.lam),
            "trace": self.trace,
            "matrix": [[float(x.real), float(x.imag)] for x in mat.ravel()],
        }


def block_projector(f, lam, basis=None) -> ProjectorBlock:
    """Projector onto the lam component of the frequency-f word block.

    Vanishing Kostka number gives the zero block.
    """
    counts = _freq_counts(f)
    lam_p = _frame_parts(lam)
    if sum(counts) != sum(lam_p):
        raise ValueError("frequency and frame must count the same n")
    if len(lam_p) > len(counts):
        raise ValueError("frame has more rows than the alphabet has letters")
    block = frequency_blocks(counts).get(lam_p)
    if block is None:
        m = type_class_size(counts)
        block = np.zeros((m, m))
    if basis is not None:
        basis = assert_basis(basis)
    return ProjectorBlock(f=counts, lam=lam_p, block=block, basis=basis)


def frequency_projector(f, basis=None) -> np.ndarray:
    """Projector onto the span of the basis words with letter counts f."""
    counts = _freq_counts(f)
    d = len(counts)
    n = sum(counts)
    guard_dimension(d, n, DENSE_LIMIT)  # before the identity block is allocated
    return dense_from_blocks([(counts, np.eye(type_class_size(counts)))], d, n, basis)


def isotypical_projector(lam, d: int, n: int) -> np.ndarray:
    """Central projector onto the frame-lam component of the tensor power.

    Independent of any basis choice; assembled from the word blocks of the
    computational basis.
    """
    lam_p = _frame_parts(lam)
    if sum(lam_p) != n:
        raise ValueError("frame must partition n")
    pieces = (
        (f.counts, block)
        for f in enumerate_frequencies(d, n)
        if (block := frequency_blocks(f.counts).get(lam_p)) is not None
    )
    return dense_from_blocks(pieces, d, n)


def completeness_check(d: int, n: int) -> float:
    """Norm of (sum of all frequency/frame projectors) minus the identity.

    Works block by block: distinct frequencies occupy disjoint word
    coordinates, so the deviation is block diagonal and its spectral norm
    is the max over blocks. Blocks above 2000 words fall back to the
    Frobenius norm, an upper bound on the spectral norm.
    """
    guard_dimension(d, n)
    worst = 0.0
    for f in enumerate_frequencies(d, n):
        blocks = frequency_blocks(f.counts)
        m = words_of_type(f.counts).shape[0]
        total = np.zeros((m, m))
        for block in blocks.values():
            total += block
        dev = total - np.eye(m)
        if m <= 2000:
            norm = float(np.abs(np.linalg.eigvalsh(dev)).max())
        else:
            norm = float(np.linalg.norm(dev))
        worst = max(worst, norm)
    return worst


def block_weight(f, lam, states, basis=None) -> float:
    """tr of the (f, lam) projector against a product of single-site states.

    `states` is a single state (used on every site) or a length-n sequence.
    The product operator is never materialized on the full space: it is
    restricted to the word block directly (`word_block_state`).
    """
    counts = _freq_counts(f)
    block = frequency_blocks(counts).get(_frame_parts(lam))
    if block is None:
        return 0.0
    prod = word_block_state(counts, states, basis)
    return float(np.einsum("ab,ba->", block, prod).real)


def word_block_state(f, states, basis=None) -> np.ndarray:
    """A product of single-site states restricted to the word block of f.

    Entry [a, b] is prod_i states[i][w_a[i], w_b[i]] over the sorted words
    w of letter counts f, with the states taken in `basis` when one is
    given. `states` is as in `block_weight`.
    """
    counts = _freq_counts(f)
    sts = _site_states(states, sum(counts))
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


def _site_states(states, n: int) -> list[np.ndarray]:
    arr = np.asarray(states, dtype=complex)
    if arr.ndim == 2:
        return [arr] * n
    if arr.ndim == 3 and arr.shape[0] == n:
        return [arr[i] for i in range(n)]
    raise ValueError("states must be one state or a length-n sequence")


def spectral_estimate_check(lam, rho, n: int) -> tuple[float, float]:
    """(tr{P_lam rho^n}, (2n)**(d*d) * 2**(-n D(lam_norm || spec rho))).

    The left side is assembled block by block in the computational basis;
    the right side uses the convention 2**(-inf) = 0.
    """
    from .quantum import assert_state, spectrum

    rho_m = assert_state(rho)
    d = rho_m.shape[0]
    lam_p = _frame_parts(lam)
    if sum(lam_p) != n:
        raise ValueError("frame must partition n")
    guard_dimension(d, n)
    lhs = 0.0
    for f in enumerate_frequencies(d, n):
        lhs += block_weight(f.counts, lam_p, rho_m)
    lam_norm = np.asarray(lam_p + (0,) * (d - len(lam_p)), dtype=float) / n
    div = relative_entropy(lam_norm, spectrum(rho_m))
    rhs = (2.0 * n) ** (d * d) * 2.0 ** (-n * div)
    return lhs, rhs


def invariance_defect(a, d: int, n: int, rng=None, samples: int = 8) -> float:
    """Max entry deviation of U_pi A U_pi^dag from A over sampled pi."""
    mat = np.asarray(a)
    dim = guard_dimension(d, n, DENSE_LIMIT)
    if mat.shape != (dim, dim):
        raise ValueError(f"operator shape {mat.shape} does not match d**n = {dim}")
    rng = np.random.default_rng(0) if rng is None else rng
    worst = 0.0
    perms = [tuple(rng.permutation(n)) for _ in range(samples)]
    perms.append(tuple(range(1, n)) + (0,))  # cyclic shift
    for perm in perms:
        pmap = PermOperator(perm, d).index_map()
        conj = mat[np.ix_(pmap, pmap)]
        worst = max(worst, float(np.abs(conj - mat).max()))
    return worst
