"""Dynamical Lie algebra of a generator set, by iterated nested commutators.

The algebra is treated as a real vector space of skew-Hermitian operators.
Its elements are handled as complex coefficient vectors with the real inner
product ``Re <a, b>``, in one of two coordinate systems:

- dense matrices: the entries of the ``d x d`` matrix, so the inner product
  is ``Re Tr[a† b]``;
- Pauli sums (:class:`PauliSum`): the coefficients over the strings
  ``X^alpha Z^beta`` met so far in the closure, so the inner product is
  ``Re Tr[a† b] / 2^n`` (a single string has norm 1 at every n) and no
  ``2^n``-sized array is ever formed.

Starting from the orthonormalized ``i G``, each element is commuted with every
element before it, all of them in one batch; a candidate joins the basis when
its residual after projection exceeds ``TAU_INDEP``. See :func:`lie_closure`
for why this terminates with a closed span.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import CapExceededError, DimensionMismatchError, NotHermitianError
from .linalg import TAU_HERM, TAU_TRACE, check_generator, commutator, kron, n_qubits_of

# Residual-norm threshold separating new directions from roundoff.
TAU_INDEP = 1e-8
# Coefficients of a unit-norm Pauli-sum element below this are Gram-Schmidt
# roundoff; they are left out of the element used in commutators, so that
# they cannot seed strings outside the algebra's support.
_CHOP = 1e-12
# Bytes of pairwise arrays that one batch of brackets forms at once: a turn's
# earlier elements go in chunks, about 32 bytes per pair of Pauli terms or
# 64 d^2 bytes per dense element, as many as fit and at least one. Every
# turn of the Ising closure up to n=20, and of su(8) from two random
# 3-qubit generators, is one chunk.
BRACKET_BATCH_BYTES = 2**23


@dataclass(frozen=True)
class PauliSum:
    """The operator ``sum_k coeffs[k] X^alpha_k Z^beta_k`` on n qubits.

    ``bits`` is a ``(K, 2n)`` array of 0/1, ``alpha`` in the first n columns
    and ``beta`` in the last n, as in :class:`~qfimlab.channels.PauliString`:
    qubit ``j`` of term ``k`` carries ``X**alpha[j] @ Z**beta[j]``, and qubit
    0 is the most significant bit of a basis index.
    """

    bits: np.ndarray
    coeffs: np.ndarray

    @property
    def n_qubits(self) -> int:
        return self.bits.shape[1] // 2

    @classmethod
    def from_terms(cls, terms) -> "PauliSum":
        """Sum of ``(coeff, PauliString)`` pairs; repeated strings add up."""
        coeffs, strings = zip(*terms)
        bits = np.array([s.alpha + s.beta for s in strings], dtype=np.uint8)
        return _merged(bits, np.asarray(coeffs, dtype=complex))

    @classmethod
    def from_matrix(cls, op: np.ndarray, cutoff: float = 0.0) -> "PauliSum":
        """Expansion of a ``2^n x 2^n`` matrix; terms with ``|coeff| <= cutoff`` are dropped.

        The coefficient of ``X^a Z^b`` is ``Tr[(X^a Z^b)† op] / d``
        ``= sum_k (-1)^(b.k) op[k ^ a, k] / d``, a Walsh-Hadamard transform
        of each shifted diagonal. Costs ``O(d^3)``: for small n only.
        """
        op = np.asarray(op, dtype=complex)
        n = n_qubits_of(op)
        k = np.arange(op.shape[0])
        shifted = op[k[:, None] ^ k[None, :], k[None, :]]
        walsh = kron(*([np.array([[1.0, 1.0], [1.0, -1.0]])] * n)).real
        coeffs = shifted @ walsh / op.shape[0]
        a, b = np.nonzero(np.abs(coeffs) > cutoff)
        return cls(np.concatenate([_int_bits(a, n), _int_bits(b, n)], axis=1), coeffs[a, b])

    def materialize(self) -> np.ndarray:
        """Dense ``2^n x 2^n`` matrix of the sum.

        ``X^a Z^b`` is a signed permutation: column ``k`` holds ``(-1)^(b.k)``
        in row ``k ^ a``.
        """
        x, z = self._masks()
        k = np.arange(2**self.n_qubits)[:, None]
        out = np.zeros((len(k), len(k)), dtype=complex)
        np.add.at(out, (k ^ x, k), _signs(k, z) * self.coeffs)
        return out

    def diagonal(self) -> np.ndarray:
        """``np.diagonal(self.materialize())`` of a sum of Z strings, bit for bit (the terms
        add in the same order); ``ValueError`` if a term has an X part."""
        x, z = self._masks()
        if x.any():
            raise ValueError("only a sum of Z strings has a diagonal form")
        k = np.arange(2**self.n_qubits)
        out = np.zeros(len(k), dtype=complex)
        for mask, coeff in zip(z, self.coeffs):
            out += _signs(k, mask) * coeff
        return out

    def _masks(self) -> tuple[np.ndarray, np.ndarray]:
        """The X and Z parts of each term as integers, qubit 0 the most significant bit."""
        n = self.n_qubits
        return tuple((self.bits.astype(np.int64).reshape(-1, 2, n) @ (1 << np.arange(n - 1, -1, -1))).T)

    def labels(self) -> dict[str, complex]:
        """Coefficients over Hermitian Pauli strings such as ``"XIZ"``, sorted by label.

        ``X^1 Z^1 = -iY``, so each Y factor multiplies a coefficient by ``-i``.
        """
        n = self.n_qubits
        alpha, beta = self.bits[:, :n], self.bits[:, n:]
        chars = np.array(list("IXZY"))[alpha + 2 * beta]
        phases = np.array([1, -1j, -1, 1j])[np.sum(alpha & beta, axis=1) % 4]
        return dict(sorted(("".join(c), complex(v)) for c, v in zip(chars, self.coeffs * phases)))


def _int_bits(values: np.ndarray, n: int) -> np.ndarray:
    """Rows of the n bits of each integer, most significant (qubit 0) first."""
    return ((values[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


def _signs(k: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``(-1)^(b.k)``, the sign that ``Z^b`` gives basis state ``k``, for ``b`` packed in ``z``."""
    return 1.0 - 2.0 * (np.bitwise_count(k & z) & 1)


def _string_keys(bits: np.ndarray) -> np.ndarray:
    """``(K, W)`` integer keys of the strings in ``bits``: each row's bits packed, the first
    the most significant, into ``W = ceil(2n / 64)`` uint64 words. Comparing keys word by
    word orders strings as their bit rows do, at any n, and the key of a product
    ``X^(a1^a2) Z^(b1^b2)`` is the XOR of its factors' keys."""
    packed = np.packbits(bits, axis=1)
    words = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(">u8").astype(np.uint64)


def _string_groups(keys: np.ndarray) -> np.ndarray:
    """Index of each row's string among the distinct rows of ``keys``, numbered in sorted
    order; one ``np.unique`` per key word."""
    _, group = np.unique(keys[:, 0], return_inverse=True)
    for w in range(1, keys.shape[1]):
        _, word = np.unique(keys[:, w], return_inverse=True)
        _, group = np.unique(group * len(keys) + word, return_inverse=True)
    return group


def _sums(index: np.ndarray, coeffs: np.ndarray, size: int) -> np.ndarray:
    """``coeffs`` added up by ``index`` into ``size`` bins, in row order."""
    return np.bincount(index, coeffs.real, size) + 1j * np.bincount(index, coeffs.imag, size)


def _merged(bits: np.ndarray, coeffs: np.ndarray) -> PauliSum:
    """Pauli sum with the coefficients of repeated strings added up; exact zeros dropped.
    Strings come out in sorted order."""
    group = _string_groups(_string_keys(bits))
    size = group.max(initial=-1) + 1
    summed = _sums(group, coeffs, size)
    row = np.empty(size, dtype=np.intp)
    row[group] = np.arange(len(group))
    keep = summed != 0
    return PauliSum(bits[row[keep]], summed[keep])


def _anticommuting_pairs(bits: np.ndarray, coeffs: np.ndarray, b: PauliSum):
    """``(i, j, c)``: every pair of a row ``bits[i]`` and a term ``j`` of ``b`` whose strings
    anticommute, in row-major order, and the coefficient ``c`` of their commutator.

    Strings ``P1 = X^a1 Z^b1`` and ``P2 = X^a2 Z^b2`` anticommute when
    ``a1.b2 + b1.a2`` is odd, and then
    ``[P1, P2] = 2 (-1)^(b1.a2) X^(a1^a2) Z^(b1^b2)``; otherwise they commute.
    The dot products of all pairs are two 0/1 matrix products, exact in
    floating point.
    """
    n = b.n_qubits
    fa, fb = bits.astype(float), b.bits.astype(float)
    sign_dot = fa[:, n:] @ fb[:, :n].T
    dot = fa[:, :n] @ fb[:, n:].T
    dot += sign_dot
    pairs = np.flatnonzero(dot.astype(np.int64) & 1)
    i, j = np.divmod(pairs, len(b.coeffs))
    c = (2.0 * coeffs)[i] * b.coeffs[j]
    np.negative(c, out=c, where=(sign_dot.ravel()[pairs].astype(np.int64) & 1).astype(bool))
    return i, j, c


def pauli_commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``[a, b]`` of two Pauli sums, over all term pairs at once: the one-element case
    of :meth:`_StringColumns.brackets`, strings in sorted order."""
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(f"Pauli sums on {a.n_qubits} and {b.n_qubits} qubits")
    columns = _StringColumns(a.n_qubits, np.result_type(a.bits, b.bits))
    (coeffs,), _ = columns.brackets([a], b)
    return PauliSum(columns.rows, coeffs)


def _chunks(costs: np.ndarray):
    """Consecutive ``(lo, hi)`` ranges of items whose costs add up to at most
    :data:`BRACKET_BATCH_BYTES`, and at least one item each."""
    ends = np.cumsum(costs)
    lo = 0
    while lo < len(ends):
        spent = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, spent + BRACKET_BATCH_BYTES, side="right")))
        yield lo, hi
        lo = hi


class _MatrixCoordinates:
    """Dense ``d x d`` matrices, flattened."""

    def __init__(self, gens):
        gens = [np.asarray(g, dtype=complex) for g in gens]
        d = gens[0].shape[0]
        for k, g in enumerate(gens):
            check_generator(g, d, f"generator {k}")
        self.d = d
        self.skew_gens = [1j * g for g in gens]
        self.max_dim = d * d

    def vector(self, mat: np.ndarray) -> np.ndarray:
        return mat.ravel()

    def element(self, v: np.ndarray) -> np.ndarray:
        return v.reshape(self.d, self.d)

    def brackets(self, earlier: list, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flattened ``[e_j, b]`` for every ``e_j`` in ``earlier``, one row each, from
        stacked commutators; every row is ``d^2`` wide."""
        out = np.concatenate(
            [
                commutator(np.stack(earlier[lo:hi]), b).reshape(hi - lo, -1)
                for lo, hi in _chunks(np.full(len(earlier), 64 * self.d**2))
            ]
        )
        return out, np.full(len(earlier), out.shape[1])


class _StringColumns:
    """One coordinate per Pauli string, columns added as strings appear."""

    def __init__(self, n_qubits: int, dtype=np.uint8):
        # the string of each column, as bits and as its integer key
        self.rows = np.zeros((0, 2 * n_qubits), dtype=dtype)
        self.keys = _string_keys(self.rows)

    def _lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(group, col)``: groups number the distinct strings of the columns and of
        ``keys``; ``group[k]`` is that of row ``k``, ``col[g]`` the column of group ``g``,
        or -1."""
        known = len(self.keys)
        group = _string_groups(np.concatenate([self.keys, keys]))
        col = np.full(group.max(initial=-1) + 1, -1)
        col[group[:known]] = np.arange(known)
        return group[known:], col

    def _append(self, col: np.ndarray, groups: np.ndarray, bits: np.ndarray, keys: np.ndarray) -> None:
        """New columns for ``groups``, in that order, whose strings are ``bits``, ``keys``."""
        col[groups] = len(self.keys) + np.arange(len(groups))
        self.rows = np.concatenate([self.rows, bits])
        self.keys = np.concatenate([self.keys, keys])

    def vector(self, s: PauliSum) -> np.ndarray:
        """Coordinates of a sum of distinct strings; new ones get columns in row order."""
        keys = _string_keys(s.bits)
        group, col = self._lookup(keys)
        new = np.flatnonzero(col[group] < 0)
        self._append(col, group[new], s.bits[new], keys[new])
        v = np.zeros(len(self.keys), dtype=complex)
        v[col[group]] = s.coeffs
        return v

    def brackets(self, earlier: list, b: PauliSum) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of ``[e_j, b]`` for every ``e_j`` in ``earlier``, one row each, and
        the width each row had when it was the only one.

        The terms of all earlier elements are stacked, commuted with ``b`` at
        once, and added up by (element, string) in pair order. A string gets a
        column when some element first gives it a nonzero coefficient, so the
        columns come in the order one-at-a-time brackets add them, and row ``j``
        was then as wide as the columns used by rows ``0..j``.
        """
        sizes = np.array([len(e.coeffs) for e in earlier])
        before = len(self.keys)
        used = np.empty(len(earlier), dtype=np.intp)
        parts = []
        for lo, hi in _chunks(32 * sizes * len(b.coeffs)):
            bits = np.concatenate([e.bits for e in earlier[lo:hi]])
            i, j, c = _anticommuting_pairs(bits, np.concatenate([e.coeffs for e in earlier[lo:hi]]), b)
            keys = _string_keys(bits)[i] ^ _string_keys(b.bits)[j]
            group, col = self._lookup(keys)
            owner = np.repeat(np.arange(hi - lo), sizes[lo:hi])[i]
            summed = _sums(owner * len(col) + group, c, (hi - lo) * len(col)).reshape(hi - lo, len(col))
            hit = summed != 0
            # strings met first here, ordered by the first element that gives them
            new = np.flatnonzero((col < 0) & hit.any(axis=0))
            new = new[np.argsort(hit[:, new].argmax(axis=0), kind="stable")]
            pair = np.empty(len(col), dtype=np.intp)
            pair[group] = np.arange(len(group))
            pair = pair[new]
            self._append(col, new, bits[i[pair]] ^ b.bits[j[pair]], keys[pair])
            seen = col >= 0
            parts.append((lo, hi, col[seen], summed[:, seen]))
            used[lo:hi] = np.max(np.where(hit[:, seen], col[seen] + 1, 0), axis=1, initial=before)
        out = np.zeros((len(earlier), len(self.keys)), dtype=complex)
        for lo, hi, cols, values in parts:
            out[lo:hi, cols] = values
        return out, np.maximum.accumulate(used)


class _PauliCoordinates(_StringColumns):
    """Pauli sums, one coordinate per string."""

    def __init__(self, gens):
        # the checks below read terms one by one, so repeated strings are added up first
        gens = [_merged(np.asarray(g.bits, np.uint8), np.asarray(g.coeffs, complex)) for g in gens]
        n = gens[0].n_qubits
        for k, g in enumerate(gens):
            if g.n_qubits != n:
                raise DimensionMismatchError(f"generator {k} acts on {g.n_qubits} qubits, expected {n}")
            # (X^a Z^b)† = (-1)^(a.b) X^a Z^b: Hermitian iff i^(a.b) c is real
            odd = np.sum(g.bits[:, :n] & g.bits[:, n:], axis=1) % 2 == 1
            dev = float(np.max(np.abs(np.where(odd, 1j * g.coeffs, g.coeffs).imag), initial=0.0))
            if dev > TAU_HERM:
                raise NotHermitianError(
                    f"generator {k} deviates from Hermiticity by {dev:.3e} (> {TAU_HERM:.1e})"
                )
            trace = g.coeffs[~g.bits.any(axis=1)]
            if trace.size and abs(trace[0]) > TAU_TRACE:
                raise ValueError(f"generator {k} has identity coefficient {trace[0]:.3e}, expected traceless")
        super().__init__(n)
        self.skew_gens = [PauliSum(g.bits, 1j * g.coeffs) for g in gens]
        self.max_dim = 4**n

    def element(self, v: np.ndarray) -> PauliSum:
        keep = np.nonzero(np.abs(v) > _CHOP)[0]
        return PauliSum(self.rows[keep], v[keep])


def _project_out(r: np.ndarray, rows: np.ndarray) -> None:
    """One Gram-Schmidt pass: remove from ``r`` (in place) its projection on
    the orthonormal ``rows``.

    Both are real views of complex coefficient vectors, so a dot product is
    ``Re <a, b>``; ``rows`` may be narrower than ``r``, whose extra
    coordinates it does not touch. Callers run a second pass for numerical
    orthogonality.
    """
    w = rows.shape[1]
    r[:w] -= (rows @ r[:w]) @ rows


@dataclass(frozen=True)
class LieBasis:
    """Orthonormal basis of the algebra: ``i H`` matrices, or :class:`PauliSum` s."""

    elements: tuple

    @property
    def dim(self) -> int:
        return len(self.elements)


def lie_closure(generators, max_dim: int | None = None) -> LieBasis:
    """Orthonormal basis of the Lie algebra generated by ``i * generators``.

    Generators are Hermitian and traceless, and are either all dense
    matrices (the basis holds skew-Hermitian matrices, orthonormal in
    ``Re Tr[a†b]``) or all :class:`PauliSum` s on the same qubits (the basis
    holds Pauli sums, orthonormal in ``Re Tr[a†b] / 2^n``). ``max_dim``
    defaults to ``d**2`` (the real dimension of u(d), never exceeded by a
    subalgebra); hitting the cap raises :class:`CapExceededError` with the
    partial dimension attached.

    Elements are processed in the order they join the basis, and element i,
    on its turn, is commuted with every element before it. So each pair is
    commuted once, on the turn of the later one, whether that element was a
    generator or joined while earlier ones were processed; the loop ends when
    every element has had its turn. A rejected candidate had a residual of
    at most ``TAU_INDEP`` against the basis at that time, and residuals only
    shrink as the basis grows, so at the end every pairwise commutator lies
    in the span within ``TAU_INDEP``: the span is closed, and no certificate
    pass is needed.

    Each turn runs as one batch: one ``brackets`` call gives the coordinates
    of ``[e_j, e_i]`` for every ``j < i`` at once, and one Gram-Schmidt pass
    of all of them against the basis as the turn began screens them. Only the
    candidates whose screened residual exceeds ``TAU_INDEP`` then go, in
    order, through the sequential two-pass test, each at the width it would
    have had on its own. A larger orthonormal basis leaves no larger residual,
    so the screen drops only candidates the sequential test would drop, and
    the basis comes out as if every pair were taken one at a time.
    """
    gens = list(generators)
    if not gens:
        raise ValueError("need at least one generator")
    if all(isinstance(g, PauliSum) for g in gens):
        coords = _PauliCoordinates(gens)
    elif any(isinstance(g, PauliSum) for g in gens):
        raise TypeError("generators must be all matrices or all Pauli sums")
    else:
        coords = _MatrixCoordinates(gens)
    cap = coords.max_dim if max_dim is None else int(max_dim)
    if cap < 1:
        raise ValueError("max_dim must be at least 1")

    # Orthonormal real views of the elements, one row each, in the top-left
    # corner of a zero buffer that doubles its rows or columns when full; a
    # row that brings new strings widens the corner.
    buffer = rows = np.zeros((0, 0))
    elements: list = []

    def try_add(v: np.ndarray) -> None:
        nonlocal buffer, rows
        r = np.array(v, dtype=complex).view(np.float64)
        _project_out(r, rows)
        # most candidates end here; a second pass could only shrink their residual
        if float(np.linalg.norm(r)) <= TAU_INDEP:
            return
        _project_out(r, rows)
        norm = float(np.linalg.norm(r))
        if norm <= TAU_INDEP:
            return
        k = len(elements)
        if k >= cap:
            raise CapExceededError(f"Lie closure exceeded the dimension cap {cap}", partial_dim=k)
        r /= norm
        if k == buffer.shape[0] or len(r) > buffer.shape[1]:
            grown = np.zeros((max(2 * buffer.shape[0], k + 1), max(2 * buffer.shape[1], len(r))))
            grown[:k, : rows.shape[1]] = rows
            buffer = grown
        buffer[k, : len(r)] = r
        rows = buffer[: k + 1, : len(r)]
        elements.append(coords.element(r.view(complex)))

    for g in coords.skew_gens:
        try_add(coords.vector(g))
    i = 1
    while i < len(elements):
        vecs, widths = coords.brackets(elements[:i], elements[i])
        # first pass against the basis as the turn began; a larger basis leaves less
        screen = vecs.view(np.float64).copy()
        w = rows.shape[1]
        screen[:, :w] -= (screen[:, :w] @ rows.T) @ rows
        for j in np.flatnonzero(np.linalg.norm(screen, axis=1) > TAU_INDEP):
            try_add(vecs[j, : widths[j]])
        i += 1
    return LieBasis(tuple(elements))


def dla_dimension(generators, max_dim: int | None = None) -> int:
    """Dimension of the dynamical Lie algebra; see :func:`lie_closure`."""
    return lie_closure(generators, max_dim=max_dim).dim


def parity_sector_dimension(basis: LieBasis) -> int:
    """Dimension of a Pauli-sum algebra restricted to the +1 eigenspace of ``P = X^{⊗n}``.

    Every element must commute with ``P``, that is, every string has an even
    number of Z factors (``|beta|`` even). On the even sector a string ``Q``
    acts as ``Q P = (-1)^|beta| X^(alpha ^ 1) Z^beta``, which is
    ``X^(alpha ^ 1) Z^beta`` here, and distinct pairs ``{Q, QP}`` stay
    linearly independent. Restriction to the sector is a Lie-algebra
    homomorphism, so the sector algebra (the closure of the restricted
    generators) is the image of the full algebra: its dimension is the real
    rank of the basis coefficients summed over each pair, the identity pair
    ``{I, P}`` dropped. The quotient costs no second closure.
    """
    elements = basis.elements
    if not all(isinstance(e, PauliSum) for e in elements):
        raise TypeError("parity_sector_dimension needs a basis of Pauli sums")
    if not elements:
        return 0
    n = elements[0].n_qubits
    bits = np.concatenate([e.bits for e in elements])
    if np.any(bits[:, n:].sum(axis=1) % 2):
        raise ValueError("the algebra does not commute with the parity X^n")
    owner = np.repeat(np.arange(len(elements)), [len(e.coeffs) for e in elements])
    coeffs = np.concatenate([e.coeffs for e in elements])
    # one representative per pair: the string whose alpha has qubit 0 clear
    bits[:, :n] ^= bits[:, :1]
    keep = bits.any(axis=1)
    cols = _string_groups(_string_keys(bits[keep]))
    quotient = np.zeros((len(elements), cols.max(initial=-1) + 1), dtype=complex)
    np.add.at(quotient, (owner[keep], cols), coeffs[keep])
    return int(np.linalg.matrix_rank(np.hstack([quotient.real, quotient.imag]), tol=TAU_INDEP))
