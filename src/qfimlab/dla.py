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

Starting from the orthonormalized ``i G``, each element is commuted with the
generators, all of them in one batch; a candidate joins the basis when its
residual after projection exceeds ``TAU_INDEP``. The algebra generated by a
set is the smallest space that holds the set and is mapped into itself by
the adjoint action of each of its members, so brackets with the generators
alone reach all of it. See :func:`lie_closure` for why this terminates with
that span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import CapExceededError, DimensionMismatchError, NotHermitianError
from .linalg import TAU_HERM, TAU_TRACE, check_generator, commutator, kron, n_qubits_of

# Residual-norm threshold separating new directions from roundoff.
TAU_INDEP = 1e-8
# Coefficients of a unit-norm Pauli-sum element below this are Gram-Schmidt
# roundoff; they are left out of the element used in commutators, so that
# they cannot seed strings outside the algebra's support.
_CHOP = 1e-12


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
    """``(K, W)`` keys of the strings in ``bits``: each row's bits packed, the first the
    most significant, into ``W = ceil(2n / 64)`` 8-byte words that keep the packed byte
    order. The key of a product ``X^(a1^a2) Z^(b1^b2)`` is the XOR of its factors'
    keys, and :func:`_sortable` orders keys as their bit rows are ordered, at any n."""
    packed = np.packbits(bits, axis=1)
    words = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, : packed.shape[1]] = packed
    return words.view(np.uint64)


def _sortable(keys: np.ndarray) -> np.ndarray:
    """The rows of ``keys`` as void scalars: ``np.sort``, ``np.unique`` and
    ``np.searchsorted`` compare them byte by byte, that is, as big-endian words."""
    keys = np.ascontiguousarray(keys)
    return keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1])))[:, 0]


def _sums(index: np.ndarray, coeffs: np.ndarray, size: int) -> np.ndarray:
    """``coeffs`` added up by ``index`` into ``size`` bins, in row order."""
    return np.bincount(index, coeffs.real, size) + 1j * np.bincount(index, coeffs.imag, size)


def _merged(bits: np.ndarray, coeffs: np.ndarray) -> PauliSum:
    """Pauli sum with the coefficients of repeated strings added up; exact zeros dropped.
    Strings come out in sorted order."""
    _, first, group = np.unique(_sortable(_string_keys(bits)), return_index=True, return_inverse=True)
    summed = _sums(group, coeffs, len(first))
    keep = summed != 0
    return PauliSum(bits[first[keep]], summed[keep])


class _Terms(NamedTuple):
    """The terms of a list of Pauli sums, stacked in order."""

    bits: np.ndarray
    keys: np.ndarray  # of each term's string, from _string_keys
    x: np.ndarray  # the X half of the bits, as floats
    z: np.ndarray  # the Z half of the bits, as floats
    coeffs: np.ndarray
    owner: np.ndarray  # index of the sum that holds each term
    ends: np.ndarray  # one past the last term of each sum


def _anticommuting_pairs(x: np.ndarray, z: np.ndarray, coeffs: np.ndarray, b: PauliSum):
    """``(i, j, c)``: every pair of a term ``i``, with X bits ``x[i]``, Z bits ``z[i]``
    (as floats) and coefficient ``coeffs[i]``, and a term ``j`` of ``b`` whose strings
    anticommute, in row-major order, and the coefficient ``c`` of their commutator.

    Strings ``P1 = X^a1 Z^b1`` and ``P2 = X^a2 Z^b2`` anticommute when
    ``a1.b2 + b1.a2`` is odd, and then
    ``[P1, P2] = 2 (-1)^(b1.a2) X^(a1^a2) Z^(b1^b2)``; otherwise they commute.
    The dot products of all pairs are two 0/1 matrix products, exact in
    floating point.
    """
    n = b.n_qubits
    fb = b.bits.astype(float)
    sign_dot = z @ fb[:, :n].T
    dot = x @ fb[:, n:].T
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
    (coeffs,), _ = columns.brackets(columns.stack([a]), 1, b)
    return PauliSum(columns.rows, coeffs)


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

    def stack(self, elements: list) -> np.ndarray:
        """``elements`` stacked once, for every turn that brackets with them."""
        return np.stack(elements)

    def brackets(self, gens: np.ndarray, m: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flattened ``[g_j, b]`` for each of the first ``m`` matrices ``g_j`` of the stack
        ``gens``, one row each, from stacked commutators; every row is ``d^2`` wide."""
        out = commutator(gens[:m], b).reshape(m, -1)
        return out, np.full(m, out.shape[1])


class _StringColumns:
    """One coordinate per Pauli string, columns added as strings appear."""

    def __init__(self, n_qubits: int, dtype=np.uint8):
        # the string of each column; the columns' sortable keys in sorted order, and
        # the column of each
        self.rows = np.zeros((0, 2 * n_qubits), dtype=dtype)
        self.index = _sortable(_string_keys(self.rows))
        self.order = np.zeros(0, dtype=np.intp)

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """The column of the string of each sortable key, or -1."""
        if not len(self.index):
            return np.full(len(keys), -1)
        at = np.minimum(np.searchsorted(self.index, keys), len(self.index) - 1)
        return np.where(self.index[at] == keys, self.order[at], -1)

    def _append(self, bits: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """New columns, in row order, for the distinct new strings ``bits`` with the
        sortable ``keys``; returns their indices."""
        cols = len(self.rows) + np.arange(len(keys))
        by_key = np.argsort(keys, kind="stable")
        at = np.searchsorted(self.index, keys[by_key])
        self.index = np.insert(self.index, at, keys[by_key])
        self.order = np.insert(self.order, at, cols[by_key])
        self.rows = np.concatenate([self.rows, bits])
        return cols

    def vector(self, s: PauliSum) -> np.ndarray:
        """Coordinates of a sum of distinct strings; new ones get columns in row order."""
        keys = _sortable(_string_keys(s.bits))
        col = self._lookup(keys)
        new = np.flatnonzero(col < 0)
        col[new] = self._append(s.bits[new], keys[new])
        v = np.zeros(len(self.rows), dtype=complex)
        v[col] = s.coeffs
        return v

    def stack(self, sums: list) -> _Terms:
        """The terms of ``sums`` stacked once, for every turn that brackets with them."""
        bits = np.concatenate([s.bits for s in sums])
        sizes = [len(s.coeffs) for s in sums]
        fa, n = bits.astype(float), bits.shape[1] // 2
        return _Terms(
            bits,
            _string_keys(bits),
            np.ascontiguousarray(fa[:, :n]),
            np.ascontiguousarray(fa[:, n:]),
            np.concatenate([s.coeffs for s in sums]),
            np.repeat(np.arange(len(sums)), sizes),
            np.cumsum(sizes),
        )

    def brackets(self, gens: _Terms, m: int, b: PauliSum) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of ``[g_j, b]`` for each of the first ``m`` sums ``g_j`` stacked in
        ``gens``, one row each, and the width each row had when it was the only one.

        Their terms are commuted with ``b`` at once and added up by (sum, string)
        in pair order. A string gets a column when some row first gives it a
        nonzero coefficient, so the columns come in the order one-at-a-time
        brackets add them, and row ``j`` was then as wide as the columns used by
        rows ``0..j``. Only this turn's distinct strings are looked up in the
        sorted keys of the columns.
        """
        t = gens.ends[m - 1]
        i, j, c = _anticommuting_pairs(gens.x[:t], gens.z[:t], gens.coeffs[:t], b)
        keys = _sortable(gens.keys[i] ^ _string_keys(b.bits)[j])
        strings, pair, string = np.unique(keys, return_index=True, return_inverse=True)
        summed = _sums(gens.owner[i] * len(strings) + string, c, m * len(strings)).reshape(m, -1)
        hit = summed != 0
        col = self._lookup(strings)
        # strings met first here, given columns in the order of the first row that gives them
        fresh = np.flatnonzero((col < 0) & hit.any(axis=0))
        first = hit[:, fresh].argmax(axis=0)
        fresh = fresh[np.argsort(first, kind="stable")]
        before = len(self.rows)
        if len(fresh):
            col[fresh] = self._append(gens.bits[i[pair[fresh]]] ^ b.bits[j[pair[fresh]]], strings[fresh])
        seen = col >= 0
        out = np.zeros((m, len(self.rows)), dtype=complex)
        out[:, col[seen]] = summed[:, seen]
        return out, before + np.cumsum(np.bincount(first, minlength=m))


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

    Elements are processed in the order they join the basis. The first k are
    the generators that joined it, orthonormalized, and element i, on its
    turn, is commuted with the generator elements ``e_0 .. e_{min(i,k)-1}``:
    each pair of generator elements once, on the turn of the later one, and
    every later element with all k. The loop ends when every element has had
    its turn. That is enough: the algebra generated by a set S is spanned by
    the right-nested brackets ``[s_1, [s_2, .., [s_{r-1}, s_r]]]`` of its
    members (by the Jacobi identity), so it is the smallest space that holds
    S and is mapped into itself by ``ad_s`` for every s in S. Each element is
    such a bracket or a combination of them, and a rejected candidate had a
    residual of at most ``TAU_INDEP`` against the basis at that time, which
    only shrinks as the basis grows. So at the end the span holds the
    generators and ``[e_j, e]`` lies in it within ``TAU_INDEP`` for every
    generator element ``e_j`` and element ``e``: the span is the algebra.
    ``TAU_INDEP`` certifies only these [generator, element] brackets; the
    bracket of two other elements follows by the Jacobi identity, within a
    roundoff that the tests bound at 1e-7.

    Each turn runs as one batch: one ``brackets`` call gives the coordinates
    of ``[e_j, e_i]`` for every ``j < min(i, k)`` at once, from the
    generators' terms or matrices stacked once for all turns, and one
    Gram-Schmidt pass of all of them against the basis as the turn began
    screens them. Only the candidates whose screened residual exceeds
    ``TAU_INDEP`` then go, in order, through the sequential two-pass test,
    each at the width it would have had on its own. A larger orthonormal
    basis leaves no larger residual, so the screen drops only candidates the
    sequential test would drop, and the basis comes out as if every pair were
    taken one at a time.
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
    # corner of a zero buffer that doubles its rows when they are full and its
    # columns when a row is wider; a row that brings new strings widens the corner.
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
            (height, width), w = buffer.shape, len(r)
            grown = np.zeros((height if k < height else max(2 * k, 1), width if w <= width else max(2 * width, w)))
            grown[:k, : rows.shape[1]] = rows
            buffer = grown
        buffer[k, : len(r)] = r
        rows = buffer[: k + 1, : len(r)]
        elements.append(coords.element(r.view(complex)))

    for g in coords.skew_gens:
        try_add(coords.vector(g))
    if not elements:
        return LieBasis(())
    k = len(elements)
    stacked = coords.stack(elements)
    i = 1
    while i < len(elements):
        vecs, widths = coords.brackets(stacked, min(i, k), elements[i])
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
    strings, cols = np.unique(_sortable(_string_keys(bits[keep])), return_inverse=True)
    quotient = np.zeros((len(elements), len(strings)), dtype=complex)
    np.add.at(quotient, (owner[keep], cols), coeffs[keep])
    return int(np.linalg.matrix_rank(np.hstack([quotient.real, quotient.imag]), tol=TAU_INDEP))
