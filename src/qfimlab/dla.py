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
element before it; a candidate joins the basis when its residual after
projection exceeds ``TAU_INDEP``. See :func:`lie_closure` for why this
terminates with a closed span.
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


def _merged(bits: np.ndarray, coeffs: np.ndarray) -> PauliSum:
    """Pauli sum with the coefficients of repeated strings added up; exact zeros dropped."""
    if len(bits) == 0:
        return PauliSum(bits, coeffs)
    packed = np.ascontiguousarray(np.packbits(bits, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    inverse = inverse.ravel()
    summed = np.bincount(inverse, coeffs.real, len(first)) + 1j * np.bincount(
        inverse, coeffs.imag, len(first)
    )
    keep = summed != 0
    return PauliSum(bits[first[keep]], summed[keep])


def pauli_commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``[a, b]`` of two Pauli sums, over all term pairs at once.

    Strings ``P1 = X^a1 Z^b1`` and ``P2 = X^a2 Z^b2`` anticommute when
    ``a1.b2 + b1.a2`` is odd, and then
    ``[P1, P2] = 2 (-1)^(b1.a2) X^(a1^a2) Z^(b1^b2)``; otherwise they commute.
    The dot products of all pairs are two 0/1 matrix products, exact in
    floating point.
    """
    if a.n_qubits != b.n_qubits:
        raise DimensionMismatchError(f"Pauli sums on {a.n_qubits} and {b.n_qubits} qubits")
    n = a.n_qubits
    fa, fb = a.bits.astype(float), b.bits.astype(float)
    sign_dot = fa[:, n:] @ fb[:, :n].T
    i, j = np.nonzero((fa[:, :n] @ fb[:, n:].T + sign_dot) % 2 == 1)
    coeffs = 2.0 * a.coeffs[i] * b.coeffs[j] * (1.0 - 2.0 * (sign_dot[i, j] % 2))
    return _merged(a.bits[i] ^ b.bits[j], coeffs)


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

    def bracket(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return commutator(a, b).ravel()


class _PauliCoordinates:
    """Pauli sums, one coordinate per string, columns added as strings appear."""

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
        self.skew_gens = [PauliSum(g.bits, 1j * g.coeffs) for g in gens]
        self.max_dim = 4**n
        self.column: dict[bytes, int] = {}
        self.rows: list[np.ndarray] = []

    def vector(self, s: PauliSum) -> np.ndarray:
        cols = []
        for key, row in zip(np.packbits(s.bits, axis=1), s.bits):
            key = key.tobytes()
            if key not in self.column:
                self.column[key] = len(self.rows)
                self.rows.append(row)
            cols.append(self.column[key])
        v = np.zeros(len(self.rows), dtype=complex)
        v[cols] = s.coeffs
        return v

    def element(self, v: np.ndarray) -> PauliSum:
        keep = np.nonzero(np.abs(v) > _CHOP)[0]
        return PauliSum(np.array(self.rows)[keep], v[keep])

    def bracket(self, a: PauliSum, b: PauliSum) -> np.ndarray:
        return self.vector(pauli_commutator(a, b))


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

    def project_residual(self, mat: np.ndarray) -> float:
        """Norm of the matrix ``mat`` after removing its projection onto the span.

        For bases of dense matrices.
        """
        r = np.array(mat, dtype=complex).ravel().view(np.float64)
        rows = np.array([np.asarray(e, dtype=complex).ravel() for e in self.elements])
        rows = rows.reshape(self.dim, r.size // 2).view(np.float64)
        _project_out(r, rows)
        _project_out(r, rows)
        return float(np.linalg.norm(r))


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

    # Orthonormal real views of the elements, one row each, widened with
    # zeros when new strings appear.
    rows = np.zeros((0, 0))
    elements: list = []

    def try_add(v: np.ndarray) -> None:
        nonlocal rows
        r = np.array(v, dtype=complex).view(np.float64)
        _project_out(r, rows)
        # most candidates end here; a second pass could only shrink their residual
        if float(np.linalg.norm(r)) <= TAU_INDEP:
            return
        _project_out(r, rows)
        norm = float(np.linalg.norm(r))
        if norm <= TAU_INDEP:
            return
        if len(elements) >= cap:
            raise CapExceededError(f"Lie closure exceeded the dimension cap {cap}", partial_dim=len(elements))
        r /= norm
        rows = np.vstack([np.pad(rows, ((0, 0), (0, len(r) - rows.shape[1]))), r])
        elements.append(coords.element(r.view(complex)))

    for g in coords.skew_gens:
        try_add(coords.vector(g))
    i = 1
    while i < len(elements):
        for j in range(i):
            try_add(coords.bracket(elements[j], elements[i]))
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
    column: dict[bytes, int] = {}
    cols = [column.setdefault(key.tobytes(), len(column)) for key in np.packbits(bits[keep], axis=1)]
    quotient = np.zeros((len(elements), len(column)), dtype=complex)
    np.add.at(quotient, (owner[keep], cols), coeffs[keep])
    return int(np.linalg.matrix_rank(np.hstack([quotient.real, quotient.imag]), tol=TAU_INDEP))
