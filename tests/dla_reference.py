"""Reference implementations for the Lie-closure tests.

- :func:`per_pair_closure` takes the closure one pair at a time: each pair
  is commuted by :func:`pair_commutator`, which merges repeated strings
  through ``np.unique`` over packed-byte keys, and its strings get columns
  through a dict, one at a time. This is the loop that ``lie_closure`` batches,
  so the two must give the same elements bit for bit.
- :class:`ResidualBasis` measures how far a matrix lies from the span of a
  basis of dense matrices.
"""

import numpy as np

from qfimlab.dla import _CHOP, TAU_INDEP, LieBasis, PauliSum
from qfimlab.exceptions import CapExceededError
from qfimlab.linalg import commutator


class ResidualBasis(LieBasis):
    """A basis of dense matrices that can measure residuals against its span."""

    def project_residual(self, mat: np.ndarray) -> float:
        """Norm of the matrix ``mat`` after removing its projection onto the
        span, by two Gram-Schmidt passes in ``Re Tr[a†b]``."""
        r = np.array(mat, dtype=complex).ravel().view(np.float64)
        rows = np.array([np.asarray(e, dtype=complex).ravel() for e in self.elements]).view(np.float64)
        for _ in range(2):
            r -= (rows @ r) @ rows
        return float(np.linalg.norm(r))


def merged(bits: np.ndarray, coeffs: np.ndarray) -> PauliSum:
    """Pauli sum with repeated strings added up and exact zeros dropped, strings in
    byte order of their packed bits."""
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


def pair_commutator(a: PauliSum, b: PauliSum) -> PauliSum:
    """``[a, b]`` over all term pairs, by symplectic parity and XOR."""
    n = a.n_qubits
    fa, fb = a.bits.astype(float), b.bits.astype(float)
    sign_dot = fa[:, n:] @ fb[:, :n].T
    i, j = np.nonzero((fa[:, :n] @ fb[:, n:].T + sign_dot) % 2 == 1)
    coeffs = 2.0 * a.coeffs[i] * b.coeffs[j] * (1.0 - 2.0 * (sign_dot[i, j] % 2))
    return merged(a.bits[i] ^ b.bits[j], coeffs)


def per_pair_closure(generators, max_dim: int | None = None) -> LieBasis:
    """``lie_closure`` with one commutator and one independence test per pair."""
    gens = list(generators)
    if isinstance(gens[0], PauliSum):
        gens = [merged(np.asarray(g.bits, np.uint8), np.asarray(g.coeffs, complex)) for g in gens]
        skew_gens = [PauliSum(g.bits, 1j * g.coeffs) for g in gens]
        column: dict[bytes, int] = {}
        strings: list[np.ndarray] = []

        def vector(s):
            cols = []
            for key, row in zip(np.packbits(s.bits, axis=1), s.bits):
                key = key.tobytes()
                if key not in column:
                    column[key] = len(strings)
                    strings.append(row)
                cols.append(column[key])
            v = np.zeros(len(strings), dtype=complex)
            v[cols] = s.coeffs
            return v

        def element(v):
            keep = np.nonzero(np.abs(v) > _CHOP)[0]
            return PauliSum(np.array(strings)[keep], v[keep])

        def bracket(a, b):
            return vector(pair_commutator(a, b))

        cap = 4 ** gens[0].n_qubits
    else:
        d = len(gens[0])
        skew_gens = [1j * np.asarray(g, dtype=complex) for g in gens]

        def vector(mat):
            return mat.ravel()

        def element(v):
            return v.reshape(d, d)

        def bracket(a, b):
            return commutator(a, b).ravel()

        cap = d * d
    cap = cap if max_dim is None else max_dim

    rows = np.zeros((0, 0))
    elements: list = []

    def project_out(r):
        w = rows.shape[1]
        r[:w] -= (rows @ r[:w]) @ rows

    def try_add(v):
        nonlocal rows
        r = np.array(v, dtype=complex).view(np.float64)
        project_out(r)
        if float(np.linalg.norm(r)) <= TAU_INDEP:
            return
        project_out(r)
        norm = float(np.linalg.norm(r))
        if norm <= TAU_INDEP:
            return
        if len(elements) >= cap:
            raise CapExceededError(f"Lie closure exceeded the dimension cap {cap}", partial_dim=len(elements))
        r /= norm
        rows = np.vstack([np.pad(rows, ((0, 0), (0, len(r) - rows.shape[1]))), r])
        elements.append(element(r.view(complex)))

    for g in skew_gens:
        try_add(vector(g))
    i = 1
    while i < len(elements):
        for j in range(i):
            try_add(bracket(elements[j], elements[i]))
        i += 1
    return LieBasis(tuple(elements))
