#!/usr/bin/env python3
"""Dynamical Lie algebras: what the closure computes and which number bounds
the QFIM rank.

The Lie closure of the gate generators measures a circuit's ultimate
expressiveness: the rank of the noiseless QFIM can never exceed the algebra
dimension. For the Ising ansatz the raw matrix closure overcounts, because
both generators commute with the spin-flip parity X^n and the reference
state |+>^n lives in the even sector; the closure of the sector-restricted
generators is the number that matters (3n/2 for even n). With the generators
written as Pauli sums, one closure gives both numbers at any n: the sector
algebra is the full one with each string Q identified with Q X^n.
"""

import numpy as np

from qfimlab import (
    TOY_GENERATORS,
    PauliSum,
    dla_dimension,
    hva_tfim,
    hva_tfim_pauli_generators,
    lie_closure,
    parity_sector_dimension,
    plus_state_vector,
    qfim_of_circuit,
    rng_from_seed,
)
from qfimlab.circuits import hva_parity_sector_generators
from qfimlab.linalg import X, Z


def banner(title):
    print(f"\n{'=' * 64}\n{title}\n{'=' * 64}")


banner("Small closures")
print(f"  {{Z}}:            dim {dla_dimension([Z])}  (abelian)")
print(f"  {{Z/2, X/2}}:     dim {dla_dimension([Z / 2, X / 2])}  (all of su(2): universal qubit control)")
basis = lie_closure(TOY_GENERATORS)
print("  toy closure basis, expanded over Pauli strings:")
for element in basis.elements:
    labels = PauliSum.from_matrix(element, 1e-10).labels()
    terms = ", ".join(f"{c.imag:+.3f}i {label}" for label, c in labels.items())
    print(f"    {terms}")

banner("Ising ansatz: raw matrix closure vs parity-even sector closure")
print("  n    raw closure   even-sector closure   3n/2")
for n in (2, 4, 6, 8, 10, 12):
    full = lie_closure(hva_tfim_pauli_generators(n))
    sector = parity_sector_dimension(full)
    print(f"  {n:<4d} {full.dim:<13d} {sector:<21d} {3 * n // 2}")

banner("The sector dimension caps the noiseless QFIM rank")
rng = rng_from_seed(5)
n = 4
circuit = hva_tfim(n, 6)
psi = plus_state_vector(n)
sector_dim = dla_dimension(hva_parity_sector_generators(n))
ranks = [qfim_of_circuit(circuit, rng.uniform(0, 2 * np.pi, circuit.n_params), psi).rank
         for _ in range(5)]
print(f"  n={n}, L=6, M={circuit.n_params}: sector dim = {sector_dim}")
print(f"  noiseless ranks at 5 random points: {ranks}  (all <= {sector_dim})")
print("""
With M = 12 parameters against an algebra of dimension 6 the circuit is
overparametrized: more parameters cannot unlock more directions. The raw
matrix closure (dim 11 here) counts extra directions that either act only
on the odd-parity sector or annihilate the reference state, which is why
the sector-restricted number is the sharp rank bound.""")
