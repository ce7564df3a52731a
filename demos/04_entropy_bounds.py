#!/usr/bin/env python3
"""Entropic suppression bounds for general Pauli noise models.

Per-qubit depolarizing noise contracts the relative entropy to the
maximally mixed state by (1-p)^2 per layer, and composing with any unital
Pauli channel cannot undo that. Chaining the contraction through M+1 noise
layers bounds the QFIM quadratic form, which is also the curvature of the
Bures distance: B(rho_theta, rho_theta+t v) grows as t^2 with coefficient
proportional to v^T F v.
"""

import numpy as np

from qfimlab import (
    CompositeChannel,
    LocalDepolarizing,
    PauliChannel,
    PauliString,
    build_circuit,
    bures_distance,
    evolve,
    qfim_of_circuit,
    random_hermitian,
    random_statevector,
    relative_entropy_to_mixed,
    rng_from_seed,
)

rng = rng_from_seed(99)
LN2 = np.log(2)


def banner(title):
    print(f"\n{'=' * 64}\n{title}\n{'=' * 64}")


banner("Relative entropy contracts by (1-p)^2 per noise layer")
n = 2
psi = random_statevector(4, rng)
rho = np.outer(psi, psi.conj())
pauli = PauliChannel(
    [
        (PauliString.identity(n), 0.8),
        (PauliString((1, 0), (0, 0)), 0.12),
        (PauliString((0, 1), (1, 0)), 0.08),
    ]
)
print("  p      S(N(rho)||I/d)   (1-p)^2 S(rho||I/d)")
s0 = relative_entropy_to_mixed(rho)
for p in (0.05, 0.1, 0.3):
    ch = CompositeChannel([pauli, LocalDepolarizing.uniform(n, p)])
    print(f"  {p:<6g} {relative_entropy_to_mixed(ch.apply(rho)):<16.6f} {(1 - p) ** 2 * s0:.6f}")

banner("Chained bound on the QFIM quadratic form")
gens = [random_hermitian(4, rng, traceless=True) for _ in range(2)]
gens = [g / np.linalg.norm(np.linalg.eigvalsh(g), np.inf) / 2 for g in gens]
m = 4
circ = build_circuit(n, gens, [0, 1, 0, 1])
theta = rng.uniform(0, 2 * np.pi, m)
print("  p      max_delta delta^T F delta    8 ln2 (1-p)^(2(M+1)) S(rho||I/d)")
for p in (0.05, 0.1, 0.2):
    noisy = circ.with_uniform_noise(CompositeChannel([pauli, LocalDepolarizing.uniform(n, p)]))
    rep = qfim_of_circuit(noisy, theta, rho)
    rhs = 8 * LN2 * (1 - p) ** (2 * (m + 1)) * s0
    print(f"  {p:<6g} {rep.eigenvalues[0]:<28.6f} {rhs:.6f}")

banner("The QFIM is the curvature of the Bures distance")
p = 0.1
noisy = circ.with_uniform_noise(CompositeChannel([pauli, LocalDepolarizing.uniform(n, p)]))
rep = qfim_of_circuit(noisy, theta, rho)
base = evolve(noisy, theta, rho)
v = rng.standard_normal(m)
v /= np.linalg.norm(v)
quad = float(v @ rep.matrix @ v)
print("  t        B(rho, rho_t)    B / t^2     v^T F v / 4")
ts = np.array([1e-2, 1e-3, 1e-4])
for t, out in zip(ts, evolve(noisy, theta + ts[:, None] * v, rho)):
    b = bures_distance(base, out)
    print(f"  {t:<8g} {b:<16.3e} {b / t ** 2:<11.5f} {quad / 4:.5f}")
print("""
The fitted coefficient lands on v^T F v / 4, the standard second-order
normalization of the Bures expansion.""")
