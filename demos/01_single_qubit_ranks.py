#!/usr/bin/env python3
"""Single-qubit model: how bit-flip noise reshapes the QFIM rank and spectrum.

A full-rank qubit state (0.9|+><+| + 0.1 I/2) runs through four alternating
Z/X rotations. The quantum Fisher information matrix at a parameter point
counts the independent state-space directions reachable by nudging the four
angles. Bit-flip noise before and after every gate can unlock the radial
(purity-changing) direction that unitary circuits never reach.
"""

import numpy as np

from qfimlab import TOY_THETAS, bit_flip, bloch_coords, evolve, qfim_of_circuit, rng_from_seed, toy_model


def banner(title):
    print(f"\n{'=' * 64}\n{title}\n{'=' * 64}")


def show_point(circuit, rho, label, theta):
    report = qfim_of_circuit(circuit, theta, rho)
    eigs = ", ".join(f"{v: .4e}" for v in report.eigenvalues)
    print(f"  {label}: rank {report.rank}   eigenvalues [{eigs}]")
    return report


circuit, rho = toy_model()
noisy = circuit.with_uniform_noise(bit_flip(0.1))

banner("Noiseless ranks at the three canonical parameter points")
for label, theta in TOY_THETAS.items():
    show_point(circuit, rho, label, theta)
print("""
The state lives on a fixed-purity shell (a 2-sphere), so at most two
directions are ever available; the all-zero point only reaches one because
the input is a fixed point of both X rotations.""")

banner("Bit-flip noise with p = 0.1 before and after every gate")
for label, theta in TOY_THETAS.items():
    show_point(noisy, rho, label, theta)
print("""
The first two points keep their noiseless ranks: every bit-flip channel they
encounter acts on a state it either fixes or can be commuted to the end, and
a terminal channel can never increase the rank.""")

banner("The third point is an exact degeneracy; generic points give rank 3")
nudged = TOY_THETAS["theta3"] + 1e-3 * np.array([1.0, -1.0, 1.0, 1.0])
show_point(noisy, rho, "theta3 + 1e-3 nudge", nudged)
rng = rng_from_seed(7)
show_point(noisy, rho, "uniform random theta", rng.uniform(0, 2 * np.pi, 4))
print("""
At exactly (pi/2, pi/4, pi/4, pi/4) the four Bloch-space tangent vectors are
coplanar for every bit-flip strength, an exact-arithmetic accident of this
point. Any perturbation exposes the noise-enabled third direction: noise
lets the circuit trade purity for position, enlarging the reachable set.""")

banner("Eigenvalues shrink monotonically with p (new directions included)")
print("  p      lambda_1     lambda_2     lambda_3")
for p in (1e-3, 1e-2, 0.05, 0.1, 0.2, 0.4):
    report = qfim_of_circuit(circuit.with_uniform_noise(bit_flip(p)), nudged, rho)
    l1, l2, l3 = report.eigenvalues[:3]
    print(f"  {p:<6g} {l1:.6f}     {l2:.6f}     {l3:.8f}")
print("""
Noise giveth and noise taketh away: it opens the third direction but
suppresses sensitivity along all of them.""")

banner("Where the state actually goes (Bloch coordinates)")
for label, theta in TOY_THETAS.items():
    x, y, z = bloch_coords(evolve(noisy, theta, rho))
    r = np.sqrt(x * x + y * y + z * z)
    print(f"  {label}: ({x: .4f}, {y: .4f}, {z: .4f})   |r| = {r:.4f}  (input |r| = 0.9)")
