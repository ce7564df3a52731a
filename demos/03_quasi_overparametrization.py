#!/usr/bin/env python3
"""Local depolarizing noise turns on every QFIM eigenvalue: the quasi regime.

The Ising-ansatz circuit is overparametrized without noise (rank saturates
well below the parameter count M). Per-qubit depolarizing noise makes all M
eigenvalues nonzero, so a rank-based capacity count jumps to M. At tiny p
the old and new eigenvalue groups stay separated by orders of magnitude (a
"quasi-overparametrized" system); as p grows the gap closes and everything
is exponentially suppressed. The tunable-threshold capacity count D1(eps)
tracks the physically useful directions across all regimes.
"""

import numpy as np

from qfimlab import (
    LocalDepolarizing,
    effective_dim_d1,
    hva_tfim,
    plus_state_vector,
    qfim_of_circuit,
    rng_from_seed,
)

n, layers = 4, 6
circuit = hva_tfim(n, layers)
psi = plus_state_vector(n)
theta = rng_from_seed(42).uniform(0, 2 * np.pi, circuit.n_params)

base = qfim_of_circuit(circuit, theta, psi)
print(f"Ising ansatz: n={n}, L={layers}, M={circuit.n_params} parameters")
print(f"noiseless rank: {base.rank} (lambda_max = {base.eigenvalues[0]:.3f})\n")

print(f"{'p':>8}  {'rank':>4}  {'D1(1e-2)':>8}  {'top group':>12}  {'new group':>12}  {'gap':>9}")
r0 = base.rank
for p in (0.0, 1e-6, 1e-5, 1e-3, 1e-2, 0.08):
    if p == 0.0:
        rep = base
    else:
        rep = qfim_of_circuit(circuit.with_uniform_noise(LocalDepolarizing.uniform(n, p)), theta, psi)
    lam = rep.eigenvalues
    top_min, new_max = lam[r0 - 1], lam[r0]
    gap = top_min / new_max if new_max > 0 else float("inf")
    d1_eps = effective_dim_d1(rep, epsilon=1e-2)
    print(f"{p:>8g}  {rep.rank:>4d}  {d1_eps:>8d}  {top_min:>12.4e}  {new_max:>12.4e}  {gap:>9.2e}")

print("""
Reading the table:
- p = 0: rank stuck at the saturated noiseless value; M - rank parameters
  are redundant (overparametrized circuit).
- tiny p: rank jumps to M (all directions open), but the new eigenvalues sit
  orders of magnitude below the old ones; the threshold count D1(eps) still
  sees only the strong group. This is the quasi-overparametrized regime.
- large p: the gap closes while every eigenvalue collapses; the rank says
  "maximal capacity" exactly when the state has stopped responding to
  parameter changes. Rank-based capacity measures mislead under noise.""")
