"""The mean state as a resource-destroying map, and the magic gap.

M(rho) keeps the characteristic function exactly where |Xi| = 1.  It is
the closest MSPS in every Renyi relative entropy, and the gap to the
second-largest |Xi| value bounds how fast repeated convolution forgets
the non-stabilizer part of the state.
"""

import math

import numpy as np

from qps import (
    closest_msps,
    lmg_t_count_check,
    magic_gap,
    mean_state,
    pure_state,
    random_state,
    renyi_entropy,
    renyi_relative,
    basis_state,
    zero_mean_shift,
)

# the qubit T-state: |Xi| values are {1, 1/sqrt2, 1/sqrt2, 0}
t_state = pure_state(np.array([1, np.exp(1j * np.pi / 4)]) / np.sqrt(2), 2)
rep = mean_state(t_state)
print("T-state mean state M(rho):")
print(np.round(rep.mean.mat.real, 6))
gap = magic_gap(t_state)
print(f"magic gap = {gap.gap:.6f} (= 1 - 1/sqrt2), LMG = {gap.log_gap}, support = {gap.support_size}")

print("\nextremality: D_a(rho || M(rho)) = H_a(M) - H_a(rho), and M is the brute-force minimizer")
rho = random_state(1, 3, seed=11)
m = mean_state(rho).mean
for alpha in (1, 2, math.inf):
    sigma, value = closest_msps(rho, alpha)
    closed = renyi_entropy(m, alpha) - renyi_entropy(rho, alpha)
    print(f"  alpha={alpha}: brute min {value:.10f}  closed form {closed:.10f}  "
          f"direct {renyi_relative(rho, m, alpha):.10f}")

print("\nzero-mean shift: |2><2| on a qutrit has mean-value vector (k) != 0")
rho = basis_state(2, 3)
print("  mean-value vector before:", np.array(mean_state(rho).phases))
point, shifted = zero_mean_shift(rho)
print(f"  conjugating by w{tuple(point.tolist())} gives "
      f"mean-value vector {np.array(mean_state(shifted).phases)}")

print("\nT-count bound: LMG(V rho V^dag) <= LMG(rho) + #T/2")
word = [("H", 0), ("T", 0), ("S", 0), ("T", 0)]
lhs, rhs = lmg_t_count_check(basis_state(0, 2), word)
print(f"  word H T S T on |0><0|: LMG out = {lhs:.4f} <= {rhs:.4f} = 0 + 2/2")
