"""Weyl operators, characteristic functions, and the discrete Hudson picture.

Builds the qutrit Weyl basis, shows a characteristic table, and compares
the Wigner function of a stabilizer state against a magic state: the
first is a probability distribution on phase space, the second is not.
"""

import numpy as np

from qps import (
    basis_state,
    char_function,
    enumerate_pure_stabilizers,
    is_clifford,
    make_point,
    pure_state,
    random_clifford,
    weyl_operator,
    wigner,
)

d = 3

print("single-qutrit Weyl operators w(p, q) = chi(-2^{-1} p q) Z^p X^q")
for p, q in [(0, 0), (1, 0), (0, 1), (1, 1)]:
    w = weyl_operator(make_point(p, q, d), d)
    print(f"  w({p},{q}) =")
    for row in w:
        print("    ", "  ".join(f"{v:+.2f}" for v in row))

print("\ncharacteristic table of |0><0| (rows p, columns q): Xi = delta_{q,0}")
print(np.round(char_function(basis_state(0, d)).real, 10))

print("\nWigner function of |0><0| (nonnegative - a stabilizer state):")
print(np.round(wigner(basis_state(0, d)), 6) + 0.0)  # + 0.0 prints a rounded -0 as 0

magic = pure_state(np.array([1, 1, np.exp(2j * np.pi / 9)]) / np.sqrt(3), d)
print("\nWigner function of a magic state (note the negative entries):")
print(np.round(wigner(magic), 6) + 0.0)

floor = min(wigner(s).min() for s, _ in enumerate_pure_stabilizers(1, d))
print(f"\nall 12 pure qutrit stabilizer states have Wigner >= 0 (floor {floor:.1e})")

U = random_clifford(2, d, word_length=12, seed=7)
print(f"random 12-gate Clifford word on two qutrits: is_clifford = {is_clifford(U, d, 2)}")
