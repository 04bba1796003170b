"""
Enumerating modular invariants
==============================

Nonnegative-integer matrices Z with Z_00 = 1 commuting with S and T.
For the SU(2) levels these reproduce the classical A-D-E patterns.
"""

import numpy as np

from mdkit import commutant_basis, enumerate_invariants, su2_level

# Level 10 is the first level with three invariants.
md = su2_level(10)
cb = commutant_basis(md)
print(f"commutant dimension {cb.dimension}, "
      f"rationalized={cb.rationalized}")

for inv in enumerate_invariants(md):
    print(f"\n{inv.kind}:")
    print(inv.Z)

# The "block" one above pairs the labels (0,6), (3,7), (4,10): it is
# the E-type exceptional at this level, found by the same search over
# the commutant's pivot coordinates that returns the diagonal and the
# D-type permutation.

# Across two different data sets the solver answers an emptier
# question: are there any invariants at all?
from mdkit import preset

fib, ising = preset("fibonacci"), preset("ising")
print("\nfibonacci vs ising:", enumerate_invariants(fib, ising))
