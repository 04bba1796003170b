"""
Algebra screening, Witt-style invariants, anisotropy
====================================================

Necessary-condition screens for commutative algebra objects, and the
coarse invariants that obstruct two data sets from sharing a Witt
class.
"""

from mdkit import (anisotropy_screen, local_modules_dim, preset,
                   screen_algebra, witt_invariants, witt_obstruction)

# In the toric code, 1 + e is a Lagrangian algebra: d(Gamma)^2 equals
# the global dimension, so the local modules are trivial.
tc = preset("toric_code")
cand = screen_algebra(tc, [1, 1, 0, 0])
for v in cand.verdicts:
    print(f"  {v.name:22s} {'pass' if v.passed else 'FAIL'}")
print("local module dim:", local_modules_dim(cand))

# The fermion 1 + f fails: f has twist -1, and a commutative algebra
# needs trivial twists on its support.
bad = screen_algebra(tc, [1, 0, 0, 1])
print("1+f passes:", bad.passes,
      "| twist residual", bad.verdict("trivial_twist_support").residual)

# witt_invariants packages dimension, charge, Gauss sum and a
# center-candidate verdict with reasons when it fails.
wi = witt_invariants(preset("fibonacci"))
print("\nfibonacci center candidate:", wi.is_center_candidate)
for reason in wi.reasons:
    print("  -", reason)

# Toric code and double semion have the same fusion dimensions but
# that alone decides nothing; the obstruction test compares charges
# and searches the product with the reversed partner.
ob = witt_obstruction(tc, preset("double_semion"))
print("\ntoric vs double semion:", ob.verdict)

# A completely anisotropic data set admits no nontrivial candidate at
# all.  Fibonacci is the standard example; the toric code famously has
# two.
print("\nfibonacci:", anisotropy_screen(preset("fibonacci")).nontrivial)
print("toric code:", anisotropy_screen(tc).nontrivial)
