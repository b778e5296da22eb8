"""Exact computer algebra for spinor-valued symmetry breaking kernels.

Submodules:

  paramfield  Gaussian rationals, rational functions in (lam, nu), Gamma tokens
  cliffspin   Clifford algebras, Pin covers, spin modules and branching maps
  monogenics  spinor polynomials, Dirac operator, Gegenbauer identities,
              degree-raising embeddings, lattice proportionality constants
  kernelcalc  distribution-kernel families and their algebraic identity suite
  sbolattice  the K-type recurrence system and multiplicity tables
  cli         verification harness

Every lru_cache on a function that takes arguments is typed=True: a float or
bool equal to a cached int is a new key, so the function's own argument
check runs whatever ran before.
"""

__version__ = "0.1.0"
