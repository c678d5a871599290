"""Exact deformation cohomology of finite-dimensional nilpotent Lie algebras.

The package computes, entirely in exact arithmetic over Q or Q(i):

* structure-constant brackets, nilpotency operators and their differentials,
* second cohomology of the adjoint representation restricted to the variety
  of (at most) k-step nilpotent brackets, with rigidity certificates,
* augmented-exactness certificates for parametric families (rigid curves),
* the polynomial ideals cut out by the Jacobi and nilpotency conditions in
  the upper-triangular chart, with bounded-degree membership certificates
  and a small Groebner engine for non-membership,
* a catalog of low-dimensional algebras, families and degeneration
  witnesses, plus a CLI that reproduces the published dimension tables.
"""

from .scalars import QI, FIELD_Q, FIELD_QI
from .linalg import solve
from .liealg import StructureConstants
from .cohomology import augmented_exactness, h2_dim, h2_knil
from .tables import parse_table

__all__ = [
    "QI",
    "FIELD_Q",
    "FIELD_QI",
    "StructureConstants",
    "augmented_exactness",
    "h2_dim",
    "h2_knil",
    "parse_table",
    "solve",
]

__version__ = "0.1.0"
