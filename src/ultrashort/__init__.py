"""Ultra-short sums of trace functions over roots of integer polynomials.

Modules:
  arith      exact integer/modular/polynomial arithmetic
  lattice    exact integer lattices: HNF, SNF, saturation, LLL
  relations  certified complex roots and relation lattices
  sums       finite-field sum families and Weyl sums
  limitlaw   samplers for the limiting measures and exact moments
  stats      comparisons between finite-level sums and limit laws
  cli        command-line driver (`ultrashort`)
"""

from .arith import (
    IntPoly,
    LaurentPoly,
    PrimePowerModulus,
    RootList,
    discriminant,
    find_split_primes,
    hensel_roots,
    multiplicative_generator,
    roots_mod_prime,
)
from .lattice import smith_normal_form
from .relations import (
    CertifiedBoxList,
    RelationModule,
    additive_relations,
    certified_complex_roots,
    dominant_root_holds,
    gamma_is_zero,
    index_ind,
    joint_power_relations,
    multiplicative_relations,
    value_relations,
)

__all__ = [
    "IntPoly",
    "LaurentPoly",
    "PrimePowerModulus",
    "RootList",
    "discriminant",
    "find_split_primes",
    "hensel_roots",
    "multiplicative_generator",
    "roots_mod_prime",
    "CertifiedBoxList",
    "RelationModule",
    "additive_relations",
    "certified_complex_roots",
    "dominant_root_holds",
    "gamma_is_zero",
    "index_ind",
    "joint_power_relations",
    "multiplicative_relations",
    "smith_normal_form",
    "value_relations",
]

__version__ = "0.1.0"
