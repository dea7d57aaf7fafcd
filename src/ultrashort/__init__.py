"""Ultra-short sums of trace functions over roots of integer polynomials.

Modules:
  arith      exact integer/modular/polynomial arithmetic
  lattice    exact integer lattices: HNF, SNF, saturation, LLL
  relations  certified complex roots and relation lattices
  sums       finite-field sum families and Weyl sums
  limitlaw   samplers for the limiting measures and exact moments
  stats      comparisons between finite-level sums and limit laws
  cli        command-line driver (`ultrashort`), the only module that writes files

The certified layer (`relations`, `balls`, `lattice` and mpmath under them)
is imported on first use of one of its names, so `import ultrashort.cli`
and the commands that need no relation module do not load it.
"""

import importlib
import os

# numpy's OpenBLAS starts a thread per core as it loads, and no code here
# makes a threaded BLAS call: unless the caller chose a count, load it with
# one, and take the variable back so that child processes do not inherit it
if "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    importlib.import_module("numpy")
    del os.environ["OPENBLAS_NUM_THREADS"]

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

# name -> the submodule that defines it, imported by __getattr__ on first use
_LAZY = {
    "CertifiedBoxList": "relations",
    "RelationModule": "relations",
    "additive_relations": "relations",
    "certified_complex_roots": "relations",
    "dominant_root_holds": "relations",
    "gamma_is_zero": "relations",
    "index_ind": "relations",
    "index_relations": "relations",
    "joint_power_relations": "relations",
    "multiplicative_relations": "relations",
    "smith_normal_form": "lattice",
    "value_relations": "relations",
}

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
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
