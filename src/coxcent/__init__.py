"""Exact computation of involution centralizers in finite Coxeter groups.

The package builds every finite irreducible Coxeter group on exact
integer arithmetic (root coordinates in Z, or in Z[phi] with
phi = (1 + sqrt5) / 2 for the icosahedral types), enumerates its
conjugacy classes of involutions, computes the full centralizer structure
of each class, and checks the results against embedded reference tables.
"""

from .coxtype import CoxeterType
from .group import CoxeterGroup
from .involutions import enumerate_involution_classes
from .structure import profiles_for_group
from .tables import analyze, compare_rows, computed_rows, expected_rows

__version__ = "0.1.0"

__all__ = [
    "CoxeterGroup",
    "CoxeterType",
    "analyze",
    "compare_rows",
    "computed_rows",
    "enumerate_involution_classes",
    "expected_rows",
    "profiles_for_group",
]
