"""Exact computation of involution centralizers in finite Coxeter groups.

The package builds every finite irreducible Coxeter group on exact
arithmetic (Q, or Q(sqrt5) for the icosahedral types), enumerates its
conjugacy classes of involutions, computes the full centralizer structure
of each class, and checks the results against embedded reference tables.
"""

from .coxtype import CoxeterType, factored
from .group import CoxeterGroup
from .involutions import (
    InvolutionClass,
    cube_decompositions,
    enumerate_involution_classes,
    first_cube,
)
from .permengine import SubgroupHandle
from .rootsys import (
    CapabilityError,
    DihedralModel,
    RootSystem,
    build_system,
    extended_diagram_Y,
)
from .scalars import Scalar
from .structure import (
    CentralizerProfile,
    RecognitionError,
    ViolationError,
    centralizer,
    profiles_for_group,
    reflection_subgroup_type,
    run_property_suite,
    tilde_side,
)
from .tables import analyze, compare_rows, computed_rows, expected_rows, verify_type

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "CentralizerProfile",
    "CoxeterGroup",
    "CoxeterType",
    "DihedralModel",
    "InvolutionClass",
    "RecognitionError",
    "RootSystem",
    "Scalar",
    "SubgroupHandle",
    "ViolationError",
    "analyze",
    "build_system",
    "centralizer",
    "compare_rows",
    "computed_rows",
    "cube_decompositions",
    "enumerate_involution_classes",
    "expected_rows",
    "extended_diagram_Y",
    "factored",
    "first_cube",
    "profiles_for_group",
    "reflection_subgroup_type",
    "run_property_suite",
    "tilde_side",
    "verify_type",
]
