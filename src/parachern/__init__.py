"""Exact intersection-theory calculator for parabolic bundle Chern classes.

The package models Chow rings as truncated graded polynomial rings over
exact rationals, presents parabolic bundles as weighted sums of bundle
classes, and computes their Chern classes from the Chern character on the
base.  It verifies the classes on a formal cover, through the defining
tautological-line-bundle relation and pullback compatibility, and checks the
direct sum, dual and tensor identities.  A small scene language and a CLI
drive everything from text files.
"""

from .rings import (
    GradedRing,
    RingElement,
    RingMismatchError,
    InputError,
    character_from_chern,
    chern_from_character,
    exp_nilpotent,
    format_terms,
)
from .chow import (
    CoverModel,
    MissingIntegralError,
    Variety,
    integrate,
    make_cover,
)
from .bundles import (
    OrdinaryBundleClass,
    ParabolicBundle,
    cover_bundle,
    direct_sum,
    dual,
    relation_classes,
    tensor,
    trivial_line,
)
from .grothendieck import (
    PairIdentityChecks,
    RelationCheck,
    verify_pair_identities,
    verify_relation,
)
from .frontend import (
    Diagnostic,
    ElaborationError,
    ParseError,
    Scene,
    SceneAST,
    elaborate,
    format_program,
    parse_program,
)
from .cli import run

__version__ = "0.1.0"

__all__ = [
    "GradedRing",
    "RingElement",
    "RingMismatchError",
    "InputError",
    "character_from_chern",
    "chern_from_character",
    "exp_nilpotent",
    "format_terms",
    "CoverModel",
    "MissingIntegralError",
    "Variety",
    "integrate",
    "make_cover",
    "OrdinaryBundleClass",
    "ParabolicBundle",
    "cover_bundle",
    "direct_sum",
    "dual",
    "relation_classes",
    "tensor",
    "trivial_line",
    "PairIdentityChecks",
    "RelationCheck",
    "verify_pair_identities",
    "verify_relation",
    "Diagnostic",
    "ElaborationError",
    "ParseError",
    "Scene",
    "SceneAST",
    "elaborate",
    "format_program",
    "parse_program",
    "run",
]
