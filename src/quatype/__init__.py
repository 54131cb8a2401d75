"""quatype: quaternion-type calculus for real Clifford algebras.

Exact multivector arithmetic in Cl(p,q), k-fold commutators and their
expansion identities, rank/type predictions for powers and elementary
functions, and a small typed expression language whose static type
inference is verified against concrete random evaluation.
"""

import importlib.util
import sys


def _lazy_submodule(name: str):
    """Bind the submodule ``name`` in sys.modules without running it; its first attribute access loads it."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the array kernels, the only module that imports numpy, load on the first
# dense operation: the residue rules and small sparse products need no array
_accel = _lazy_submodule("_accel")

from .algebra import (
    ApproxMultivector,
    Multivector,
    Signature,
    SignatureMismatchError,
    blade_product,
    ext_blade_product,
    ext_mul,
    format_multivector,
    from_json,
    from_obj,
    geo_mul,
    grade_project,
    parity_split,
    qtype_project,
    random_multivector,
    to_json,
    to_obj,
)
from .brackets import (
    BracketTree,
    class_type_uniformity,
    enumerate_trees,
    eval_tree,
    expand_kfold,
    expand_product,
    kfold,
    product_grade_envelope,
)
from .dsl import CheckReport, ParseError, UntypedVariableError, check, infer, parse, render
from .powers import (
    cl_power,
    ext_power,
    ext_series_fn,
    predict_cl_power,
    predict_cl_power_qtype,
    predict_ext_power,
    predict_series_qtype,
    series_fn,
)
from .qtypes import (
    ANTICOMMUTATOR,
    COMMUTATOR,
    BracketKind,
    InfeasibleDeclarationError,
    MusicalOp,
    QType,
    infer_kfold,
    infer_kfold_set,
    infer_pair,
    infer_pair_musical,
    infer_product,
    infer_product_set,
    musical_apply,
    musical_compose,
    qtype_of,
    qtype_of_approx,
    random_of_type,
    triple_table,
)

__version__ = "0.1.0"
