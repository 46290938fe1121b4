"""anisocalc: exact-arithmetic calculus for anisotropic function spaces.

Decides embeddings, m-linear multiplications, multiplier estimates, the
multiplication-algebra criterion and analytic superposition gates over
exact rational parameters; solves admissible integrability ranges
symbolically; and numerically probes the intrinsic seminorms.
"""

from .embed import (COUPLED, Decision, Status, TraceEntry, Verdict, embeds,
                    interpolate_complex, interpolate_real, slice_embed)
from .errors import (BadSlice, ClosureFromUncovered, EngineError,
                     HypothesisViolation, IncompatibleSpaces, InfeasibleRange,
                     NoInterpolationRule, NotAnIntersectionForm,
                     NotIdentifiable, ResolutionError, UncoveredInstance,
                     Unsupported, WrongScale)
from .lemmas import (MinimizationInput, MinimizerRule, RealizationInput,
                     minimize_phi, realize_exponents)
from .multiply import (MultInstance, decide_algebra, decide_multiplication,
                       decide_multiplier, interpolation_closure,
                       reduced_multiplication)
from .nemytskij import AnalyticSpec, ConstantsLedger, decide_nemytskij
from .psolver import ExcludedPoint, Interval, ParamSet, solve_param
from .ratcore import AffineExpr, ParamEnv, Rational, X, rat
from .spaces import (SCALARS, Anisotropy, MultSignature, Scale, SpaceDescr,
                     TargetSpace, isotropic, lp_valued, normalize, parabolic,
                     recognize_intersection, register_signature,
                     sobolev_index)

__version__ = "0.1.0"

__all__ = [
    "AffineExpr", "AnalyticSpec", "Anisotropy", "BadSlice",
    "ClosureFromUncovered", "ConstantsLedger", "COUPLED", "Decision",
    "EngineError", "ExcludedPoint", "HypothesisViolation",
    "IncompatibleSpaces", "InfeasibleRange", "Interval", "MinimizationInput",
    "MinimizerRule", "MultInstance", "MultSignature", "NoInterpolationRule",
    "NotAnIntersectionForm", "NotIdentifiable", "ParamEnv", "ParamSet",
    "Rational", "RealizationInput", "ResolutionError", "SCALARS", "Scale",
    "SpaceDescr", "Status", "TargetSpace", "TraceEntry", "UncoveredInstance",
    "Unsupported", "Verdict", "WrongScale", "X", "decide_algebra",
    "decide_multiplication", "decide_multiplier", "decide_nemytskij",
    "embeds", "interpolate_complex",
    "interpolate_real", "interpolation_closure", "isotropic", "lp_valued",
    "minimize_phi", "normalize", "parabolic", "rat", "realize_exponents",
    "recognize_intersection", "reduced_multiplication", "register_signature",
    "slice_embed", "sobolev_index", "solve_param",
]
