"""anisocalc: exact-arithmetic calculus for anisotropic function spaces.

Decides embeddings, m-linear multiplications, multiplier estimates, the
multiplication-algebra criterion and analytic superposition gates over
exact rational parameters; solves admissible integrability ranges
symbolically; and numerically probes the intrinsic seminorms.
"""

from .embed import (COUPLED, Decision, Status, TraceEntry, Verdict, embeds,
                    interpolate_complex, interpolate_real)
from .errors import (ClosureFromUncovered, EngineError, HypothesisViolation,
                     IncompatibleSpaces, InfeasibleRange, NoInterpolationRule,
                     NotIdentifiable, ResolutionError, UncoveredInstance,
                     Unsupported, WrongScale)
from .lemmas import (MinimizationInput, MinimizerRule, RealizationInput,
                     minimize_phi, realize_exponents)
from .multiply import (MultInstance, decide_algebra, decide_multiplication,
                       decide_multiplier, interpolation_closure,
                       reduced_multiplication)
from .nemytskij import AnalyticSpec, ConstantsLedger, decide_nemytskij
from .psolver import ExcludedPoint, Interval, ParamSet, solve_param
from .ratcore import AffineExpr, ParamEnv, Rational, X
from .spaces import (SCALARS, Anisotropy, Scale, SpaceDescr, TargetSpace,
                     isotropic, lp_valued, normalize, parabolic, sobolev_index)

__version__ = "0.1.0"

__all__ = [
    "AffineExpr", "AnalyticSpec", "Anisotropy",
    "ClosureFromUncovered", "ConstantsLedger", "COUPLED", "Decision",
    "EngineError", "ExcludedPoint", "HypothesisViolation",
    "IncompatibleSpaces", "InfeasibleRange", "Interval", "MinimizationInput",
    "MinimizerRule", "MultInstance", "NoInterpolationRule",
    "NotIdentifiable", "ParamEnv", "ParamSet",
    "Rational", "RealizationInput", "ResolutionError", "SCALARS", "Scale",
    "SpaceDescr", "Status", "TargetSpace", "TraceEntry", "UncoveredInstance",
    "Unsupported", "Verdict", "WrongScale", "X", "decide_algebra",
    "decide_multiplication", "decide_multiplier", "decide_nemytskij",
    "embeds", "interpolate_complex",
    "interpolate_real", "interpolation_closure", "isotropic", "lp_valued",
    "minimize_phi", "normalize", "parabolic", "realize_exponents",
    "reduced_multiplication", "sobolev_index", "solve_param",
]
