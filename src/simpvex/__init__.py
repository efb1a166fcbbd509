"""Simpson-rule defect bounds on invex intervals.

Compute the gap between the 1-4-1 Simpson combination of a function and
its mean over an interval reached by a direction map eta, verify the
kernel-integral identity behind it, check preinvexity/prequasiinvexity
hypotheses by dense sampling, and evaluate every closed-form bound that
dominates the gap.  See the README for the CLI and corpus format.
"""

from .errors import (
    BudgetExhausted,
    CaseConfigError,
    DomainError,
    EvalDomainError,
    InvalidEta,
    MissingFourthDerivative,
    NonFiniteIntegrand,
    ParseError,
    PreconditionUnmet,
    QuadratureError,
    SimpvexError,
)
from .expr import compile_expr, evaluate, parse, pretty
from .kernel import eval_m, half_weights, moment_p, moment_p_exact, weighted_moments
from .quadrature import QuadratureResult, integrate
from .invexity import (
    Domain,
    EtaMap,
    PropertyReport,
    SampleGrid,
    check_derivative,
    check_invex_set,
    check_pair,
)
from .bounds import (
    BoundValue,
    FunctionModel,
    SimpsonDefect,
    bound_C4_2_midpoint,
    bound_T3_1,
    bound_T3_2,
    bound_T3_3,
    bound_T3_4,
    bound_T4_1,
    bound_T4_2,
    bound_T4_3,
    bound_classical,
    lemma_rhs,
    simpson_defect,
)
from .runner import (
    CaseResult,
    CorpusCase,
    RunReport,
    TightnessResult,
    Tolerances,
    aggregate_exit_code,
    load_case,
    load_corpus,
    run_case,
    run_corpus,
    tightness_scan,
)

__version__ = "0.1.0"
