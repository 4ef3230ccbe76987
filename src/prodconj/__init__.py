"""Conjugate-connection calculus on a single coordinate chart.

The package evaluates identities of product conjugate connections as
numerical residuals: expression trees differentiate exactly to order-2
jets, connections compose as operators over batched sample points, and
declarative scenario files drive suites of checks into deterministic
reports.
"""

from .conjugation import (
    ConjugateConnection,
    Pencil,
    chi_tensor,
    psi_connection,
)
from .connections import (
    ChristoffelConnection,
    ConnectionOp,
    LeviCivitaConnection,
    SumConnection,
    flat_connection,
)
from .distributions import DistributionSpec, ProjectorPair, SchoutenConnection
from .errors import ConfigError, EvaluationError, OrderError, ScenarioError
from .expr import Expr, parse_expr, format_expr
from .fields import (
    Chart,
    EndoField,
    EvalContext,
    MetricField,
    OneFormField,
    Tensor12Field,
    VectorField,
    context_for,
)
from .generalized import GeneralizedConjugate
from .jets import Jet, eval_jet
from .reporting import CheckRow, Report, Residual
from .runner import corpus_names, run_scenario
from .sampling import SamplePlan
from .scenario import Scenario, load_scenario

__all__ = [
    "Chart",
    "CheckRow",
    "ChristoffelConnection",
    "ConfigError",
    "ConjugateConnection",
    "ConnectionOp",
    "DistributionSpec",
    "EndoField",
    "EvalContext",
    "EvaluationError",
    "Expr",
    "GeneralizedConjugate",
    "Jet",
    "LeviCivitaConnection",
    "MetricField",
    "OneFormField",
    "OrderError",
    "Pencil",
    "ProjectorPair",
    "Report",
    "Residual",
    "SamplePlan",
    "Scenario",
    "ScenarioError",
    "SchoutenConnection",
    "SumConnection",
    "Tensor12Field",
    "VectorField",
    "chi_tensor",
    "context_for",
    "corpus_names",
    "eval_jet",
    "flat_connection",
    "format_expr",
    "load_scenario",
    "psi_connection",
    "run_scenario",
]
