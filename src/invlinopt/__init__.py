"""Online inference of linear objectives from observed decisions.

Given a stream of (feasible set, chosen action) pairs, the learner runs
follow-the-regularized-leader over suboptimality losses to predict the
objective vector behind the choices, and the analysis layer certifies the
regret identities and bounds the method is supposed to satisfy, round by
round, against brute-force enumeration oracles.
"""

from .analysis import (
    BoundCheck,
    GapCertificate,
    OfflineEvaluation,
    RegretLedger,
    certify_gap,
    offline_evaluate,
    verify_run,
)
from .core import (
    Ball,
    DagPaths,
    DimensionMismatchError,
    EnumerationRefusedError,
    ExplicitVertices,
    FeasibleSet,
    Hypercube,
    Knapsack,
    MembershipError,
    NormPair,
    Observation,
    PredictionDomain,
    Simplex,
    as_vector,
)
from .learner import (
    ADAPTIVE,
    OFFSET,
    LearnerState,
    init_learner,
    play,
)
from .oracle import OracleResult, argmax, argmax_many

__version__ = "0.1.0"

__all__ = [
    "ADAPTIVE",
    "Ball",
    "BoundCheck",
    "DagPaths",
    "DimensionMismatchError",
    "EnumerationRefusedError",
    "ExplicitVertices",
    "FeasibleSet",
    "GapCertificate",
    "Hypercube",
    "Knapsack",
    "LearnerState",
    "MembershipError",
    "NormPair",
    "OFFSET",
    "Observation",
    "OfflineEvaluation",
    "OracleResult",
    "PredictionDomain",
    "RegretLedger",
    "Simplex",
    "argmax",
    "argmax_many",
    "as_vector",
    "certify_gap",
    "init_learner",
    "offline_evaluate",
    "play",
    "verify_run",
]
