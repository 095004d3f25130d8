"""Core learning machinery: the paper's primary contribution.

Public surface:

* :mod:`repro.core.lattice` — the dependency-value lattice ``V``;
* :mod:`repro.core.depfunc` — dependency functions ``d : T × T → V``;
* :mod:`repro.core.hypothesis` — pair-set hypotheses;
* :mod:`repro.core.candidates` — temporal sender/receiver candidates;
* :mod:`repro.core.matching` — the matching function ``M``;
* :mod:`repro.core.batch` — the mask kernel: the exact and bounded
  learners on pair-index bitmasks;
* :mod:`repro.core.interning` — the pair-index interning the kernel runs
  on (``TaskTable`` / ``PairSet`` / ``WeightKernel``);
* :mod:`repro.core.reference` — the string-frozenset reference kernel kept
  for differential tests and benchmarks;
* :mod:`repro.core.learner` — the :func:`learn_dependencies` facade.
"""

from repro.core.depfunc import DependencyFunction, lub_many
from repro.core.checkpoint import (
    load_checkpoint,
    save_checkpoint,
)
from repro.core.batch import (
    BoundedLearner,
    ExactLearner,
    learn_bounded,
    learn_exact,
)
from repro.core.hypothesis import Hypothesis
from repro.core.instrumentation import HotLoopCounters
from repro.core.interning import PairSet, TaskTable, WeightKernel, task_table
from repro.core.lattice import DepValue
from repro.core.learner import learn_dependencies, make_learner
from repro.core.matching import matches_period, matches_trace
from repro.core.negative import (
    EliminationReport,
    ForbiddenBehavior,
    NegativeVerdict,
    VersionSpace,
    rejects,
    violated_arrows,
)
from repro.core.result import LearningResult
from repro.core.sharded import learn_bounded_sharded
from repro.core.stats import CoExecutionStats
from repro.core.weights import (
    NAMED_DISTANCES,
    DistanceFunction,
    entry_count,
    linear_distance,
    square_distance,
)

__all__ = [
    "DepValue",
    "DependencyFunction",
    "lub_many",
    "Hypothesis",
    "TaskTable",
    "task_table",
    "PairSet",
    "WeightKernel",
    "CoExecutionStats",
    "matches_period",
    "matches_trace",
    "ExactLearner",
    "BoundedLearner",
    "learn_exact",
    "learn_bounded",
    "learn_bounded_sharded",
    "learn_dependencies",
    "make_learner",
    "LearningResult",
    "HotLoopCounters",
    "ForbiddenBehavior",
    "VersionSpace",
    "NegativeVerdict",
    "EliminationReport",
    "rejects",
    "violated_arrows",
    "DistanceFunction",
    "NAMED_DISTANCES",
    "square_distance",
    "linear_distance",
    "entry_count",
    "save_checkpoint",
    "load_checkpoint",
]
