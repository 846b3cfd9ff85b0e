"""The paper's contribution: the system model, profiling table, ANN
best-core predictor, cache tuning heuristic, energy-advantageous
decision, the four evaluated scheduling policies, and the end-to-end
scheduler simulation.
"""

from .decision import StallDecision, evaluate_stall_decision, remaining_energy_nj
from .policies import (
    BasePolicy,
    EnergyCentricPolicy,
    OptimalPolicy,
    POLICY_NAMES,
    ProposedPolicy,
    SchedulingPolicy,
    make_policy,
)
from .modelstore import (
    ModelMeta,
    dataset_fingerprint,
    load_ann_predictor,
    save_ann_predictor,
    training_config_key,
)
from .predictor import (
    AnnPredictor,
    BestCorePredictor,
    DomainPredictor,
    FixedPredictor,
    OraclePredictor,
    RegressorPredictor,
)
from .profiling import ApplicationProfile, ExecutionRecord, ProfilingTable
from .results import BenchmarkStats, JobRecord, SimulationResult
from .runconfig import RunConfig
from .scheduler import Assignment, CoreState, Job
from .simulation import SchedulerSimulation
from .system import CoreSpec, SystemConfig, base_system, paper_system, scaled_system
from .tuning import TuningHeuristic, TuningSession

__all__ = [
    "AnnPredictor",
    "ApplicationProfile",
    "Assignment",
    "BasePolicy",
    "BenchmarkStats",
    "BestCorePredictor",
    "CoreSpec",
    "DomainPredictor",
    "CoreState",
    "EnergyCentricPolicy",
    "ExecutionRecord",
    "FixedPredictor",
    "Job",
    "JobRecord",
    "ModelMeta",
    "OptimalPolicy",
    "OraclePredictor",
    "POLICY_NAMES",
    "ProfilingTable",
    "ProposedPolicy",
    "RegressorPredictor",
    "RunConfig",
    "SchedulerSimulation",
    "SchedulingPolicy",
    "SimulationResult",
    "StallDecision",
    "SystemConfig",
    "TuningHeuristic",
    "TuningSession",
    "base_system",
    "dataset_fingerprint",
    "evaluate_stall_decision",
    "load_ann_predictor",
    "make_policy",
    "paper_system",
    "save_ann_predictor",
    "scaled_system",
    "remaining_energy_nj",
    "training_config_key",
]
