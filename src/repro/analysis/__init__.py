"""Verification machinery: model checking, valency, linearizability.

* :mod:`repro.analysis.explorer` — bounded exhaustive exploration of
  configuration graphs (safety counterexamples, livelocks, solo runs);
* :mod:`repro.analysis.valency` — the FLP/bivalency calculus, computed;
* :mod:`repro.analysis.linearizability` — Wing–Gong linearizability
  checking against any sequential spec;
* :mod:`repro.analysis.properties` — per-run auditors for simulations;
* :mod:`repro.analysis.kernel` / :mod:`repro.analysis.symmetry` — the
  fast-core substrate: the packed-state exploration kernel and opt-in
  symmetry reduction (see ``docs/performance.md``);
* :mod:`repro.analysis.parallel` / :mod:`repro.analysis.cache` — the
  scale-out substrate: a crash-isolated multiprocessing work pool with
  deterministic result merging, and a persistent content-addressed
  store for exploration graphs and suite verdicts.
"""

from .commuting import (
    CommutingViolation,
    check_pair_commutes,
    verify_disjoint_commutativity,
    verify_read_transparency,
)
from .explorer import (
    Configuration,
    Edge,
    ExplorationResult,
    Explorer,
    Livelock,
    SafetyCounterexample,
)
from .cache import (
    CacheIntegrityError,
    CacheStats,
    ExplorationCache,
    code_salt,
    explore_cached,
    fingerprint,
    graph_digest,
)
from .parallel import (
    VerificationPool,
    WorkFailure,
    WorkItem,
    WorkResult,
    run_work_items,
)
from .symmetry import ProcessSymmetry, groups_by_input
from .linearizability import (
    LinearizabilityChecker,
    LinearizabilityVerdict,
    check_linearizable,
)
from .replay import (
    ReplayReport,
    oracle_script,
    replay_counterexample,
    verify_replay,
)
from .suite import PhaseOutcome, SuiteVerdict, verify_task_protocol
from .properties import (
    RunAudit,
    WaitFreedomAudit,
    audit_dac_run,
    audit_task_run,
    audit_wait_freedom,
)
from .valency_analyzer import CriticalReport, HookStep, ValencyAnalyzer
from .valency import (
    BIVALENT,
    CriticalConfiguration,
    DECISIONLESS,
    InitialValencyReport,
    ONE_VALENT,
    Valency,
    ZERO_VALENT,
    classify,
    contended_object,
    find_critical_configuration,
    initial_valency_report,
)

__all__ = [
    "BIVALENT",
    "CacheIntegrityError",
    "CacheStats",
    "CommutingViolation",
    "Configuration",
    "ExplorationCache",
    "VerificationPool",
    "WorkFailure",
    "WorkItem",
    "WorkResult",
    "code_salt",
    "explore_cached",
    "fingerprint",
    "graph_digest",
    "run_work_items",
    "CriticalConfiguration",
    "CriticalReport",
    "HookStep",
    "ValencyAnalyzer",
    "DECISIONLESS",
    "Edge",
    "ExplorationResult",
    "Explorer",
    "InitialValencyReport",
    "Livelock",
    "ProcessSymmetry",
    "groups_by_input",
    "PhaseOutcome",
    "SuiteVerdict",
    "LinearizabilityChecker",
    "LinearizabilityVerdict",
    "ONE_VALENT",
    "ReplayReport",
    "RunAudit",
    "SafetyCounterexample",
    "Valency",
    "WaitFreedomAudit",
    "ZERO_VALENT",
    "audit_dac_run",
    "audit_task_run",
    "audit_wait_freedom",
    "check_linearizable",
    "check_pair_commutes",
    "verify_disjoint_commutativity",
    "verify_read_transparency",
    "classify",
    "verify_task_protocol",
    "contended_object",
    "find_critical_configuration",
    "initial_valency_report",
    "oracle_script",
    "replay_counterexample",
    "verify_replay",
]
