"""The elasticity experiment: job performance under cluster churn.

Protocol: for each workload profile, one fault-free run with the
default configuration fixes the *baseline* and the churn scenario's
time horizon.  Then, per churn level (``low``, ``high``), the same job
runs under a generated elastic scenario -- nodes decommission, join,
and get spot-preempted mid-run -- co-executed with the online tuner,
and the report compares job time, recovery outcome, and the
environmental toll (killed/migrated attempts) against the baseline.

Every run is a declarative :class:`RunRequest`, so the sweep fans out
over the process pool and the report's combined digest is
bit-identical for any worker count (the CI gate's elastic case).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.parallel import (
    RunOutcome,
    RunRequest,
    combined_digest,
    run_requests,
)
from repro.faults.plan import fault_counts

#: Churn-scenario knobs per level (fed to ``generate_fault_plan``; the
#: ``horizon`` knob is added at run time from the measured baseline).
ELASTIC_LEVELS: Dict[str, Dict[str, float]] = {
    "none": {},
    "low": fault_counts(node_decommission=1, node_join=1),
    "high": fault_counts(node_decommission=2, node_join=2, spot_preempt=2),
}

#: One shrunk instance per distinct workload profile of Table 3 (the
#: "six profiles"): shuffle-heavy (terasort, bigram), map-heavy
#: (wordcount, inverted-index), compute-heavy (text-search, bbp).
#: Sized so the waves cover a real fraction of the 18-slave cluster --
#: sparser instances leave so many nodes idle that churn routinely
#: lands on machines hosting no work and the comparison degenerates.
ELASTIC_CASES: Tuple[Tuple[str, int, int], ...] = (
    ("terasort", 24, 8),
    ("bigram-freebase", 12, 6),
    ("wordcount-wikipedia", 12, 6),
    ("inverted-index-wikipedia", 12, 6),
    ("text-search-freebase", 12, 6),
    ("bbp", 8, 2),
)


@dataclass(frozen=True)
class ElasticRow:
    """Baseline-vs-churned outcomes for one case at one churn level."""

    case_name: str
    level: str
    baseline: RunOutcome
    churned: RunOutcome

    @property
    def slowdown(self) -> float:
        """Churn-induced slowdown vs the fault-free baseline."""
        if self.baseline.job_time <= 0:
            return 0.0
        return (
            self.churned.job_time - self.baseline.job_time
        ) / self.baseline.job_time


@dataclass(frozen=True)
class ElasticReport:
    """Everything the ``elastic`` subcommand prints."""

    seed: int
    tuning: str
    #: Per-case fault-free outcomes, in :data:`ELASTIC_CASES` order.
    baselines: Tuple[Tuple[str, RunOutcome], ...]
    rows: Tuple[ElasticRow, ...]
    digest: str


def run_elastic_experiment(
    seed: int = 1,
    levels: Tuple[str, ...] = ("none", "low", "high"),
    tuning: str = "conservative",
    cases: Optional[Tuple[Tuple[str, int, int], ...]] = None,
    max_workers: Optional[int] = None,
) -> ElasticReport:
    """Sweep churn levels across the workload profiles.

    Each case's fault-free baseline both anchors the comparison and
    fixes the churn plan's horizon, so decommissions/joins/preemptions
    land while the job is actually running.
    """
    cases = cases if cases is not None else ELASTIC_CASES
    unknown = [lv for lv in levels if lv not in ELASTIC_LEVELS]
    if unknown:
        raise ValueError(
            f"unknown churn level(s) {unknown}, "
            f"want a subset of {sorted(ELASTIC_LEVELS)}"
        )

    base_requests = [
        RunRequest(
            case_name=name, seed=seed, num_blocks=blocks, num_reducers=reducers
        )
        for name, blocks, reducers in cases
    ]
    base_outcomes = run_requests(base_requests, max_workers=max_workers)
    baselines = tuple(
        (case[0], outcome) for case, outcome in zip(cases, base_outcomes)
    )

    churn_requests: List[RunRequest] = []
    keyed: List[Tuple[str, str, RunOutcome]] = []
    for (name, blocks, reducers), baseline in zip(cases, base_outcomes):
        horizon = max(baseline.job_time, 1.0)
        for level in levels:
            knobs = ELASTIC_LEVELS[level]
            if not knobs:
                continue
            churn_requests.append(
                RunRequest.build(
                    name,
                    seed,
                    tuning=tuning,
                    num_blocks=blocks,
                    num_reducers=reducers,
                    faults={**knobs, "horizon": horizon},
                )
            )
            keyed.append((name, level, baseline))
    churn_outcomes = run_requests(churn_requests, max_workers=max_workers)

    rows = tuple(
        ElasticRow(case_name=name, level=level, baseline=baseline, churned=outcome)
        for (name, level, baseline), outcome in zip(keyed, churn_outcomes)
    )
    return ElasticReport(
        seed=seed,
        tuning=tuning,
        baselines=baselines,
        rows=rows,
        digest=combined_digest(list(base_outcomes) + list(churn_outcomes)),
    )
