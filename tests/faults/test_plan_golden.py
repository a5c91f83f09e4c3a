"""Golden pin of ``generate_fault_plan`` over a fixed matrix of inputs.

Every plan the generator can draw for the matrix below -- its JSON dump
plus its ``describe()`` lines, or ``ERR`` where the counts are rejected
-- is folded into one SHA-256.  The digest was recorded before the
generator became table-driven, so it proves that the table's order is
the historical draw order, byte for byte, for every kind alone, every
family, and the mixes that exercise both joint distinct-node picks.
"""

import hashlib

import numpy as np

from repro.faults import generate_fault_plan, plan_to_json

SEEDS = range(1, 31)
NODE_COUNTS = (4, 18)
HORIZON = 100.0

NODE = ("crashes", "container_kills", "degraded")
NETWORK = ("link_degraded", "link_flaky", "rack_partitions")
ELASTIC = ("decommissions", "joins", "spot_preempts")
CONTROL = ("tuner_crashes", "monitor_outages", "stats_gaps")
KEYWORDS = NODE + NETWORK + ELASTIC + CONTROL

COUNT_SETS = (
    [{}]
    + [{kw: n} for kw in KEYWORDS for n in (1, 2)]
    + [{kw: 1 for kw in family} for family in (NODE, NETWORK, ELASTIC, CONTROL)]
    + [{kw: 1 for kw in KEYWORDS}, {kw: 2 for kw in KEYWORDS}]
    + [dict(crashes=2, degraded=3, decommissions=2, spot_preempts=2, joins=3)]
)

GOLDEN = "85c1847e5aa0fbe9b520cca62389258f923946ea3586c52977d7b44a07e8a774"


def plan_matrix_digest():
    h = hashlib.sha256()
    plans = 0
    for seed in SEEDS:
        for num_nodes in NODE_COUNTS:
            for counts in COUNT_SETS:
                try:
                    plan = generate_fault_plan(
                        np.random.default_rng(seed), num_nodes, HORIZON, **counts
                    )
                except ValueError:
                    lines = ["ERR"]
                else:
                    lines = [plan_to_json(plan), *plan.describe()]
                h.update(("\n".join(lines) + "\n").encode("utf-8"))
                plans += 1
    return plans, h.hexdigest()


def test_count_sets_cover_the_matrix():
    assert len(COUNT_SETS) == 32


def test_golden_plan_matrix():
    plans, digest = plan_matrix_digest()
    assert plans == 1920
    assert digest == GOLDEN
