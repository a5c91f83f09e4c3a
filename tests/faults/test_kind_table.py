"""Every row of the fault-kind table, applied end to end.

Each kind is drawn alone from its own row of :data:`KINDS` onto the
4-node test cluster; the injector must handle the one fault (applied
or skipped), arm only that kind's family manager, and the job must
still terminate.
"""

import numpy as np
import pytest

from repro.cluster.topology import ClusterSpec
from repro.core.configuration import Configuration
from repro.experiments.harness import SimCluster
from repro.faults import KINDS, generate_fault_plan
from repro.faults.plan import CONTROL, ELASTIC, NETWORK
from repro.mapreduce.jobspec import JobSpec, WorkloadProfile
from repro.workloads.datasets import DatasetSpec

MB = 1024**2
#: Roughly the fault-free duration of the job below (maps ~0.5-23 s,
#: reduces ~23-67 s), so every kind's window lands on live work.
HORIZON = 60.0


def small_spec(sc):
    DatasetSpec("tiny", num_blocks=8).load(sc.hdfs, "/in")
    profile = WorkloadProfile(
        name="t", map_output_ratio=1.0, map_output_record_size=100.0,
        map_output_noise=0.0, partition_skew=0.0,
        map_fixed_mem_bytes=150 * MB, reduce_fixed_mem_bytes=200 * MB,
    )
    return JobSpec(
        name="t", workload=profile, input_path="/in", num_reducers=4,
        base_config=Configuration(), slowstart=0.05,
    )


@pytest.mark.parametrize("kind", KINDS, ids=[kind.name for kind in KINDS])
def test_each_kind_applies_alone(kind):
    sc = SimCluster(
        seed=0, cluster_spec=ClusterSpec(num_slaves=4, racks=(2, 2)), start_monitors=False
    )
    plan = generate_fault_plan(
        np.random.default_rng(0), len(sc.cluster.nodes), HORIZON, **{kind.knob: 1}
    )
    assert [f.kind for f in plan] == [kind.name]
    sc.inject_faults(plan=plan)
    injector = sc.fault_injector
    assert (sc.cluster.network.faults is not None) == (kind.family == NETWORK)
    assert (injector.elastic is not None) == (kind.family == ELASTIC)
    assert (injector.control is not None) == (kind.family == CONTROL)

    am = sc.submit(small_spec(sc))
    result = sc.sim.run_until_complete(am.completion, max_events=5_000_000)
    assert result is not None and am.completion.triggered
    assert len(injector.applied) + len(injector.skipped) == 1
