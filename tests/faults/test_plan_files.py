"""Fault-plan files come from outside the program: reject bad ones up front.

``plan_from_json`` refuses malformed records with a ``ValueError``
(:class:`FaultPlanError`), ``inject_faults`` refuses node ids the
cluster never has before it arms anything, and ``repro serve`` /
``repro faults`` print the message and exit 2 instead of a traceback.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.harness import SimCluster
from repro.faults import Fault, FaultPlan, FaultPlanError, plan_from_json

CRASH = {"time": 5.0, "kind": "node_crash", "node_id": 2}


def doc(*records):
    return json.dumps({"faults": list(records)})


class TestPlanFromJson:
    def test_missing_time_rejected(self):
        record = {k: v for k, v in CRASH.items() if k != "time"}
        with pytest.raises(ValueError, match=r"lacks field\(s\) \['time'\]"):
            plan_from_json(doc(record))

    def test_missing_kind_rejected(self):
        record = {k: v for k, v in CRASH.items() if k != "kind"}
        with pytest.raises(ValueError, match="lacks"):
            plan_from_json(doc(record))

    def test_string_time_rejected(self):
        with pytest.raises(ValueError, match="time must be a finite number"):
            plan_from_json(doc({**CRASH, "time": "5"}))

    def test_bool_time_rejected(self):
        with pytest.raises(ValueError, match="time must be a finite number"):
            plan_from_json(doc({**CRASH, "time": True}))

    def test_nan_duration_rejected(self):
        record = {"time": 5.0, "kind": "rack_partition", "node_id": 1, "duration": "NaN"}
        text = doc(record).replace('"NaN"', "NaN")
        with pytest.raises(ValueError, match="duration must be a finite number"):
            plan_from_json(text)

    def test_fractional_node_id_rejected(self):
        with pytest.raises(ValueError, match="node_id must be an integer"):
            plan_from_json(doc({**CRASH, "node_id": 2.5}))

    def test_bool_node_id_rejected(self):
        with pytest.raises(ValueError, match="node_id must be an integer"):
            plan_from_json(doc({**CRASH, "node_id": True}))

    def test_fractional_count_rejected(self):
        record = {"time": 5.0, "kind": "container_kill", "node_id": 1, "count": 1.5}
        with pytest.raises(ValueError, match="count must be an integer"):
            plan_from_json(doc(record))

    def test_invalid_json_rejected(self):
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            plan_from_json("{faults: [")

    def test_fault_validation_errors_become_plan_errors(self):
        with pytest.raises(FaultPlanError, match="time must be >= 0"):
            plan_from_json(doc({**CRASH, "time": -1.0}))

    def test_integer_time_still_accepted(self):
        plan = plan_from_json(doc({**CRASH, "time": 5}))
        assert plan.faults[0].time == 5


class TestNodeRange:
    def test_inject_rejects_unknown_node_before_arming(self):
        sc = SimCluster(seed=1, start_monitors=False)
        assert len(sc.cluster.nodes) == 18
        plan = FaultPlan((Fault(time=5.0, kind="link_flaky", node_id=99,
                                fail_prob=0.5, duration=10.0),))
        with pytest.raises(ValueError, match="names node 99"):
            sc.inject_faults(plan=plan)
        assert sc.fault_injector is None
        assert sc.cluster.network.faults is None
        sc.inject_faults(plan=FaultPlan())  # nothing was armed before

    def test_joined_nodes_count_as_targets(self):
        plan = FaultPlan((
            Fault(time=1.0, kind="node_join", node_id=0),
            Fault(time=40.0, kind="node_decommission", node_id=4),
        ))
        plan.check_nodes(4)
        with pytest.raises(FaultPlanError):
            plan.check_nodes(3)

    def test_node_targeted_before_its_join_rejected(self):
        plan = FaultPlan((
            Fault(time=1.0, kind="node_decommission", node_id=4),
            Fault(time=40.0, kind="node_join", node_id=0),
        ))
        with pytest.raises(FaultPlanError, match="t=1.0s names node 4"):
            plan.check_nodes(4)


class TestCli:
    def write(self, tmp_path, text):
        path = tmp_path / "plan.json"
        path.write_text(text)
        return str(path)

    def test_faults_unknown_kind_exits_2(self, capsys):
        assert main(["faults", "--kinds", "bogus"]) == 2
        assert "unknown fault kind(s) ['bogus']" in capsys.readouterr().err

    def test_faults_plan_with_unknown_node_exits_2(self, tmp_path, capsys):
        path = self.write(tmp_path, doc({**CRASH, "node_id": 99}))
        assert main(["faults", "--plan-json", path]) == 2
        assert "names node 99" in capsys.readouterr().err

    def test_faults_plan_missing_time_exits_2(self, tmp_path, capsys):
        record = {k: v for k, v in CRASH.items() if k != "time"}
        path = self.write(tmp_path, doc(record))
        assert main(["faults", "--plan-json", path]) == 2
        assert "lacks" in capsys.readouterr().err

    def test_faults_plan_invalid_json_exits_2(self, tmp_path, capsys):
        path = self.write(tmp_path, "{not json")
        assert main(["faults", "--plan-json", path]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_serve_plan_with_unknown_node_exits_2(self, tmp_path, capsys):
        path = self.write(tmp_path, doc({**CRASH, "node_id": 99}))
        assert main(["serve", "--fault-plan", path]) == 2
        assert "names node 99" in capsys.readouterr().err

    def test_serve_plan_string_time_exits_2(self, tmp_path, capsys):
        path = self.write(tmp_path, doc({**CRASH, "time": "5"}))
        assert main(["serve", "--fault-plan", path]) == 2
        assert "time must be a finite number" in capsys.readouterr().err

    def test_serve_plan_fractional_node_exits_2(self, tmp_path, capsys):
        path = self.write(tmp_path, doc({**CRASH, "node_id": 2.5}))
        assert main(["serve", "--fault-plan", path]) == 2
        assert "node_id must be an integer" in capsys.readouterr().err

    def test_serve_local_backend_refuses_fault_plan(self, tmp_path, capsys):
        path = self.write(tmp_path, doc(CRASH))
        assert main(["serve", "--backend", "local", "--fault-plan", path]) == 2
        assert "simulator-only" in capsys.readouterr().err
