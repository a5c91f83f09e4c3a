"""Control-plane fault choreography: tuner crashes and monitor outages.

MRONLINE's monitor/tuner pair is an advisory *sidecar* service -- jobs
must survive it dying.  This module owns the lifecycle of that service
under injected faults:

``tuner_crash``
    The tuner process dies and restarts ``duration`` seconds later.
    Every registered :class:`~repro.core.tuner.OnlineTuner` flips into
    degraded mode: wave gates release tasks immediately on the
    last-known-good configuration, open waves with an incumbent are
    voided (their queued trial configurations dropped), and the search
    reopens from the incumbent at restart.

``monitor_outage``
    The central monitor goes dark cluster-wide for ``duration``
    seconds.  Node-utilization samples inside the window are lost, and
    tuner waves whose measurements span the window are quarantined --
    Eq-1 inputs from a blind monitor prove nothing.

``stats_gap``
    One slave monitor stops reporting: the same blackout, scoped to a
    single node.  The tuner keeps running; only that node's samples
    vanish from the utilization timelines.

The state is built by
:meth:`~repro.experiments.harness.SimCluster.inject_faults` only when a
plan contains a control kind, so every control-free digest is
byte-identical to before this module existed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.faults.plan import Fault

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.monitor.central_monitor import CentralMonitor
    from repro.sim.engine import Simulator


class ControlPlaneState:
    """Tracks which pieces of the control plane are down, and until when.

    One instance per simulation, shared by the fault injector (which
    feeds it faults), the tuner(s) (which register to receive
    crash/recover callbacks) and the central monitor (which it blacks
    out during outages).  All three hooks are optional: a simulation
    with no tuner still applies the faults and records the windows.
    """

    def __init__(
        self,
        sim: "Simulator",
        monitor: Optional["CentralMonitor"] = None,
    ) -> None:
        self.sim = sim
        self.monitor = monitor
        #: Registered tuners (normally one; the service shares it).
        self.tuners: List[object] = []
        #: Simulated time the tuner process restarts; overlapping
        #: crashes extend it.
        self.down_until = 0.0
        #: Applied (start, end) windows per kind, for tests/reports.
        self.crashes: List[Tuple[float, float]] = []
        self.outages: List[Tuple[float, float]] = []
        self.gaps: List[Tuple[int, float, float]] = []

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register_tuner(self, tuner: object) -> None:
        """Subscribe *tuner* to crash/recover callbacks.

        A tuner registered mid-outage (a job submitted while the tuner
        process is down) is crashed in place so its gates degrade too.
        """
        if tuner in self.tuners:
            return
        self.tuners.append(tuner)
        if self.sim.now < self.down_until:
            tuner.on_tuner_crash(self.sim.now, self.down_until)

    # ------------------------------------------------------------------
    # Fault application (called by the injector at fault.time)
    # ------------------------------------------------------------------
    def apply(self, fault: Fault) -> str:
        """Apply a control-plane *fault*; returns the log detail line."""
        now = self.sim.now
        end = now + fault.duration
        if fault.kind == "tuner_crash":
            return self._apply_tuner_crash(fault, now, end)
        if fault.kind == "monitor_outage":
            self.outages.append((now, end))
            if self.monitor is not None:
                self.monitor.begin_gap(now, end)
            for tuner in self.tuners:
                tuner.note_control_outage(now, end)
            self._emit_outage(fault, end)
            return fault.describe()
        self.gaps.append((fault.node_id, now, end))
        if self.monitor is not None:
            self.monitor.begin_gap(now, end, node_id=fault.node_id)
        self._emit_outage(fault, end)
        return fault.describe()

    def _apply_tuner_crash(self, fault: Fault, now: float, end: float) -> str:
        self.down_until = max(self.down_until, end)
        self.crashes.append((now, end))
        open_searches = sum(t.open_search_count() for t in self.tuners)
        voided = 0
        for tuner in self.tuners:
            voided += tuner.on_tuner_crash(now, end)
        self.sim.call_at(end, lambda start=now: self._recover(start))
        tel = getattr(self.sim, "telemetry", None)
        if tel is not None and tel.wants("tuner"):
            from repro.telemetry.events import TunerCrash

            tel.emit(
                TunerCrash(
                    time=now,
                    down_until=self.down_until,
                    open_searches=open_searches,
                    voided_waves=voided,
                )
            )
        return f"{fault.describe()} -> {voided} wave(s) voided"

    def _recover(self, start: float) -> None:
        """Restart callback; a later crash may have extended the outage."""
        now = self.sim.now
        if now < self.down_until:
            return
        reopened = 0
        for tuner in self.tuners:
            reopened += tuner.on_tuner_recover(now)
        tel = getattr(self.sim, "telemetry", None)
        if tel is not None and tel.wants("tuner"):
            from repro.telemetry.events import TunerRecovered

            tel.emit(
                TunerRecovered(
                    time=now,
                    downtime=now - start,
                    reopened_waves=reopened,
                )
            )

    def _emit_outage(self, fault: Fault, end: float) -> None:
        tel = getattr(self.sim, "telemetry", None)
        if tel is None or not tel.wants("fault"):
            return
        from repro.telemetry.events import MonitorOutage, StatsGap

        if fault.kind == "monitor_outage":
            tel.emit(MonitorOutage(time=self.sim.now, until=end))
        else:
            tel.emit(StatsGap(time=self.sim.now, node_id=fault.node_id, until=end))


__all__ = ["ControlPlaneState"]
