"""Cluster network: per-node NICs, rack uplinks, and a core switch.

All transfers share one cluster-wide :class:`FlowScheduler`; a transfer
from node A to node B traverses A's TX link and B's RX link, plus both
racks' uplinks when it crosses racks.  Rates are max-min fair across
everything in flight, so shuffle-heavy phases create exactly the kind
of contention the paper's monitor observes as network hot spots.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Set, Tuple

from repro.cluster.node import FROZEN_CAPACITY, Node
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.resources import FlowScheduler, Link

if TYPE_CHECKING:
    from repro.faults.network_state import NetworkFaultState


class Network:
    """The cluster fabric connecting nodes."""

    def __init__(
        self,
        sim: Simulator,
        nodes: Sequence[Node],
        rack_uplink_bw: Optional[float] = None,
        oversubscription: float = 4.0,
    ) -> None:
        self.sim = sim
        self.nodes = list(nodes)
        self.scheduler = FlowScheduler(sim, name="net")
        self._tx: Dict[int, Link] = {}
        self._rx: Dict[int, Link] = {}
        racks = sorted({n.rack for n in self.nodes})
        self._uplink: Dict[int, Link] = {}
        for node in self.nodes:
            bw = node.resources.nic_bw
            self._tx[node.node_id] = Link(f"{node.hostname}.tx", bw)
            self._rx[node.node_id] = Link(f"{node.hostname}.rx", bw)
        for rack in racks:
            members = [n for n in self.nodes if n.rack == rack]
            if rack_uplink_bw is None:
                # Typical top-of-rack oversubscription: aggregate NIC
                # bandwidth divided by the oversubscription factor.
                bw = sum(n.resources.nic_bw for n in members) / oversubscription
            else:
                bw = rack_uplink_bw
            self._uplink[rack] = Link(f"rack{rack}.uplink", bw)
        # Aggregate fabric capacity for scatter-style fetches (shuffle):
        # sources are spread across the cluster, so the constraint is the
        # sum of uplink capacities rather than any single path.
        core_bw = max(sum(lnk.capacity for lnk in self._uplink.values()), 1.0)
        self._core = Link("fabric.core", core_bw)
        # -- fault bookkeeping (mirrors Node's base-capacity idiom) -----
        self._base_nic: Dict[int, float] = {
            n.node_id: n.resources.nic_bw for n in self.nodes
        }
        self._base_uplink: Dict[int, float] = {
            rack: lnk.capacity for rack, lnk in self._uplink.items()
        }
        self._nic_frozen: Set[int] = set()
        self._partition_depth: Dict[int, int] = {rack: 0 for rack in self._uplink}
        #: Armed by the fault injector when the plan has network kinds;
        #: ``None`` means the gray-failure fetch path stays dormant.
        self.faults: Optional["NetworkFaultState"] = None

    # -- elastic membership -----------------------------------------------
    def attach_node(self, node: Node) -> None:
        """Wire a freshly joined node into the fabric.

        The newcomer gets its own TX/RX links; its rack's uplink (and
        the core) keep their provisioned capacity -- racking one more
        machine into an existing ToR switch does not widen the trunk.
        """
        if node.node_id in self._tx:
            raise ValueError(f"node {node.node_id} is already attached")
        if node.rack not in self._uplink:
            raise ValueError(f"node {node.node_id} names unknown rack {node.rack}")
        bw = node.resources.nic_bw
        self.nodes.append(node)
        self._tx[node.node_id] = Link(f"{node.hostname}.tx", bw)
        self._rx[node.node_id] = Link(f"{node.hostname}.rx", bw)
        self._base_nic[node.node_id] = bw

    # -- fault surfaces ---------------------------------------------------
    def scale_node_nic(self, node_id: int, factor: float) -> None:
        """Rescale a node's TX and RX links to *factor* of nominal."""
        if not (0.0 < factor <= 1.0):
            raise ValueError(f"NIC factor must be in (0, 1], got {factor}")
        if node_id in self._nic_frozen:
            return
        cap = self._base_nic[node_id] * factor
        self.scheduler.set_link_capacity(self._tx[node_id], cap)
        self.scheduler.set_link_capacity(self._rx[node_id], cap)

    def restore_node_nic(self, node_id: int) -> None:
        """Heal a degraded NIC back to nominal (no-op once frozen)."""
        self.scale_node_nic(node_id, 1.0)

    def freeze_node_nic(self, node_id: int) -> None:
        """Permanently stall a dead node's NIC (crash in network mode)."""
        self._nic_frozen.add(node_id)
        self.scheduler.set_link_capacity(self._tx[node_id], FROZEN_CAPACITY)
        self.scheduler.set_link_capacity(self._rx[node_id], FROZEN_CAPACITY)

    def partition_rack(self, rack: int) -> None:
        """Stall a rack's uplink; nested partitions stack (depth count)."""
        self._partition_depth[rack] += 1
        if self._partition_depth[rack] == 1:
            self.scheduler.set_link_capacity(self._uplink[rack], FROZEN_CAPACITY)

    def heal_rack(self, rack: int) -> None:
        """Undo one :meth:`partition_rack`; heals at depth zero."""
        if self._partition_depth[rack] == 0:
            return
        self._partition_depth[rack] -= 1
        if self._partition_depth[rack] == 0:
            self.scheduler.set_link_capacity(self._uplink[rack], self._base_uplink[rack])

    def rack_partitioned(self, rack: int) -> bool:
        return self._partition_depth[rack] > 0

    def transfer(
        self,
        src: Node,
        dst: Node,
        nbytes: float,
        cap: Optional[float] = None,
        label: str = "",
    ) -> Event:
        """Stream *nbytes* from *src* to *dst*; returns a completion event.

        Node-local "transfers" bypass the fabric entirely (loopback) and
        complete on the next calendar step, matching how Hadoop serves
        node-local shuffle segments from the local filesystem.
        """
        if src.node_id == dst.node_id:
            ev = self.sim.event()
            ev.succeed(0.0)
            return ev
        links: List[Link] = [self._tx[src.node_id]]
        if src.rack != dst.rack:
            links.append(self._uplink[src.rack])
            links.append(self._uplink[dst.rack])
        links.append(self._rx[dst.node_id])
        return self.scheduler.transfer(links, nbytes, cap=cap, label=label)

    def fetch_into(
        self,
        dst: Node,
        nbytes: float,
        cap: Optional[float] = None,
        extra_links: Sequence[Link] = (),
        label: str = "",
    ) -> Event:
        """An aggregated many-sources-to-one fetch (shuffle rounds).

        The flow is charged to the destination's RX link and the fabric
        core (sources are spread out, so no single TX link binds); the
        caller may thread extra links through, e.g. a per-reducer copier
        link whose capacity encodes ``shuffle.parallelcopies``.
        """
        links: List[Link] = [self._core, self._rx[dst.node_id], *extra_links]
        return self.scheduler.transfer(links, nbytes, cap=cap, label=label)

    def fetch_from(
        self,
        src: Node,
        dst: Node,
        nbytes: float,
        cap: Optional[float] = None,
        extra_links: Sequence[Link] = (),
        label: str = "",
    ) -> Event:
        """One source-attributed shuffle fetch (gray-failure fetch path).

        Unlike :meth:`fetch_into`, the flow traverses the *source*'s TX
        link (plus both rack uplinks when it crosses racks), so a
        degraded NIC or partitioned rack stalls exactly the fetches that
        touch it.  Node-local segments bypass the fabric like
        :meth:`transfer`.
        """
        if src.node_id == dst.node_id:
            ev = self.sim.event()
            ev.succeed(0.0)
            return ev
        links: List[Link] = [self._tx[src.node_id]]
        if src.rack != dst.rack:
            links.append(self._uplink[src.rack])
            links.append(self._uplink[dst.rack])
        links.append(self._rx[dst.node_id])
        links.extend(extra_links)
        return self.scheduler.transfer(links, nbytes, cap=cap, label=label)

    # -- monitoring -------------------------------------------------------
    def nic_utilizations(self, nodes: Sequence[Node]) -> List[Tuple[float, float]]:
        """``(rx, tx)`` utilization per node in *nodes*, one scan of active flows.

        A monitor tick samples every node's NIC in both directions; one
        batched scan stays bit-identical to per-node
        :meth:`rx_utilization`/:meth:`tx_utilization` calls, since each
        link still sums its flows' rates in active-flow order.
        """
        links: List[Link] = []
        for node in nodes:
            links.append(self._rx[node.node_id])
            links.append(self._tx[node.node_id])
        utils = self.scheduler.utilizations(links)
        return list(zip(utils[0::2], utils[1::2]))

    def rx_utilization(self, node: Node) -> float:
        return self.scheduler.utilization(self._rx[node.node_id])

    def tx_utilization(self, node: Node) -> float:
        return self.scheduler.utilization(self._tx[node.node_id])

    def uplink_utilization(self, rack: int) -> float:
        return self.scheduler.utilization(self._uplink[rack])
