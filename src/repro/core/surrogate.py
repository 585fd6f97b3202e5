"""Cluster surrogate nodes (paper Section 6.1).

A surrogate is the most capable online host of its prefix cluster.  It
builds the cluster's close cluster set over the AS graph (through the
``build`` callable its system supplies), answers close cluster set
requests from cluster members and remote callers, collects nodal
information from its cluster, and recommends a hand-off when a
better-provisioned host appears.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core.close_cluster import CloseClusterSet
from repro.netaddr import IPv4Address
from repro.topology.population import Host, NodalInfo


@dataclass
class Surrogate:
    """The surrogate of one prefix cluster."""

    cluster: int                 # matrix index of the cluster
    asn: int
    host: Host
    # Builds the close set of ``(cluster, asn)`` over the AS graph; must
    # return exactly what ``construct_close_cluster_set`` would.
    build: Callable[[int, int], CloseClusterSet] = field(repr=False)
    close_set_requests: int = 0
    published_info: Dict[IPv4Address, NodalInfo] = field(default_factory=dict)
    # §6.3 load sharing: replica surrogates of a large cluster serve the
    # primary's close set instead of re-probing the network themselves.
    close_set_source: Optional["Surrogate"] = field(default=None, repr=False)
    _close_set: Optional[CloseClusterSet] = field(default=None, repr=False)

    @property
    def ip(self) -> IPv4Address:
        return self.host.ip

    def close_set(self) -> CloseClusterSet:
        """The cluster's close cluster set (built on first use, cached)."""
        if self.close_set_source is not None:
            return self.close_set_source.close_set()
        if self._close_set is None:
            self._close_set = self.build(self.cluster, self.asn)
        return self._close_set

    def serve_close_set(self) -> CloseClusterSet:
        """Answer a close-cluster-set request (from members or callers)."""
        self.close_set_requests += 1
        return self.close_set()

    def refresh(self) -> CloseClusterSet:
        """Rebuild the close set (periodic maintenance)."""
        if self.close_set_source is not None:
            return self.close_set_source.refresh()
        self._close_set = None
        return self.close_set()

    def accept_nodal_info(self, ip: IPv4Address, info: NodalInfo) -> None:
        """Record a cluster member's published capability record."""
        self.published_info[ip] = info

    def recommend_handoff(self) -> Optional[IPv4Address]:
        """The IP of a strictly more capable published host, if any.

        Per the paper, a surrogate that learns of a better end host
        recommends it as the new surrogate and steps down.
        """
        own_score = self.host.info.capability()
        best_ip: Optional[IPv4Address] = None
        best_score = own_score
        for ip, info in sorted(self.published_info.items()):
            score = info.capability()
            if score > best_score:
                best_score = score
                best_ip = ip
        return best_ip

    @property
    def maintenance_messages(self) -> int:
        """Probe traffic spent building the current close set."""
        return self._close_set.probe_messages if self._close_set else 0
