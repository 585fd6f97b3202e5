"""The assembled ASAP system over a scenario.

:class:`ASAPSystem` wires the three node roles together on top of a
built :class:`~repro.scenario.Scenario`:

- bootstraps get the prefix→AS table (from parsed BGP data) and the
  protocol AS graph (Gao-inferred by default);
- every populated cluster elects its most capable host as surrogate;
- close cluster sets are built lazily per cluster and cached (they are
  periodic maintenance state in the real system);
- :meth:`ASAPSystem.call` runs one VoIP session: measure the direct
  path, and when it misses the latency threshold run
  select-close-relay and pick the best relay.

Surrogate-to-surrogate probes (``lat()``/``loss()`` of Fig. 9) read the
scenario's delegate matrices — the same measured data the paper's
trace-driven simulation replays.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.core.bootstrap import Bootstrap
from repro.core.close_cluster import CloseClusterSet
from repro.core.config import ASAPConfig
from repro.core.endhost import EndHost
from repro.core.relay_selection import RelaySelection, select_close_relay
from repro.core.surrogate import Surrogate
from repro.errors import ProtocolError
from repro.netaddr import IPv4Address
from repro.scenario import Scenario
from repro.util.parallel import chunked, fork_available, resolve_workers, run_forked
from repro.voip.quality import mos_of_path


@dataclass
class ASAPSession:
    """Outcome of one ASAP calling session."""

    caller: IPv4Address
    callee: IPv4Address
    caller_cluster: int
    callee_cluster: int
    direct_rtt_ms: float
    relay_needed: bool
    selection: Optional[RelaySelection] = None
    best_relay_rtt_ms: Optional[float] = None

    @property
    def messages(self) -> int:
        """Protocol messages spent selecting relays (Fig. 18's metric)."""
        return self.selection.messages if self.selection else 0

    @property
    def quality_paths(self) -> int:
        """Quality relay paths found (Figs. 11-12's metric)."""
        return self.selection.quality_paths if self.selection else 0

    @property
    def best_path_rtt_ms(self) -> float:
        """RTT of the best path the session can use (direct or relayed)."""
        candidates = [self.direct_rtt_ms]
        if self.best_relay_rtt_ms is not None:
            candidates.append(self.best_relay_rtt_ms)
        return min(candidates)

    def best_path_mos(self, loss_rate: float = 0.005) -> float:
        """MOS of the best usable path (paper's Figs. 15-16 metric)."""
        return mos_of_path(self.best_path_rtt_ms, loss_rate)


class ASAPSystem:
    """A running ASAP deployment over one scenario."""

    def __init__(self, scenario: Scenario, config: Optional[ASAPConfig] = None) -> None:
        self._scenario = scenario
        self._config = config = config if config is not None else ASAPConfig()
        self._view = scenario.matrix_view()
        self._clusters = scenario.clusters
        self._builder = None
        graph = scenario.protocol_graph

        # Cluster bookkeeping at matrix-index granularity.
        self._clusters_by_as: Dict[int, List[int]] = {}
        for idx, asn in enumerate(self._view.asn_of):
            self._clusters_by_as.setdefault(int(asn), []).append(idx)

        # Elect surrogates: the most capable hosts per cluster.  Large
        # clusters get several (§6.3 load sharing): one per
        # ``config.hosts_per_surrogate`` members; replicas serve the
        # primary's close set.
        surrogate_of_prefix: Dict = {}
        self._surrogates: Dict[int, List[Surrogate]] = {}
        for cluster in self._clusters.all_clusters():
            idx = self._view.index_of[cluster.prefix]
            group = self._elect_group(idx, cluster)
            self._surrogates[idx] = group
            surrogate_of_prefix[cluster.prefix] = group[0].ip

        self._bootstraps = [
            Bootstrap(
                name=f"bootstrap-{i}",
                prefix_table=scenario.prefix_table,
                graph=graph,
                surrogate_of=surrogate_of_prefix,
            )
            for i in range(config.bootstrap_count)
        ]

        self._endhosts: Dict[IPv4Address, EndHost] = {}
        self._offline: set = set()
        self._offline_in_cluster: Counter = Counter()
        self.sessions_run = 0
        self._init_close_sets()

    def _build_close_set(self, own_cluster: int, own_as: int) -> CloseClusterSet:
        """Every surrogate's ``build``: the flat-array close-set path.

        ``build`` is looked up on the builder at each call, so a wrapper
        installed on :class:`~repro.worldarrays.FlatCloseSetBuilder`
        after this system was built still sees every build.
        """
        return self._close_set_builder().build(own_cluster, own_as)

    def _close_set_builder(self):
        """The vectorized builder (CSR graph export + probe arrays),
        created on first use and shared by every surrogate."""
        if self._builder is None:
            from repro.worldarrays import FlatCloseSetBuilder

            self._builder = FlatCloseSetBuilder(
                self._scenario.protocol_graph,
                self._view,
                self._clusters_by_as,
                self._config,
            )
        return self._builder

    # -- wiring ---------------------------------------------------------------

    @property
    def config(self) -> ASAPConfig:
        return self._config

    @property
    def scenario(self) -> Scenario:
        return self._scenario

    @property
    def bootstraps(self) -> List[Bootstrap]:
        return list(self._bootstraps)

    def _elect_group(self, idx: int, cluster) -> List[Surrogate]:
        """Elect the cluster's surrogate group, primary first."""
        ranked = sorted(
            cluster.hosts, key=lambda h: (-h.info.capability(), h.ip)
        )
        count = max(1, -(-len(cluster.hosts) // self._config.hosts_per_surrogate))
        count = min(count, len(ranked))
        group: List[Surrogate] = []
        for position in range(count):
            member = Surrogate(
                cluster=idx,
                asn=cluster.asn,
                host=ranked[position],
                build=self._build_close_set,
            )
            if group:
                member.close_set_source = group[0]
            group.append(member)
        return group

    def surrogate(
        self, cluster_index: int, requester: Optional[IPv4Address] = None
    ) -> Surrogate:
        """The cluster's serving surrogate.

        Without a requester, the primary.  With one, requests spread
        over the group by IP hash (§6.3 load sharing).
        """
        try:
            group = self._surrogates[cluster_index]
        except KeyError:
            raise ProtocolError(f"no surrogate for cluster {cluster_index}") from None
        if requester is None or len(group) == 1:
            return group[0]
        return group[requester.value % len(group)]

    def surrogate_group(self, cluster_index: int) -> List[Surrogate]:
        """All surrogates of a cluster (primary first)."""
        try:
            return list(self._surrogates[cluster_index])
        except KeyError:
            raise ProtocolError(f"no surrogate for cluster {cluster_index}") from None

    def clusters_in_as(self, asn: int) -> List[int]:
        """Matrix indices of online clusters hosted by an AS."""
        return list(self._clusters_by_as.get(asn, ()))

    def cluster_of_ip(self, ip: IPv4Address) -> int:
        """Matrix index of the cluster containing an end-host IP."""
        cluster = self._clusters.cluster_of(ip)
        return self._view.index_of[cluster.prefix]

    def _probe_lat(self, own: int, other: int) -> Optional[float]:
        value = self._view.rtt_cell(own, other)
        return None if not np.isfinite(value) else value

    def _probe_loss(self, own: int, other: int) -> Optional[float]:
        value = self._view.loss_cell(own, other)
        rtt = self._view.rtt_cell(own, other)
        return None if not np.isfinite(rtt) else value

    # -- membership -------------------------------------------------------------

    def _mark_offline(self, ip: IPv4Address) -> None:
        if ip not in self._offline:
            self._offline.add(ip)
            self._offline_in_cluster[self.cluster_of_ip(ip)] += 1

    def _mark_online(self, ip: IPv4Address) -> None:
        if ip in self._offline:
            self._offline.discard(ip)
            self._offline_in_cluster[self.cluster_of_ip(ip)] -= 1

    def online_size(self, cluster_index: int) -> int:
        """Online host count of a cluster (its relay capacity right now).

        Feeding this into :func:`select_close_relay` keeps churned-away
        hosts out of the candidate accounting — a dark cluster offers
        zero relays, however attractive its measured paths.
        """
        total = int(self._view.sizes[cluster_index])
        return total - self._offline_in_cluster.get(cluster_index, 0)

    def online_hosts_in_cluster(self, cluster_index: int) -> List:
        """Online member hosts of a cluster, most capable first."""
        cluster = self._clusters.clusters[self._view.prefixes[cluster_index]]
        members = [h for h in cluster.hosts if h.ip not in self._offline]
        members.sort(key=lambda h: (-h.info.capability(), h.ip))
        return members

    def join(self, ip: IPv4Address) -> EndHost:
        """Join an end host: bootstrap lookup + nodal info publication."""
        self._mark_online(ip)
        host = self._scenario.population.by_ip(ip)
        endhost = EndHost(host=host)
        info = endhost.join(self._bootstraps)
        idx = self._view.index_of[info.prefix]
        endhost.publish_nodal_info(self.surrogate(idx, requester=ip))
        self._endhosts[ip] = endhost
        return endhost

    def is_online(self, ip: IPv4Address) -> bool:
        return ip not in self._offline

    def leave(self, ip: IPv4Address) -> Optional[Surrogate]:
        """An end host goes offline (churn).

        If the leaver serves as a surrogate, the cluster re-elects its
        group from the remaining online members (and bootstraps learn
        the new primary); returns the new primary in that case.  A
        single-host cluster simply goes dark — its surrogate entry
        remains until a member returns, mirroring how a real system
        only notices on the next failed request.
        """
        if ip in self._offline:
            return None  # already gone; nothing further to tear down
        host = self._scenario.population.by_ip(ip)
        self._mark_offline(ip)
        self._endhosts.pop(ip, None)
        cluster_index = self.cluster_of_ip(ip)
        group = self._surrogates[cluster_index]
        if all(member.ip != ip for member in group):
            return None
        cluster = self._clusters.clusters[self._view.prefixes[cluster_index]]
        remaining = [h for h in cluster.hosts if h.ip != ip and h.ip not in self._offline]
        if not remaining:
            return None  # cluster dark; stale surrogate entry remains

        class _Survivors:
            def __init__(self, prefix, asn, hosts):
                self.prefix = prefix
                self.asn = asn
                self.hosts = hosts

        fresh = self._elect_group(
            cluster_index, _Survivors(cluster.prefix, cluster.asn, remaining)
        )
        self._surrogates[cluster_index] = fresh
        for bootstrap in self._bootstraps:
            bootstrap.register_surrogate(cluster.prefix, fresh[0].ip)
        return fresh[0]

    def fail_surrogate(self, cluster_index: int) -> Surrogate:
        """Kill a surrogate; bootstraps appoint the next most capable host.

        Raises :class:`ProtocolError` for a single-host cluster (its only
        member *is* the surrogate).
        """
        old = self.surrogate(cluster_index)
        cluster = self._clusters.clusters[self._view.prefixes[cluster_index]]
        remaining = [
            h
            for h in cluster.hosts
            if h.ip != old.host.ip and h.ip not in self._offline
        ]
        if not remaining:
            raise ProtocolError(
                f"cluster {cluster.prefix} has no other host to promote"
            )
        self._mark_offline(old.host.ip)

        class _Survivors:
            """Cluster view excluding the failed primary."""

            def __init__(self, prefix, hosts):
                self.prefix = prefix
                self.asn = cluster.asn
                self.hosts = hosts

        group = self._elect_group(cluster_index, _Survivors(cluster.prefix, remaining))
        self._surrogates[cluster_index] = group
        for bootstrap in self._bootstraps:
            bootstrap.register_surrogate(cluster.prefix, group[0].ip)
        return group[0]

    # -- close-set maintenance -----------------------------------------------------

    def _init_close_sets(self) -> None:
        """Warm the close-set state according to the scenario's runtime knobs.

        With an artifact cache configured, previously built close sets
        (keyed by scenario config + protocol config) are installed
        directly; otherwise, with ``workers > 1``, every primary's set is
        prebuilt across a process pool.  With neither, construction stays
        lazy per cluster exactly as before.
        """
        from repro.storage.cache import ScenarioCache, resolve_cache_dir

        config = self._scenario.config
        cache_root = resolve_cache_dir(config.cache_dir)
        cache = (
            ScenarioCache(cache_root)
            if cache_root is not None and self._scenario.cacheable
            else None
        )
        if cache is not None:
            cached = cache.load_close_sets(config, self._config)
            if cached is not None:
                obs.counter("cache.close_sets.hits").inc()
                for idx, close_set in cached.items():
                    group = self._surrogates.get(idx)
                    if group is not None:
                        group[0]._close_set = close_set
                return
            obs.counter("cache.close_sets.misses").inc()
        workers = resolve_workers(config.workers)
        if cache is None and workers <= 1:
            return  # lazy construction, the original behaviour
        built = self.prebuild_close_sets(workers)
        if cache is not None:
            cache.save_close_sets(config, self._config, built)

    def prebuild_close_sets(
        self, workers: Optional[int] = None
    ) -> Dict[int, CloseClusterSet]:
        """Build every primary surrogate's close set, returning them all.

        Each cluster's valley-free BFS is independent given the AS graph,
        so with ``workers > 1`` the builds fan out over a fork-start
        process pool (children inherit the system read-only); results are
        identical to lazy serial construction.
        """
        count = resolve_workers(
            self._scenario.config.workers if workers is None else workers
        )
        pending = [
            idx
            for idx, group in sorted(self._surrogates.items())
            if group[0]._close_set is None
        ]
        prebuild_span = obs.span(
            "asap.prebuild_close_sets", pending=len(pending), workers=count
        )
        with prebuild_span:
            return self._prebuild_pending(pending, count)

    def _prebuild_pending(
        self, pending: List[int], count: int
    ) -> Dict[int, CloseClusterSet]:
        if count > 1 and len(pending) > 1 and fork_available():
            # Materialize the CSR export once pre-fork so every pool
            # child inherits it copy-on-write instead of rebuilding it.
            self._close_set_builder()
            global _PREBUILD_SYSTEM
            _PREBUILD_SYSTEM = self
            try:
                blocks = run_forked(
                    _build_close_set_chunk,
                    chunked(pending, count * 4),
                    processes=count,
                )
            finally:
                _PREBUILD_SYSTEM = None
            for block in blocks:
                for idx, close_set in block:
                    self._surrogates[idx][0]._close_set = close_set
        else:
            for idx in pending:
                self._surrogates[idx][0].close_set()
        return {idx: group[0].close_set() for idx, group in self._surrogates.items()}

    # -- calling ------------------------------------------------------------------

    def close_set(self, cluster_index: int) -> CloseClusterSet:
        """The (cached) close cluster set of a cluster."""
        return self.surrogate(cluster_index).close_set()

    def call(self, caller_ip: IPv4Address, callee_ip: IPv4Address) -> ASAPSession:
        """Run one VoIP session between two end hosts.

        The caller pings the callee first; only when the direct RTT
        misses the threshold does relay selection run (paper Fig. 8).
        """
        caller_cluster = self.cluster_of_ip(caller_ip)
        callee_cluster = self.cluster_of_ip(callee_ip)
        self.sessions_run += 1

        direct = self._view.rtt_cell(caller_cluster, callee_cluster)
        session = ASAPSession(
            caller=caller_ip,
            callee=callee_ip,
            caller_cluster=caller_cluster,
            callee_cluster=callee_cluster,
            direct_rtt_ms=direct,
            relay_needed=not (np.isfinite(direct) and direct < self._config.lat_threshold_ms),
        )
        obs.counter("asap.sessions").inc()
        if not session.relay_needed:
            return session

        obs.counter("asap.sessions.relay_needed").inc()
        with obs.span("asap.select_close_relay", level="debug"):
            s1 = self.surrogate(caller_cluster, requester=caller_ip).serve_close_set()
            s2 = self.surrogate(callee_cluster, requester=callee_ip).serve_close_set()
            selection = select_close_relay(
                s1,
                s2,
                cluster_size=self.online_size,
                close_set_of=lambda idx: self.surrogate(
                    idx, requester=caller_ip
                ).serve_close_set(),
                config=self._config,
            )
        session.selection = selection
        session.best_relay_rtt_ms = selection.best_rtt_ms()
        obs.counter("asap.select.messages").inc(selection.messages)
        obs.counter("asap.select.quality_paths").inc(selection.quality_paths)
        obs.counter("asap.select.one_hop_ips").inc(selection.one_hop_ips)
        obs.counter("asap.select.two_hop_pairs").inc(selection.two_hop_pairs)
        return session

    # -- accounting ------------------------------------------------------------------

    def maintenance_messages(self) -> int:
        """Total probe traffic spent building all materialized close sets."""
        return sum(
            member.maintenance_messages
            for group in self._surrogates.values()
            for member in group
        )


#: Shared state slot for fork-start close-set prebuild workers.
_PREBUILD_SYSTEM: Optional[ASAPSystem] = None


def _build_close_set_chunk(indices: List[int]):
    """Pool worker: construct the close sets of one chunk of clusters."""
    system = _PREBUILD_SYSTEM
    out = []
    for idx in indices:
        primary = system._surrogates[idx][0]
        out.append((idx, primary.build(idx, primary.asn)))
    return out
