"""pHost configuration.

Defaults reproduce the paper's §4.1 settings: "we set the token expiry
time to be 1.5x, source downgrade time to be 8x and timeout to be 24x
MTU-sized packet transmission time (note that BDP for our topology is 8
packets). Moreover, we assign 8 free tokens to each flow."

Times expressed in *MTU transmission times* here are resolved against
the concrete topology by :meth:`PHostConfig.resolve`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.net.topology import TopologyConfig

__all__ = ["PHostConfig"]


@dataclass
class PHostConfig:
    """Tunable knobs of the pHost protocol.

    Attributes:
        free_tokens: Per-flow budget of tokens usable without a grant
            (paper default 8 — akin to TCP's initial window).
        token_expiry_mtus: Token lifetime after receipt, in MTU
            transmission times (paper default 1.5).
        downgrade_threshold: Unresponded-token count after which the
            destination downgrades a flow (paper: "a BDP worth", 8).
        downgrade_mtus: How long a downgraded flow stays ineligible for
            tokens, in MTU times (paper default 8).
        retx_timeout_mtus: Destination-side timeout after which tokens
            for missing packets are re-issued, in MTU times (paper
            default 24, i.e. ~3x RTT).
        downgrade_stale_mtus: A flow is only downgraded when, on top of
            exceeding the unresponded-token threshold, no data from it
            has arrived for this long — the paper's "exceeds ... in
            succession" qualifier; a bare count would misfire on
            packets merely queued at the last hop.
        free_reissue_mtus: Staleness window before the destination
            reclaims *free-budget* packets it never saw.  Much longer
            than retx_timeout because free tokens never expire at the
            source — under SRPT backlog a source may legitimately sit
            on them.
        grant_policy / spend_policy: Scheduling policy names (see
            :func:`repro.protocols.phost.policies.make_policy`): "srpt", "edf",
            "fifo", "tenant_fair".
        priority_policy: How data packets map onto the commodity
            priority bands (degree of freedom 3, paper §2.2): "size"
            (short flows band 1, long band 2 — the paper's FCT
            configuration), "uniform" (everything band 1), or
            "deadline" (urgent flows band 1; used with EDF
            scheduling).
        short_flow_pkts: Flows at most this many packets ride the
            second-highest priority band; larger flows the third.
            ``None`` means "fits within the free-token budget".
        uniform_data_priority: Send all data at one priority band
            (used with the tenant-fair configuration of Fig. 11).
        rts_retry_mtus: Source-side RTS retransmit interval (robustness
            against lost RTS packets; large, rarely fires).
        token_rate_factor: Tokens issued per MTU time (1.0 = paper).
    """

    free_tokens: int = 8
    token_expiry_mtus: float = 1.5
    downgrade_threshold: int = 8
    downgrade_mtus: float = 8.0
    retx_timeout_mtus: float = 24.0
    downgrade_stale_mtus: float = 6.0
    free_reissue_mtus: float = 72.0
    grant_policy: str = "srpt"
    spend_policy: str = "srpt"
    priority_policy: str = "size"
    short_flow_pkts: Optional[int] = None
    uniform_data_priority: bool = False
    rts_retry_mtus: float = 72.0
    token_rate_factor: float = 1.0

    # Resolved absolute times (seconds); populated by resolve().
    token_interval: float = field(default=0.0, repr=False)
    token_expiry: float = field(default=0.0, repr=False)
    downgrade_time: float = field(default=0.0, repr=False)
    downgrade_stale: float = field(default=0.0, repr=False)
    retx_timeout: float = field(default=0.0, repr=False)
    free_reissue: float = field(default=0.0, repr=False)
    rts_retry: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.priority_policy not in ("size", "uniform", "deadline"):
            raise ValueError(
                "priority_policy must be 'size', 'uniform' or 'deadline'"
            )
        if self.free_tokens < 0:
            raise ValueError("free_tokens must be >= 0")
        if self.token_expiry_mtus <= 0:
            raise ValueError("token_expiry_mtus must be positive")
        if self.downgrade_threshold < 1:
            raise ValueError("downgrade_threshold must be >= 1")
        if self.retx_timeout_mtus <= 0 or self.downgrade_mtus < 0:
            raise ValueError("timeout parameters must be positive")
        if self.token_rate_factor <= 0:
            raise ValueError("token_rate_factor must be positive")

    def resolve(self, topo: TopologyConfig) -> "PHostConfig":
        """Return a copy with absolute times computed for ``topo``."""
        mtu = topo.mtu_tx_time
        return replace(
            self,
            token_interval=mtu / self.token_rate_factor,
            token_expiry=self.token_expiry_mtus * mtu,
            downgrade_time=self.downgrade_mtus * mtu,
            downgrade_stale=self.downgrade_stale_mtus * mtu,
            retx_timeout=self.retx_timeout_mtus * mtu,
            free_reissue=self.free_reissue_mtus * mtu,
            rts_retry=self.rts_retry_mtus * mtu,
        )

    @property
    def short_threshold_pkts(self) -> int:
        """Packet-count boundary between priority bands for data."""
        if self.short_flow_pkts is not None:
            return self.short_flow_pkts
        return max(self.free_tokens, 1)

    @classmethod
    def paper_default(cls) -> "PHostConfig":
        return cls()

    @classmethod
    def tenant_fair(cls) -> "PHostConfig":
        """The Figure 11 configuration: fairness between tenants, SRPT
        within a tenant, one data priority band, no free tokens."""
        return cls(
            grant_policy="tenant_fair",
            spend_policy="tenant_fair",
            uniform_data_priority=True,
            free_tokens=0,
        )

    @classmethod
    def deadline(cls) -> "PHostConfig":
        """EDF token scheduling for deadline-constrained traffic."""
        return cls(grant_policy="edf", spend_policy="edf")
