"""Base class for simulated nodes.

Overlay peers (P-Grid, Chord) subclass :class:`Node`.  A node is *online* or
*offline*; the network refuses to deliver to offline nodes, which is how churn
and failure experiments exercise the overlays' redundancy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.net.network import Network


class Node:
    """A network endpoint with an identity and an online flag."""

    def __init__(self, node_id: str, network: "Network"):
        self.node_id = node_id
        self.network = network
        self.online = True
        network.register(self)

    def fail(self) -> None:
        """Take the node offline (crash-stop)."""
        self.online = False
        self.network.membership += 1

    def recover(self) -> None:
        """Bring the node back online (state is retained, as after a restart)."""
        self.online = True
        self.network.membership += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.online else "down"
        return f"<{type(self).__name__} {self.node_id} {state}>"
