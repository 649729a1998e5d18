"""Agent framework for the scenario simulation.

Agents are the behavioural counterparts of the paper's measured populations:
borrowers and lenders interacting with the pools, liquidation bots competing
on gas, and MakerDAO auction keepers.  Each agent owns an address, a private
random stream, and an :meth:`Agent.act` hook called once per simulation step
with the engine as context.

The private streams come from :func:`rng_stream`: one ``SeedSequence`` per
scenario seed hands out one child per agent, built only when the agent is
created, so a world pays for the agents it has and for no others.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ..chain.types import Address, make_address

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..simulation.engine import SimulationEngine


class Agent(abc.ABC):
    """Base class of every simulated actor."""

    def __init__(self, label: str, rng: np.random.Generator) -> None:
        self.address: Address = make_address(label)
        self.label = label
        self.rng = rng

    @abc.abstractmethod
    def act(self, engine: "SimulationEngine") -> None:
        """Perform this step's actions against the engine."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.label}>"


def rng_stream(seed: int) -> Iterator[np.random.Generator]:
    """Endless independent generators derived from ``seed``, built on demand.

    Successive ``spawn(1)`` calls on one ``SeedSequence`` hand out the spawn
    keys ``(0,), (1,), …``, so the k-th generator equals the k-th of
    ``SeedSequence(seed).spawn(n)`` for every ``n > k``.
    """
    parent = np.random.SeedSequence(seed)
    while True:
        yield np.random.default_rng(parent.spawn(1)[0])
