"""Query distribution: controller → distributors → queriers (§2.6, §3).

The controller runs a Reader (input, pre-loading a window of queries)
and a Postman (distribution).  Distributors fan queries out to querier
processes.  Every tier keeps a sticky source-address map so queries from
the same original source always land on the same downstream entity —
the invariant connection reuse depends on: "each distributor either
picks the next entity based on a recent query source address in record,
or selects randomly otherwise".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generic, Hashable, Optional, Sequence, TypeVar

T = TypeVar("T")


class StickyAssigner(Generic[T]):
    """Sticky source→entity assignment with round-robin for new sources."""

    def __init__(self, entities: Sequence[T],
                 sticky: bool = True, allow_empty: bool = False):
        if not entities and not allow_empty:
            raise ValueError("need at least one entity")
        self.entities = list(entities)
        self.sticky = sticky
        self._assignments: Dict[Hashable, T] = {}
        self._next = 0

    def assign(self, source: Hashable) -> T:
        """The entity for ``source`` (an address, as text or packed)."""
        if self.sticky:
            entity = self._assignments.get(source)
            if entity is not None:
                return entity
        entity = self.entities[self._next % len(self.entities)]
        self._next += 1
        if self.sticky:
            self._assignments[source] = entity
        return entity

    def remove(self, entity: T) -> None:
        """Forget a dead entity: sticky routes to it are re-assigned."""
        self.entities = [e for e in self.entities if e is not entity]
        self._assignments = {
            src: ent for src, ent in self._assignments.items()
            if ent is not entity}

    def add(self, entity: T) -> None:
        """Bring a (re)spawned entity into rotation.

        Only *new* sources land on it at first; sources sticky to live
        entities stay put, preserving connection reuse, while sources
        orphaned by an earlier :meth:`remove` rebalance onto it.
        """
        if not any(existing is entity for existing in self.entities):
            self.entities.append(entity)

    def assignment_count(self) -> int:
        return len(self._assignments)


@dataclass
class DistributionStats:
    """Message counts across the distribution tree (for ablations)."""

    controller_to_distributor: int = 0
    distributor_to_querier: int = 0
    time_sync_broadcasts: int = 0


class Distributor:
    """One distributor: routes records to its querier processes."""

    def __init__(self, distributor_id: int, queriers: Sequence,
                 sticky: bool = True,
                 stats: Optional[DistributionStats] = None):
        self.distributor_id = distributor_id
        self.queriers = list(queriers)
        self.assigner = StickyAssigner(self.queriers, sticky=sticky)
        self.stats = stats if stats is not None else DistributionStats()
        self.records_routed = 0

    def route(self, source: str):
        """Pick the querier for a record from ``source``."""
        self.records_routed += 1
        self.stats.distributor_to_querier += 1
        return self.assigner.assign(source)

    def retire(self, querier) -> bool:
        """Drop a dead/stalled querier from this distributor's routing.

        Sticky sources assigned to it are forgotten so the next record
        from each fails over to a live querier.  Returns True when the
        querier belonged to this distributor.
        """
        if querier not in self.queriers:
            return False
        self.queriers.remove(querier)
        self.assigner.remove(querier)
        return True


class Controller:
    """Reader + Postman: feeds distributors, broadcasting time sync.

    The Reader "pre-loads a window of queries to avoid falling behind
    real time" (§3); the window size and the per-record processing cost
    are modelled explicitly so the input-delay ablation can vary them.
    """

    def __init__(self, distributors: Sequence[Distributor],
                 sticky: bool = True, input_window: int = 1000,
                 input_delay_per_record: float = 2e-6):
        self.distributors = list(distributors)
        self.assigner = StickyAssigner(self.distributors, sticky=sticky)
        self.input_window = input_window
        self.input_delay_per_record = input_delay_per_record
        self.stats = (self.distributors[0].stats if self.distributors
                      else DistributionStats())
        self.records_read = 0

    def broadcast_time_sync(self) -> None:
        self.stats.time_sync_broadcasts += len(self.distributors)

    def availability_time(self, index: int, start_clock: float) -> float:
        """When record ``index`` emerges from the input pipeline.

        Records inside the pre-load window are available immediately at
        start; later ones pay the cumulative input-processing cost.
        """
        if index < self.input_window:
            return start_clock
        return start_clock + (index - self.input_window + 1) \
            * self.input_delay_per_record

    def dispatch(self, source: str):
        """Route one record: controller tier, then distributor tier."""
        self.records_read += 1
        self.stats.controller_to_distributor += 1
        distributor = self.assigner.assign(source)
        return distributor.route(source)
