"""Partition models of interactive knowledge.

An :class:`AumannModel` is an explicit finite carrier with one partition per
agent.  The link of an event through an agent's partition collects every
state sharing a cell with the event; iterating the group link induces a
breadth-first metric whose connected components are the carrier's
reachability classes.  On top of that sit the knowledge operators and two
common-knowledge tests: the classical one (the closure of the true state
lies inside the event) and the subjective one (nothing outside the event is
at finite link distance from the true state).  On a finite carrier both
reduce to one question, answered from a component index that each model
builds once by union-find and caches: does the true state's block of the
meet lie inside the event?  The breadth-first ``closure``, ``components``
and ``distances_from`` never read that index; they are its oracles.

Infinite carriers can stand in for an ``AumannModel`` wherever closed forms
exist: such a model must expose ``agents``, ``cell(agent, state)`` and
``metric(x, y)`` and advertise ``states = None``.  Only there does the
subjective test search a complement, so its events must list theirs
explicitly (:attr:`Event.complement_witnesses`); on a finite carrier
witnesses are validated and never searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Mapping, Optional

from .hypernat import HyperNat, finite
from .reports import CheckReport
from .sorites import SoritesRelation

State = Hashable
Agent = Hashable

__all__ = [
    "Agent",
    "AumannModel",
    "Event",
    "ModelFormatError",
    "State",
    "ck_classical",
    "ck_region",
    "ck_subjective",
    "is_reachable",
    "knows",
    "knows_group",
    "link_agent",
    "link_group",
    "link_iter",
    "meet",
    "meet_equals_galaxies",
    "model_from_dict",
    "reachability_relation",
]


class ModelFormatError(ValueError):
    """A malformed JSON model document; carries the offending field path."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field
        self.reason = message


class AumannModel:
    """A finite state space with one cell partition per agent."""

    def __init__(
        self,
        agents: Iterable[Agent],
        partitions: Mapping[Agent, Iterable[Iterable[State]]],
    ):
        self._agents = tuple(agents)
        if not self._agents:
            raise ValueError("a model needs at least one agent")
        if len(set(self._agents)) != len(self._agents):
            raise ValueError("agent names must be distinct")
        self._cells: dict = {}
        self._partitions: dict = {}
        carrier: Optional[set] = None
        for agent in self._agents:
            if agent not in partitions:
                raise ValueError(f"missing partition for agent {agent!r}")
            cells = tuple(frozenset(cell) for cell in partitions[agent])
            covered: set = set()
            for cell in cells:
                if not cell:
                    raise ValueError(f"agent {agent!r} has an empty cell")
                for state in cell:
                    if state in covered:
                        raise ValueError(f"state {state!r} lies in two cells of agent {agent!r}")
                    covered.add(state)
                    self._cells[agent, state] = cell
            if carrier is None:
                carrier = covered
            elif covered != carrier:
                raise ValueError(f"agent {agent!r} partitions a different carrier")
            self._partitions[agent] = cells
        self._states = tuple(sorted(carrier, key=str))
        self._index: Optional[tuple] = None

    @property
    def agents(self) -> tuple:
        return self._agents

    @property
    def states(self) -> tuple:
        return self._states

    def partition(self, agent: Agent) -> tuple:
        try:
            return self._partitions[agent]
        except KeyError:
            raise ValueError(f"unknown agent {agent!r}") from None

    def cell(self, agent: Agent, state: State) -> frozenset:
        try:
            return self._cells[agent, state]
        except KeyError:
            raise ValueError(f"unknown agent/state pair ({agent!r}, {state!r})") from None

    def neighbors(self, state: State) -> frozenset:
        """States sharing a cell with ``state`` for at least one agent."""
        out: set = set()
        for agent in self._agents:
            out |= self.cell(agent, state)
        return frozenset(out)

    def distances_from(self, origin: State) -> dict:
        """Breadth-first link distances from ``origin`` as plain ints.

        Unreachable states are simply absent.  Each state is assigned on its
        first visit, so layer indices are unique by construction.
        """
        self.cell(self._agents[0], origin)  # validates the state
        dist = {origin: 0}
        frontier = [origin]
        layer = 0
        while frontier:
            layer += 1
            next_frontier = []
            for s in frontier:
                for t in self.neighbors(s):
                    if t not in dist:
                        dist[t] = layer
                        next_frontier.append(t)
            frontier = next_frontier
        return dist

    def metric(self, x: State, y: State) -> Optional[HyperNat]:
        """Link distance, or None when ``y`` is unreachable from ``x``."""
        dist = self.distances_from(x)
        if y not in dist:
            self.cell(self._agents[0], y)  # unknown state, not just unreachable
            return None
        return finite(dist[y])

    def closure(self, state: State) -> frozenset:
        """All states reachable from ``state`` through chains of cells."""
        return frozenset(self.distances_from(state))

    def components(self) -> tuple:
        """Reachability components, via breadth-first closures."""
        seen: set = set()
        comps = []
        for s in self._states:
            if s in seen:
                continue
            comp = self.closure(s)
            seen |= comp
            comps.append(comp)
        return tuple(comps)

    def component_index(self) -> tuple:
        """The meet's blocks, sorted by their first state, and a map from
        each state to its block.

        Built on first use by one union-find over the cells and cached, so
        every later meet or common-knowledge query on the model reads it.
        """
        if self._index is None:
            uf = _UnionFind(self._states)
            for cells in self._partitions.values():
                for cell in cells:
                    anchor = next(iter(cell))
                    for s in cell:
                        uf.union(anchor, s)
            groups: dict = {}
            for s in self._states:
                groups.setdefault(uf.find(s), []).append(s)
            blocks = tuple(
                frozenset(g) for g in sorted(groups.values(), key=lambda g: str(g[0]))
            )
            self._index = (blocks, {s: block for block in blocks for s in block})
        return self._index


class _UnionFind:
    def __init__(self, items: Iterable):
        self._parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self._parent[rb] = ra


@dataclass(frozen=True)
class Event:
    """An event as a total membership predicate.

    ``members`` pins the explicit extension when it is finite and known.
    ``complement_witnesses`` lists every state OUTSIDE the event; it is what
    makes subjective checks possible on infinite carriers, so there it must
    be finite and exhaustive.
    """

    contains: Callable[[Any], bool]
    members: Optional[frozenset] = None
    complement_witnesses: Optional[tuple] = None

    @classmethod
    def from_states(cls, states: Iterable[State]) -> "Event":
        members = frozenset(states)
        return cls(contains=members.__contains__, members=members)

    @classmethod
    def from_predicate(
        cls,
        predicate: Callable[[Any], bool],
        complement_witnesses: Optional[Iterable[State]] = None,
    ) -> "Event":
        witnesses = tuple(complement_witnesses) if complement_witnesses is not None else None
        return cls(contains=predicate, complement_witnesses=witnesses)


def _as_event(event: Any) -> Event:
    if isinstance(event, Event):
        return event
    if isinstance(event, (set, frozenset)):
        return Event.from_states(event)
    raise TypeError("events are sets of states or Event objects")


def _finite_carrier(model: Any) -> bool:
    """Does the model enumerate its carrier (``states`` is not None)?"""
    return getattr(model, "states", None) is not None


def _members(model: Any, event: Event) -> frozenset:
    if event.members is not None:
        return event.members
    if _finite_carrier(model):
        return frozenset(s for s in model.states if event.contains(s))
    raise ValueError("event needs an explicit member set on an infinite carrier")


def link_agent(model: Any, agent: Agent, event: Any) -> frozenset:
    """Union of the agent's cells meeting the event."""
    out: set = set()
    for s in _members(model, _as_event(event)):
        out |= model.cell(agent, s)
    return frozenset(out)


def link_group(model: Any, event: Any) -> frozenset:
    """Union of every agent's link; always contains the event itself."""
    members = _members(model, _as_event(event))
    out: set = set()
    for agent in model.agents:
        for s in members:
            out |= model.cell(agent, s)
    return frozenset(out)


def link_iter(model: Any, event: Any, n: Any) -> frozenset:
    """The ``n``-fold group link; ``n`` must be finite."""
    if isinstance(n, HyperNat):
        if n.is_huge:
            raise ValueError("cannot iterate a huge number of link steps; use a closed form")
        n = int(n)
    if n < 0:
        raise ValueError("link iterations are nonnegative")
    current = frozenset(_members(model, _as_event(event)))
    for _ in range(n):
        current = link_group(model, current)
    return current


def is_reachable(model: Any, x: State, y: State) -> bool:
    """Some finite chain of cells joins ``x`` to ``y``."""
    return model.metric(x, y) is not None


def knows(model: Any, agent: Agent, event: Any) -> frozenset:
    """States where the agent's whole cell lies inside the event."""
    ev = _as_event(event)
    if not _finite_carrier(model):
        raise ValueError("knowledge sets need an enumerable carrier")
    return frozenset(
        s for s in model.states if all(ev.contains(t) for t in model.cell(agent, s))
    )


def knows_group(model: Any, event: Any) -> frozenset:
    """States where every agent knows the event."""
    result: Optional[frozenset] = None
    for agent in model.agents:
        ks = knows(model, agent, event)
        result = ks if result is None else result & ks
    return frozenset(result or frozenset())


def _block_within(model: AumannModel, ev: Event, omega: State) -> bool:
    """Does the block of the meet holding ``omega`` lie in the event?

    On a finite carrier every reachable state is at finite link distance,
    so this is both CK tests at once.  The block comes from the model's
    cached component index, so a query costs one subset test.
    """
    block = model.component_index()[1].get(omega)
    if block is None:
        model.cell(model.agents[0], omega)  # raises: omega is not a state of the model
    if ev.members is not None:
        return block <= ev.members
    return all(ev.contains(t) for t in block)


def ck_classical(model: Any, event: Any, omega: State) -> bool:
    """Classical test: every state reachable from ``omega`` lies in the event."""
    ev = _as_event(event)
    if not _finite_carrier(model):
        raise ValueError("classical common knowledge needs an enumerable reachability closure")
    return _block_within(model, ev, omega)


def reachability_relation(model: Any) -> SoritesRelation:
    """The sorites relation whose distance is the model's link metric."""
    return SoritesRelation(dist=model.metric)


def _check_witnesses(model: Any, ev: Event, witnesses: tuple) -> None:
    for x in witnesses:
        if ev.contains(x):
            raise ValueError(f"complement witness {x!r} lies inside the event")
    if _finite_carrier(model):
        complement = {s for s in model.states if not ev.contains(s)}
        if set(witnesses) != complement:
            raise ValueError("complement witnesses must list exactly the event's complement")


def ck_subjective(model: Any, event: Any, omega: State) -> bool:
    """Subjective test: nothing outside the event is at finite link distance.

    Equivalently, the galaxy of ``omega`` is contained in the event.  On a
    finite carrier the galaxy is the block of the meet holding ``omega``,
    read from the model's component index.  On an infinite carrier the
    complement is searched, never the galaxy itself, so the event must list
    its complement witnesses.  Witnesses, where given, must lie outside the
    event and, on a finite carrier, be exactly its complement.
    """
    ev = _as_event(event)
    witnesses = ev.complement_witnesses
    if witnesses is not None:
        _check_witnesses(model, ev, witnesses)
    if _finite_carrier(model):
        return _block_within(model, ev, omega)
    if witnesses is None:
        raise ValueError(
            "subjective common knowledge on an infinite carrier needs complement witnesses"
        )
    rel = reachability_relation(model)
    return not any(rel.related(x, omega) for x in witnesses)


def ck_region(model: Any, event: Any) -> Event:
    """The event of states at which ``event`` is subjectively common knowledge."""
    return Event.from_predicate(lambda omega: ck_subjective(model, event, omega))


def meet(model: Any) -> tuple:
    """Finest common coarsening of all agents' partitions (union-find route)."""
    if not _finite_carrier(model):
        raise ValueError("the meet needs an explicit finite carrier")
    return model.component_index()[0]


def meet_equals_galaxies(model: Any) -> CheckReport:
    """Compare the meet's blocks with the reachability components.

    The two sides are computed by different routes: union-find over cell
    overlaps versus breadth-first closures.
    """
    blocks = set(meet(model))
    comps = set(model.components())
    report = CheckReport(
        "meet-equals-galaxies",
        {"states": len(model.states), "agents": len(model.agents)},
    )
    equal = blocks == comps

    def _render(side):
        return sorted(
            (sorted(map(str, block)) for block in side),
            key=lambda block: block[0] if block else "",
        )

    report.add(
        {"comparison": "meet blocks vs reachability components"},
        "equal",
        "equal" if equal else {
            "meet_only": _render(blocks - comps),
            "components_only": _render(comps - blocks),
        },
        equal,
    )
    return report


def model_from_dict(payload: Any) -> tuple:
    """Build a model and its named events from the JSON document format.

    Format::

        {"states": [...],
         "agents": [{"name": ..., "partition": [[state, ...], ...]}, ...],
         "events": {"name": [state, ...], ...}}

    States are opaque strings.  Raises :class:`ModelFormatError` with the
    offending field path on any malformation.
    """
    if not isinstance(payload, dict):
        raise ModelFormatError("$", "document must be a JSON object")
    raw_states = payload.get("states")
    if not isinstance(raw_states, list) or not raw_states:
        raise ModelFormatError("states", "expected a nonempty list of state names")
    for i, s in enumerate(raw_states):
        if not isinstance(s, str):
            raise ModelFormatError(f"states[{i}]", "state names must be strings")
    if len(set(raw_states)) != len(raw_states):
        raise ModelFormatError("states", "state names must be unique")
    carrier = set(raw_states)

    raw_agents = payload.get("agents")
    if not isinstance(raw_agents, list) or not raw_agents:
        raise ModelFormatError("agents", "expected a nonempty list of agents")
    agents = []
    partitions: dict = {}
    for i, spec in enumerate(raw_agents):
        base = f"agents[{i}]"
        if not isinstance(spec, dict):
            raise ModelFormatError(base, "expected an object with name and partition")
        name = spec.get("name")
        if not isinstance(name, str) or not name:
            raise ModelFormatError(f"{base}.name", "agent name must be a nonempty string")
        if name in partitions:
            raise ModelFormatError(f"{base}.name", f"duplicate agent {name!r}")
        cells = spec.get("partition")
        if not isinstance(cells, list) or not cells:
            raise ModelFormatError(f"{base}.partition", "expected a nonempty list of cells")
        seen: set = set()
        parsed_cells = []
        for j, cell in enumerate(cells):
            where = f"{base}.partition[{j}]"
            if not isinstance(cell, list) or not cell:
                raise ModelFormatError(where, "cells are nonempty lists of states")
            try:
                for s in cell:
                    if s not in carrier:
                        raise ModelFormatError(where, f"unknown state {s!r}")
                    if s in seen:
                        raise ModelFormatError(where, f"state {s!r} appears in two cells")
                    seen.add(s)
            except TypeError:  # an unhashable member, such as a list
                raise ModelFormatError(where, f"unknown state {s!r}") from None
            parsed_cells.append(cell)
        missing = carrier - seen
        if missing:
            raise ModelFormatError(f"{base}.partition", f"states not covered: {sorted(missing)}")
        agents.append(name)
        partitions[name] = parsed_cells

    raw_events = payload.get("events", {})
    if not isinstance(raw_events, dict):
        raise ModelFormatError("events", "expected an object of named events")
    events = {}
    for name, members in raw_events.items():
        where = f"events.{name}"
        if not isinstance(members, list):
            raise ModelFormatError(where, "events are lists of states")
        try:
            for s in members:
                if s not in carrier:
                    raise ModelFormatError(where, f"unknown state {s!r}")
        except TypeError:  # an unhashable member, such as a list
            raise ModelFormatError(where, f"unknown state {s!r}") from None
        events[name] = frozenset(members)

    return AumannModel(agents, partitions), events
