"""Partition models of interactive knowledge.

An :class:`AumannModel` is an explicit finite carrier with one partition per
agent, stored once as a table ``state -> cell`` per agent: ``cell``,
``link_iter``, the union-find meet and ``knows`` all read it.  The
link of an event through an agent's partition collects every state sharing
a cell with the event; iterating the group link induces a breadth-first
metric whose connected components are the carrier's reachability classes.
Both walks are linear in the states they reach: ``link_iter`` takes the
n-fold link as one multi-source frontier walk that reads each reached
state's cells once, and the breadth-first walk runs on state ids over an
int copy of the tables that each model builds on its first walk and caches.
That one id walk returns the visit order and a list of distances by id, and
each of ``distances_from``, ``closure``, ``components`` and ``metric`` maps
back to states only what it returns: a ``state -> int`` dict in visit
order, one frozenset per closure or component, one distance.
On top of that sit the knowledge operators and two common-knowledge tests:
the classical one (the closure of the true state lies inside the event) and
the subjective one (nothing outside the event is at finite link distance
from the true state).  On a finite carrier both reduce to one question,
answered from a component index that each model builds once by union-find
and caches: does the true state's block of the meet lie inside the event?
The breadth-first ``closure``, ``components`` and ``distances_from`` never
read that index; they are its oracles.

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
        # One table per agent, state -> cell, filled cell by cell in input order.
        self._cells: dict = {}
        for agent in self._agents:
            if agent not in partitions:
                raise ValueError(f"missing partition for agent {agent!r}")
            table = self._cells[agent] = {}
            for cell in map(frozenset, partitions[agent]):
                if not cell:
                    raise ValueError(f"agent {agent!r} has an empty cell")
                for state in cell:
                    if state in table:
                        raise ValueError(f"state {state!r} lies in two cells of agent {agent!r}")
                    table[state] = cell
            if table.keys() != self._cells[self._agents[0]].keys():
                raise ValueError(f"agent {agent!r} partitions a different carrier")
        self._states = tuple(sorted(self._cells[self._agents[0]], key=str))
        self._index: Optional[tuple] = None
        self._adjacency: Optional[tuple] = None

    @property
    def agents(self) -> tuple:
        return self._agents

    @property
    def states(self) -> tuple:
        return self._states

    def partition(self, agent: Agent) -> tuple:
        """The agent's cells, in the order the constructor was given them."""
        try:
            return tuple(dict.fromkeys(self._cells[agent].values()))
        except KeyError:
            raise ValueError(f"unknown agent {agent!r}") from None

    def cell(self, agent: Agent, state: State) -> frozenset:
        try:
            return self._cells[agent][state]
        except KeyError:
            raise ValueError(f"unknown agent/state pair ({agent!r}, {state!r})") from None

    def _int_adjacency(self) -> tuple:
        """The state ids, ``state -> position in states``, and per agent a
        list by id of each state's cell as a tuple of member ids (one tuple
        per cell, shared by its members).  Built on first use and cached."""
        if self._adjacency is None:
            ids = {s: i for i, s in enumerate(self._states)}
            rows = []
            for table in self._cells.values():
                row = [None] * len(ids)
                for cell in dict.fromkeys(table.values()):
                    members = tuple(map(ids.__getitem__, cell))
                    for i in members:
                        row[i] = members
                rows.append(row)
            self._adjacency = (ids, tuple(rows))
        return self._adjacency

    def _id(self, state: State) -> int:
        """The position of ``state`` in :attr:`states`."""
        i = self._int_adjacency()[0].get(state)
        if i is None:
            self.cell(self._agents[0], state)  # raises: not a state of the model
        return i

    def _walk(self, start: int) -> tuple:
        """The breadth-first walk from state id ``start`` over the cached
        adjacency: the reached ids in the order first visited, and the link
        distances by id, None where unreached.  It hashes no state."""
        rows = self._int_adjacency()[1]
        dist = [None] * len(self._states)
        dist[start] = 0
        order = [start]
        for i in order:  # the queue: states are appended as they are reached
            layer = dist[i] + 1
            for row in rows:
                for j in row[i]:
                    if dist[j] is None:
                        dist[j] = layer
                        order.append(j)
        return order, dist

    def distances_from(self, origin: State) -> dict:
        """Breadth-first link distances from ``origin`` as plain ints.

        Unreachable states are simply absent, and the states come in the
        order the walk first visits them.
        """
        order, dist = self._walk(self._id(origin))
        return dict(zip(map(self._states.__getitem__, order), map(dist.__getitem__, order)))

    def metric(self, x: State, y: State) -> Optional[HyperNat]:
        """Link distance, or None when ``y`` is unreachable from ``x``."""
        i, j = self._id(x), self._id(y)
        d = self._walk(i)[1][j]
        return None if d is None else finite(d)

    def closure(self, state: State) -> frozenset:
        """All states reachable from ``state`` through chains of cells."""
        return frozenset(map(self._states.__getitem__, self._walk(self._id(state))[0]))

    def components(self) -> tuple:
        """Reachability components, via breadth-first closures."""
        states = self._states
        seen = [False] * len(states)
        comps = []
        for i in range(len(states)):
            if seen[i]:
                continue
            order = self._walk(i)[0]
            for j in order:
                seen[j] = True
            comps.append(frozenset(map(states.__getitem__, order)))
        return tuple(comps)

    def component_index(self) -> tuple:
        """The meet's blocks, sorted by their first state, and a map from
        each state to its block.

        Built on first use by one union-find over the cells and cached, so
        every later meet or common-knowledge query on the model reads it.
        """
        if self._index is None:
            parent = {s: s for s in self._states}

            def find(x):
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]  # path halving
                return x

            for table in self._cells.values():
                current = None  # a cell's states follow each other in its table
                for s, cell in table.items():
                    if cell is current:
                        parent[find(s)] = root
                    else:
                        current, root = cell, find(s)
            groups: dict = {}
            for s in self._states:
                groups.setdefault(find(s), []).append(s)
            blocks = tuple(
                frozenset(g) for g in sorted(groups.values(), key=lambda g: str(g[0]))
            )
            self._index = (blocks, {s: block for block in blocks for s in block})
        return self._index


@dataclass(frozen=True)
class Event:
    """An event given by a total membership predicate, a class that need not
    be a set; the other kind of event is a plain set of states.

    ``complement_witnesses`` lists every state OUTSIDE the event.  It is what
    makes subjective checks possible on infinite carriers, so there it must
    be finite and exhaustive; on a finite carrier, where given, every
    operator checks that it is exactly the complement.  Any iterable is
    stored as a tuple, and a witness inside the event is rejected here.
    """

    contains: Callable[[Any], bool]
    complement_witnesses: Optional[tuple] = None

    def __post_init__(self) -> None:
        if self.complement_witnesses is None:
            return
        witnesses = tuple(self.complement_witnesses)
        object.__setattr__(self, "complement_witnesses", witnesses)
        for x in witnesses:
            if self.contains(x):
                raise ValueError(f"complement witness {x!r} lies inside the event")


def _finite_carrier(model: Any) -> bool:
    """Does the model enumerate its carrier (``states`` is not None)?"""
    return getattr(model, "states", None) is not None


def _members(model: Any, event: Any) -> frozenset:
    """An event's member set; the one place an event is read.

    A set is read as it is: no Event is built around it.  An Event's
    predicate is called once per state of a finite carrier, and its
    complement witnesses, where given, are checked against that same set.
    """
    if isinstance(event, (set, frozenset)):
        return frozenset(event)  # of a frozenset: that frozenset, not a copy
    if not isinstance(event, Event):
        raise TypeError("events are sets of states or Event objects")
    if not _finite_carrier(model):
        raise ValueError("event needs an explicit member set on an infinite carrier")
    members = frozenset(filter(event.contains, model.states))
    witnesses = event.complement_witnesses
    # The table's keys carry their hashes: no state's __hash__ is called.
    if witnesses is not None and set(witnesses) != model._cells[model.agents[0]].keys() - members:
        raise ValueError("complement witnesses must list exactly the event's complement")
    return members


def link_agent(model: Any, agent: Agent, event: Any) -> frozenset:
    """Union of the agent's cells meeting the event."""
    out: set = set()
    for s in _members(model, event):
        out |= model.cell(agent, s)
    return frozenset(out)


def link_group(model: Any, event: Any) -> frozenset:
    """Union of every agent's link; always contains the event itself."""
    members = _members(model, event)
    return frozenset().union(*(link_agent(model, agent, members) for agent in model.agents))


def link_iter(model: Any, event: Any, n: Any) -> frozenset:
    """The ``n``-fold group link; ``n`` must be finite.

    One multi-source breadth-first walk: each step reads the cells of only
    the states the previous step reached first, and the walk stops early
    once nothing new is reached.  So it makes at most one cell read per
    agent and reached state, whatever ``n`` is; :func:`link_group` applied
    ``n`` times is its reference.
    """
    if isinstance(n, HyperNat):
        if n.is_huge:
            raise ValueError("cannot iterate a huge number of link steps; use a closed form")
        n = int(n)
    if n < 0:
        raise ValueError("link iterations are nonnegative")
    reached = set(_members(model, event))
    frontier = list(reached)
    agents = model.agents
    for _ in range(n):
        if not frontier:
            break
        next_frontier = []
        for s in frontier:
            for agent in agents:
                for t in model.cell(agent, s):
                    if t not in reached:
                        reached.add(t)
                        next_frontier.append(t)
        frontier = next_frontier
    return frozenset(reached)


def is_reachable(model: Any, x: State, y: State) -> bool:
    """Some finite chain of cells joins ``x`` to ``y``."""
    return reachability_relation(model).related(x, y)


def knows(model: Any, agent: Agent, event: Any) -> frozenset:
    """States where the agent's whole cell lies inside the event: the union
    of the agent's cells inside it, each cell tested once."""
    if not _finite_carrier(model):
        raise ValueError("knowledge sets need an enumerable carrier")
    members = _members(model, event)
    return frozenset().union(*(cell for cell in model.partition(agent) if cell <= members))


def knows_group(model: Any, event: Any) -> frozenset:
    """States where every agent knows the event; a predicate is read once."""
    if _finite_carrier(model):  # else knows raises before reading the event
        event = _members(model, event)
    return frozenset.intersection(*(knows(model, agent, event) for agent in model.agents))


def _ck_finite(model: AumannModel, event: Any, omega: State) -> bool:
    """Both CK tests on a finite carrier, where every reachable state is at
    finite link distance: does the block of the meet holding ``omega``, read
    from the cached component index, lie in the event's member set?"""
    members = _members(model, event)
    block = model.component_index()[1].get(omega)
    if block is None:
        model.cell(model.agents[0], omega)  # raises: omega is not a state of the model
    return block <= members


def ck_classical(model: Any, event: Any, omega: State) -> bool:
    """Classical test: every state reachable from ``omega`` lies in the event;
    complement witnesses, where given, are checked as in :func:`ck_subjective`."""
    if not _finite_carrier(model):
        raise ValueError("classical common knowledge needs an enumerable reachability closure")
    return _ck_finite(model, event, omega)


def reachability_relation(model: Any) -> SoritesRelation:
    """The sorites relation whose distance is the model's link metric."""
    return SoritesRelation(dist=model.metric)


def ck_subjective(model: Any, event: Any, omega: State) -> bool:
    """Subjective test: nothing outside the event is at finite link distance.

    Equivalently, the galaxy of ``omega`` lies in the event; on a finite
    carrier that galaxy is ``omega``'s block of the meet, so this is the
    classical test.  An infinite carrier searches the complement, so the
    event must list its complement witnesses.  Witnesses, where given, must
    lie outside the event and, on a finite carrier, be exactly its complement.
    """
    if _finite_carrier(model):
        return _ck_finite(model, event, omega)
    return ck_region(model, event).contains(omega)


def ck_region(model: Any, event: Any) -> Event:
    """The event of states at which ``event`` is subjectively common knowledge.

    The event is read and its witnesses checked once, here.  On a finite
    carrier the region is the union of the meet blocks inside the event; on
    an infinite one a query searches the complement witnesses.
    """
    if _finite_carrier(model):
        members = _members(model, event)
        region = frozenset().union(*(b for b in model.component_index()[0] if b <= members))
        return Event(region.__contains__)
    # A set lists no witnesses, so its Event is rejected below.
    ev = event if isinstance(event, Event) else Event(_members(model, event).__contains__)
    witnesses = ev.complement_witnesses
    if witnesses is None:
        raise ValueError(
            "subjective common knowledge on an infinite carrier needs complement witnesses"
        )
    rel = reachability_relation(model)
    return Event(lambda omega: not any(rel.related(x, omega) for x in witnesses))


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
            key=lambda block: block[0],
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
        for j, cell in enumerate(cells):
            where = f"{base}.partition[{j}]"
            if not isinstance(cell, list) or not cell:
                raise ModelFormatError(where, "cells are nonempty lists of states")
            for s in cell:
                if not (isinstance(s, str) and s in carrier):
                    raise ModelFormatError(where, f"unknown state {s!r}")
                if s in seen:
                    raise ModelFormatError(where, f"state {s!r} appears in two cells")
                seen.add(s)
        missing = carrier - seen
        if missing:
            raise ModelFormatError(f"{base}.partition", f"states not covered: {sorted(missing)}")
        partitions[name] = cells

    raw_events = payload.get("events", {})
    if not isinstance(raw_events, dict):
        raise ModelFormatError("events", "expected an object of named events")
    events = {}
    for name, members in raw_events.items():
        where = f"events.{name}"
        if not isinstance(members, list):
            raise ModelFormatError(where, "events are lists of states")
        for s in members:
            if not (isinstance(s, str) and s in carrier):
                raise ModelFormatError(where, f"unknown state {s!r}")
        events[name] = frozenset(members)

    return AumannModel(list(partitions), partitions), events
