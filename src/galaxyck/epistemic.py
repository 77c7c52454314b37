"""Partition models of interactive knowledge.

An :class:`AumannModel` is an explicit finite carrier with one partition per
agent.  It numbers the states once, in ``str`` order, and stores per agent
each cell as a tuple of member ids, in input order, and each state's cell
number by id.  Each partition is decided once, by the public constructor or
by :func:`model_from_dict`; one private builder stores the ids it is given
and trusts them, and ``truncated_model`` hands it cells right by
construction.  Every walk and the union-find meet read those ids and hash no
state.  ``partition`` builds an agent's frozensets of states only when asked
and caches them, and ``cell`` reads that cache.  ``knows`` keeps the cached
cells that the event's member set is a superset of.  The link of an event
through an agent's partition collects every state sharing a cell with the
event; iterating the group link induces a breadth-first metric whose
connected components are the carrier's reachability classes.  On a finite
carrier both walks are linear in the states they reach.  One id walk, from
one or several start ids and ``n`` steps deep where given, returns the visit
order and a list of distances by id (``components`` shares one list among
its walks), and each caller maps back to states only what it returns.
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
``metric(x, y)`` and advertise ``states = None``; ``link_iter`` walks
them a frontier at a time, each step the ``link_group`` of the frontier.
Only there does the subjective test search a complement, so its events
must list theirs explicitly (:attr:`Event.complement_witnesses`); on a
finite carrier witnesses are validated and never searched.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, takewhile
from typing import Any, Callable, Hashable, Iterable, Mapping, Optional

from .hypernat import HyperNat, _coerce, finite
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
        agents = tuple(agents)
        if not agents:
            raise ValueError("a model needs at least one agent")
        if len(set(agents)) != len(agents):
            raise ValueError("agent names must be distinct")
        parts: dict = {}  # per agent, each cell as a tuple of member ids
        for agent in agents:
            if agent not in partitions:
                raise ValueError(f"missing partition for agent {agent!r}")
            cells = list(map(tuple, partitions[agent]))
            seen: dict = {}  # each state's cell number; a cell may repeat a state
            for k, cell in enumerate(cells):
                if not cell:
                    raise ValueError(f"agent {agent!r} has an empty cell")
                for s in cell:
                    if seen.setdefault(s, k) != k:
                        raise ValueError(f"state {s!r} lies in two cells of agent {agent!r}")
            if not parts:  # the states are the first agent's, numbered in str order
                id_of = dict(zip(sorted(seen, key=str), range(len(seen))))
                get = id_of.get
            elif seen.keys() != id_of.keys():
                raise ValueError(f"agent {agent!r} partitions a different carrier")
            parts[agent] = tuple([tuple(map(get, cell)) for cell in cells])
        self._build(id_of, parts)

    def _build(self, id_of: dict, parts: dict) -> "AumannModel":
        """The model on ids it trusts: ``id_of`` in str order, ``parts`` each agent's cells."""
        self._agents = tuple(parts)
        self._id_of = id_of
        self._states = tuple(id_of)
        self._parts: dict = {}  # per agent: the member-id cells, each state's cell by id
        for agent, members in parts.items():
            of = [None] * len(id_of)
            for k, cell in enumerate(members):
                for i in cell:
                    of[i] = k
            self._parts[agent] = (members, of)
        self._index: Optional[tuple] = None
        self._partitions: dict = {}
        return self

    @property
    def agents(self) -> tuple:
        return self._agents

    @property
    def states(self) -> tuple:
        return self._states

    def partition(self, agent: Agent) -> tuple:
        """The agent's cells, in the order the constructor was given them.
        Built on first use and cached: the model never changes."""
        cells = self._partitions.get(agent)
        if cells is None:
            try:
                members = self._parts[agent][0]
            except KeyError:
                raise ValueError(f"unknown agent {agent!r}") from None
            state = self._states.__getitem__
            cells = tuple([frozenset(map(state, cell)) for cell in members])
            self._partitions[agent] = cells
        return cells

    def cell(self, agent: Agent, state: State) -> frozenset:
        """The agent's cell holding ``state``, read from the cached partition."""
        try:
            k = self._parts[agent][1][self._id_of[state]]
        except KeyError:
            raise ValueError(f"unknown agent/state pair ({agent!r}, {state!r})") from None
        return self.partition(agent)[k]

    def _ids(self, states: Iterable[State]) -> list:
        """The positions of ``states`` in :attr:`states`, in the order given."""
        try:
            return list(map(self._id_of.__getitem__, states))
        except KeyError as exc:
            self.cell(self._agents[0], exc.args[0])  # raises: not a state of the model

    def _walk(self, starts: Iterable[int], depth: Optional[int] = None, dist=None) -> tuple:
        """The breadth-first walk from the distinct state ids ``starts``,
        ``depth`` steps deep where given: the reached ids in the order first
        visited, and the link distances by id, None where unreached, in
        ``dist`` where given, whose marked ids it never reaches.  It reads
        the cells' member ids and hashes no state."""
        parts = tuple(self._parts.values())
        dist = [None] * len(self._states) if dist is None else dist
        order = list(starts)
        for i in order:
            dist[i] = 0
        # The ids nearer than the depth come first in the order, so a bounded
        # walk stops at the first one that is not; the unbounded one never tests.
        queue = order if depth is None else takewhile(lambda i: dist[i] < depth, order)
        for i in queue:  # states are appended to the order as they are reached
            layer = dist[i] + 1
            for members, of in parts:
                for j in members[of[i]]:
                    if dist[j] is None:
                        dist[j] = layer
                        order.append(j)
        return order, dist

    def distances_from(self, origin: State) -> dict:
        """Breadth-first link distances from ``origin`` as plain ints.

        Unreachable states are simply absent, and the states come in the
        order the walk first visits them.
        """
        order, dist = self._walk(self._ids((origin,)))
        return dict(zip(map(self._states.__getitem__, order), map(dist.__getitem__, order)))

    def metric(self, x: State, y: State) -> Optional[HyperNat]:
        """Link distance, or None when ``y`` is unreachable from ``x``."""
        i, j = self._ids((x, y))
        d = self._walk((i,))[1][j]
        return None if d is None else finite(d)

    def closure(self, state: State) -> frozenset:
        """All states reachable from ``state`` through chains of cells."""
        return frozenset(map(self._states.__getitem__, self._walk(self._ids((state,)))[0]))

    def components(self) -> tuple:
        """Reachability components: one breadth-first walk each, on one distance list."""
        states = self._states
        dist = [None] * len(states)
        comps = []
        for i in range(len(states)):
            if dist[i] is None:  # not reached by an earlier walk
                order = self._walk((i,), dist=dist)[0]
                comps.append(frozenset(map(states.__getitem__, order)))
        return tuple(comps)

    def component_index(self) -> tuple:
        """The meet's blocks, sorted by their first state, and a map from
        each state to its block.

        Built on first use by one union-find over every agent's cells, on
        their member ids, and cached, so every later meet or
        common-knowledge query reads it.
        """
        if self._index is None:
            parent = list(range(len(self._states)))

            def find(i):
                while parent[i] != i:
                    parent[i] = i = parent[parent[i]]  # path halving
                return i

            for members, _ in self._parts.values():
                for cell in members:
                    root = find(cell[0])
                    for i in cell:
                        parent[find(i)] = root
            groups: dict = {}
            for i, s in enumerate(self._states):
                groups.setdefault(find(i), []).append(s)
            # Ids run in str order, so the blocks come sorted by their first state.
            blocks = tuple(map(frozenset, groups.values()))
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
    # The id map's keys carry their hashes: no state's __hash__ is called.
    if witnesses is not None and set(witnesses) != model._id_of.keys() - members:
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
    """The ``n``-fold group link; ``n`` is a finite count, a HyperNat or an
    int that is not a bool.

    A multi-source breadth-first walk from the event, ``n`` steps deep, that
    stops early once nothing new is reached, so its cost is linear in the
    states it reaches whatever ``n`` is.  On a finite carrier it is the id
    walk, and only the states it adds to the event are mapped back; on an
    infinite one each step is the :func:`link_group` of the states the step
    before reached first, less those reached already.  :func:`link_group`
    applied ``n`` times is its reference.
    """
    count = _coerce(n)  # a negative int raises here
    if count is None:
        raise TypeError("link steps are HyperNat or int")
    if count.is_huge:
        raise ValueError("cannot iterate a huge number of link steps; use a closed form")
    n = int(count)
    members = _members(model, event)
    if not n:  # states outside the carrier come back unread
        return members
    if _finite_carrier(model):
        order = model._walk(model._ids(members), n)[0]
        return members.union(map(model.states.__getitem__, order[len(members) :]))
    reached, frontier = set(members), members
    for _ in range(n):
        if not frontier:
            break
        frontier = link_group(model, frontier) - reached
        reached |= frontier
    return frozenset(reached)


def knows(model: Any, agent: Agent, event: Any) -> frozenset:
    """States where the agent's whole cell lies inside the event: the union
    of the agent's cells inside it, each cell tested once."""
    if not _finite_carrier(model):
        raise ValueError("knowledge sets need an enumerable carrier")
    members = _members(model, event)
    return frozenset().union(*filter(members.issuperset, model.partition(agent)))


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
    """The sorites relation whose distance is the model's link metric: its
    ``related(x, y)`` holds when some finite chain of cells joins x to y."""
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
        return sorted(sorted(map(str, block)) for block in side)

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

    Each field is read once, in order, and first tested with C-level
    operations on exact types: the states' types; per agent its cells' and
    members' types, no empty cell, its member count and its coverage of the
    states, read off each member's id, which together decide the partition;
    per event its members' types and that they are states.  Only where such
    a test fails is that field read state by state, which raises at its
    first fault or finds none (str or list subclasses).
    """
    if not isinstance(payload, dict):
        raise ModelFormatError("$", "document must be a JSON object")
    states = payload.get("states")
    if not isinstance(states, list) or not states:
        raise ModelFormatError("states", "expected a nonempty list of state names")
    key = None if set(map(type, states)) == {str} else str  # exact str sorts alike without it
    if key:
        for i, s in enumerate(states):
            if not isinstance(s, str):
                raise ModelFormatError(f"states[{i}]", "state names must be strings")
    id_of = dict(zip(sorted(states, key=key), range(len(states))))
    if len(id_of) != len(states):
        raise ModelFormatError("states", "state names must be unique")
    get = id_of.get  # None for a member off the carrier

    specs = payload.get("agents")
    if not isinstance(specs, list) or not specs:
        raise ModelFormatError("agents", "expected a nonempty list of agents")
    partitions: dict = {}  # per agent, each cell as a tuple of member ids
    for i, spec in enumerate(specs):
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
        # As many str members and distinct ids as states, and no id None: each
        # state once.  Only str members of list cells get ids (get hashes them).
        typed = set(map(type, cells)) == {list} and set(map(type, chain(*cells))) == {str}
        members = tuple([tuple(map(get, cell)) for cell in cells]) if typed else ()
        ids = set(chain.from_iterable(members))
        if not (len(ids) == len(id_of) == sum(map(len, cells)) and None not in ids and all(cells)):
            seen: dict = {}  # each state's cell number
            for j, cell in enumerate(cells):
                where = f"{base}.partition[{j}]"
                if not isinstance(cell, list) or not cell:
                    raise ModelFormatError(where, "cells are nonempty lists of states")
                for s in cell:
                    if not (isinstance(s, str) and s in id_of):
                        raise ModelFormatError(where, f"unknown state {s!r}")
                    if s in seen:
                        place = "twice in one cell" if seen[s] == j else "in two cells"
                        raise ModelFormatError(where, f"state {s!r} appears {place}")
                    seen[s] = j
            missing = sorted(id_of.keys() - seen)
            if missing:
                raise ModelFormatError(f"{base}.partition", f"states not covered: {missing}")
        partitions[name] = members or tuple([tuple(map(get, cell)) for cell in cells])

    raw_events = payload.get("events", {})
    if not isinstance(raw_events, dict):
        raise ModelFormatError("events", "expected an object of named events")
    events = {}
    for name, members in raw_events.items():
        where = f"events.{name}"
        if not isinstance(members, list):
            raise ModelFormatError(where, "events are lists of states")
        if not (set(map(type, members)) == {str} and all(map(id_of.__contains__, members))):
            for s in members:
                if not (isinstance(s, str) and s in id_of):
                    raise ModelFormatError(where, f"unknown state {s!r}")
        events[name] = frozenset(members)

    return AumannModel.__new__(AumannModel)._build(id_of, partitions), events
