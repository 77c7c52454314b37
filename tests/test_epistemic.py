import copy
import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

import helpers
from galaxyck import epistemic
from galaxyck.emailgame import (
    STATE_A,
    EmailGameModel,
    check_classical_impossibility,
    event_b,
    state_b,
    truncated_model,
)
from galaxyck.epistemic import (
    AumannModel,
    Event,
    ModelFormatError,
    ck_classical,
    ck_region,
    ck_subjective,
    knows,
    knows_group,
    link_agent,
    link_group,
    link_iter,
    meet,
    meet_equals_galaxies,
    model_from_dict,
    reachability_relation,
)
from galaxyck.hypernat import finite, huge


def mail_chain_model(T=3):
    """The mail-game truncation written out literally over tuple states."""
    return AumannModel((1, 2), helpers.truncation_partitions(T))


A = ("a", 0, 0)


def test_link_agent_examples():
    model = mail_chain_model()
    assert link_agent(model, 2, {A}) == {A, ("b", 1, 0)}
    assert link_agent(model, 1, {A}) == {A}


def test_link_of_own_cell_is_itself():
    model = mail_chain_model()
    cell = model.cell(1, ("b", 2, 1))
    assert link_agent(model, 1, cell) == cell


def test_link_group_examples():
    model = mail_chain_model()
    assert link_group(model, {A}) == {A, ("b", 1, 0)}
    assert link_group(model, frozenset()) == frozenset()


def test_link_group_expansive_and_isotone():
    rng = random.Random(7)
    for _ in range(30):
        model = helpers.random_model(rng)
        for event in helpers.all_events(model.states):
            linked = link_group(model, event)
            assert event <= linked
        small = frozenset(model.states[:1])
        big = frozenset(model.states[:2])
        assert link_group(model, small) <= link_group(model, big)


def test_link_iter():
    model = mail_chain_model()
    assert link_iter(model, {A}, 0) == {A}
    assert link_iter(model, {A}, 2) == {A, ("b", 1, 0), ("b", 1, 1)}
    previous = frozenset({A})
    for n in range(6):
        current = link_iter(model, {A}, n)
        assert previous <= current
        previous = current
    # A member outside the carrier: zero steps return the event unread, and a
    # step names the state.
    outside = frozenset({A, "nowhere"})
    assert link_iter(model, outside, 0) == outside
    for n in (1, 2, finite(9)):
        with pytest.raises(ValueError) as err:
            link_iter(model, outside, n)
        assert str(err.value) == "unknown agent/state pair (1, 'nowhere')"


def test_link_iter_accepts_finite_hypernat_and_rejects_huge():
    model = mail_chain_model()
    assert link_iter(model, {A}, finite(2)) == link_iter(model, {A}, 2)
    with pytest.raises(ValueError):
        link_iter(model, {A}, huge(1, 0))
    with pytest.raises(ValueError):
        link_iter(model, {A}, -1)
    for n in (1.5, True, False):  # no count, as everywhere else
        with pytest.raises(TypeError):
            link_iter(model, {A}, n)


class _PairCarrier:
    """An infinite carrier of ints whose one agent pairs 0 with 1 and leaves
    every other state alone, so the component of 0 is finite."""

    states = None
    agents = ("x",)

    def cell(self, agent, state):
        return frozenset({0, 1}) if state in (0, 1) else frozenset({state})


def test_link_iter_stops_once_an_infinite_carriers_frontier_empties():
    # A billion steps: only the early stop keeps this from running them all.
    assert link_iter(_PairCarrier(), {0}, 10**9) == {0, 1}
    assert link_iter(_PairCarrier(), {5}, 10**9) == {5}


# Ints and a tuple: the str order that numbers the states is neither the
# input order nor the numeric one, and the model has five components.
MIXED_PARTITIONS = {
    "ann": [[10, 2], [0], [1, (0, 1)], [11, 3], [4], [5, 7], [6], [8], [9]],
    "bob": [[2], [10, 0], [1], [(0, 1)], [4, 11], [3], [6, 5], [7], [8], [9]],
    "cy": [[0, 1], [2], [10], [(0, 1)], [3], [4], [11], [5], [6], [7], [9], [8]],
}


def test_link_iter_matches_repeated_link_group_and_bfs_distances():
    # Two references that share no code with the id walk: n rounds of
    # link_group, and the states within n of the event by BFS distance.
    rng = random.Random(61)
    cases = [(m, helpers.all_events(m.states)) for m in _several_component_models(rng, 20)]
    mixed = AumannModel(list(MIXED_PARTITIONS), MIXED_PARTITIONS)
    assert list(mixed.states) != list(dict.fromkeys(s for c in MIXED_PARTITIONS["ann"] for s in c))
    sizes = range(len(mixed.states) + 1)
    cases.append((mixed, [frozenset(rng.sample(mixed.states, k)) for k in sizes for _ in range(6)]))
    for model, events in cases:
        table = {s: model.distances_from(s) for s in model.states}
        steps = range(len(model.states) + 2)  # past the diameter
        for event in events:
            for ev in (event, Event(event.__contains__)):
                linked = event
                for n in steps:
                    within = frozenset(
                        t for t in model.states if any(table[e].get(t, n + 1) <= n for e in event)
                    )
                    assert link_iter(model, ev, n) == linked == within
                    linked = link_group(model, linked)


def test_metric_basics():
    model = mail_chain_model()
    assert model.metric(A, A) == finite(0)
    assert model.metric(A, ("b", 1, 1)) == finite(2)
    assert model.metric(("b", 1, 1), A) == finite(2)
    assert reachability_relation(model).related(A, ("b", 3, 3))


def test_metric_unknown_state_rejected():
    model = mail_chain_model()
    with pytest.raises(ValueError):
        model.metric(A, ("b", 99, 99))


def test_disconnected_model():
    model = AumannModel(
        ("x", "y"),
        {"x": [["s0", "s1"], ["s2", "s3"]], "y": [["s0", "s1"], ["s2", "s3"]]},
    )
    assert model.metric("s0", "s2") is None
    assert not reachability_relation(model).related("s0", "s3")
    assert len(model.components()) == 2


def test_one_agent_model():
    model = AumannModel(("solo",), {"solo": [["s0", "s1"], ["s2"]]})
    assert model.distances_from("s0") == {"s0": 0, "s1": 1}
    assert model.metric("s0", "s1") == finite(1)
    assert model.metric("s0", "s2") is None
    witnessed = Event({"s0", "s1"}.__contains__, complement_witnesses=("s2",))
    for ck in (ck_classical, ck_subjective):
        assert ck(model, {"s0", "s1"}, "s0")
        assert not ck(model, {"s0"}, "s1")
        assert ck(model, witnessed, "s0") and not ck(model, witnessed, "s2")
        with pytest.raises(ValueError, match="unknown agent/state pair"):
            ck(model, {"s0"}, "nope")
    for call in (lambda: model.distances_from("nope"), lambda: model.metric("s0", "nope")):
        with pytest.raises(ValueError, match="unknown agent/state pair"):
            call()


def test_reachability_relation_is_the_galaxy_relation_on_both_carriers():
    game = EmailGameModel()
    related = reachability_relation(game).related
    far = state_b(huge(1, 0))
    assert not related(STATE_A, far)  # at distance 2*w+0, not finite
    assert ck_subjective(game, event_b(), far)
    assert related(STATE_A, state_b(5))
    assert related(far, state_b(huge(1, 7)))
    rng = random.Random(59)
    for model in [mail_chain_model()] + list(_several_component_models(rng, 5)):
        related = reachability_relation(model).related
        for x in model.states:
            for y in model.states:
                assert related(x, y) == (model.metric(x, y) is not None)


def test_metric_axioms_random_models():
    rng = random.Random(11)
    for _ in range(100):
        model = helpers.random_connected_model(rng, max_states=6)
        table = {s: model.distances_from(s) for s in model.states}
        for x in model.states:
            for y in model.states:
                assert (table[x][y] == 0) == (x == y)
                assert table[x][y] == table[y][x]
                for z in model.states:
                    assert table[x][z] <= table[x][y] + table[y][z]


def test_exchange_property():
    rng = random.Random(13)
    for _ in range(20):
        model = helpers.random_model(rng)
        for x in model.states:
            for y in model.states:
                for n in range(4):
                    forward = y in link_iter(model, {x}, n)
                    backward = x in link_iter(model, {y}, n)
                    assert forward == backward


def test_knows_basics():
    model = mail_chain_model()
    carrier = frozenset(model.states)
    assert knows(model, 1, carrier) == carrier
    cell = model.cell(1, ("b", 2, 1))
    assert knows(model, 1, cell) == cell
    assert knows_group(model, carrier) == carrier


def test_knows_reads_the_event_once_per_state():
    model = truncated_model(3)
    asked = []

    def is_b(s):
        asked.append(s)
        return s.tag == "b"

    b_states = frozenset(s for s in model.states if s.tag == "b")
    assert knows(model, 1, Event(is_b)) == b_states
    assert len(asked) <= len(model.states) == 7
    # The group reads the event once, not once per agent.
    asked.clear()
    expected = knows(model, 1, b_states) & knows(model, 2, b_states)
    assert knows_group(model, Event(is_b)) == expected
    assert len(asked) == len(model.states)


def test_knows_duality_with_link():
    rng = random.Random(17)
    for _ in range(30):
        model = helpers.random_model(rng)
        carrier = frozenset(model.states)
        for event in helpers.all_events(model.states):
            for agent in model.agents:
                dual = carrier - link_agent(model, agent, carrier - event)
                assert knows(model, agent, event) == dual


def test_knows_group_is_intersection():
    rng = random.Random(19)
    for _ in range(20):
        model = helpers.random_model(rng)
        for event in helpers.all_events(model.states):
            expected = frozenset(model.states)
            for agent in model.agents:
                expected &= knows(model, agent, event)
            assert knows_group(model, event) == expected


def _knows_by_definition(partitions, agent, members):
    """K_agent(E) as written: the states whose raw cell lies inside E."""
    states = {s for cell in partitions[agent] for s in cell}
    return frozenset(s for s in states if helpers.raw_cell(partitions, agent, s) <= members)


def test_knows_matches_its_definition_over_the_raw_partitions():
    # knows unions the cells inside the event; the definition tests the
    # cell of every state, scanning the raw lists the model was built from.
    rng = random.Random(71)
    cases = []
    while len(cases) < 15:
        partitions = helpers.random_partitions(rng, max_states=7)
        if len(helpers.raw_components(partitions)) > 1:
            cases.append((AumannModel(list(partitions), partitions), partitions))
    for T in (1, 2, 4):
        cases.append((truncated_model(T), _truncation_partitions(T)))
    for model, partitions in cases:
        for event in helpers.all_events(model.states):
            complement = tuple(s for s in model.states if s not in event)
            forms = (
                event,
                Event(event.__contains__),
                Event(event.__contains__, complement_witnesses=complement),
            )
            for agent in model.agents:
                expected = _knows_by_definition(partitions, agent, event)
                for ev in forms:
                    assert knows(model, agent, ev) == expected
        with pytest.raises(ValueError):
            knows(model, "nope", frozenset())


def test_set_events_are_never_wrapped(monkeypatch):
    # A set is its own member set: no query on one builds an Event.
    model = truncated_model(5)
    b_states = frozenset(s for s in model.states if s.tag == "b")
    window = frozenset(model.states[2:6])
    queries = [
        lambda: [ck_classical(model, e, s) for e in (b_states, window) for s in model.states],
        lambda: [ck_subjective(model, e, s) for e in (b_states, window) for s in model.states],
        lambda: [knows(model, agent, e) for e in (b_states, window) for agent in model.agents],
        lambda: [knows_group(model, e) for e in (b_states, window, set(window))],
        lambda: [link_iter(model, e, n) for e in (window, set(window)) for n in (0, 1, 3)],
        lambda: check_classical_impossibility(3).to_json(),
    ]
    answers = [query() for query in queries]

    def no_wrap(self, *args, **kwargs):
        raise AssertionError("a query on a set event built an Event")

    monkeypatch.setattr(Event, "__init__", no_wrap)
    assert [query() for query in queries] == answers


def test_ck_classical_basics():
    model = mail_chain_model(T=5)
    carrier = frozenset(model.states)
    b_event = frozenset(s for s in model.states if s[0] == "b")
    assert ck_classical(model, carrier, A)
    for omega in model.states:
        assert not ck_classical(model, b_event, omega)
    single = AumannModel(("i",), {"i": [["only"]]})
    assert ck_classical(single, {"only"}, "only")


def test_ck_classical_matches_meet_cell():
    rng = random.Random(23)
    for _ in range(30):
        model = helpers.random_model(rng)
        blocks = meet(model)
        for event in helpers.all_events(model.states):
            for omega in model.states:
                block = next(b for b in blocks if omega in b)
                assert ck_classical(model, event, omega) == (block <= event)


def test_ck_subjective_equals_classical_on_finite_models():
    # Both verdicts read the component index; the breadth-first closure
    # does not, so it is the side that shares no kernel with them.
    rng = random.Random(29)
    for _ in range(20):
        model = helpers.random_model(rng)
        for event in helpers.all_events(model.states):
            for omega in model.states:
                expected = model.closure(omega) <= event
                assert ck_subjective(model, event, omega) == expected
                assert ck_classical(model, event, omega) == expected


def test_ck_flood_matches_witness_loop_and_closure():
    rng = random.Random(41)
    for _ in range(40):
        model = helpers.random_model(rng)
        for event in helpers.all_events(model.states):
            complement = tuple(s for s in model.states if s not in event)
            witnessed = Event(event.__contains__, complement_witnesses=complement)
            for omega in model.states:
                expected = model.closure(omega) <= event
                assert ck_subjective(model, witnessed, omega) == expected
                assert ck_subjective(model, event, omega) == expected
                assert ck_classical(model, event, omega) == expected


def test_ck_unknown_state_raises():
    model = mail_chain_model()
    carrier = frozenset(model.states)
    witnessed = Event(carrier.__contains__, complement_witnesses=())
    for event in (carrier, frozenset({A}), witnessed):
        with pytest.raises(ValueError, match="unknown agent/state pair"):
            ck_subjective(model, event, "nope")
        with pytest.raises(ValueError, match="unknown agent/state pair"):
            ck_classical(model, event, "nope")


def test_finite_subjective_ck_never_searches(monkeypatch):
    # On a finite carrier every subjective verdict comes from the component
    # index; no event, witnessed or not, may start a breadth-first search or
    # build a region per query.
    from galaxyck import epistemic

    rng = random.Random(59)
    cases = [
        (model, {s: model.closure(s) for s in model.states})
        for model in _several_component_models(rng, 5)
    ]

    def no_search(self, starts, depth=None):
        raise AssertionError("finite-carrier CK ran a breadth-first search")

    def no_region(model, event):
        raise AssertionError("finite-carrier CK built a region")

    monkeypatch.setattr(AumannModel, "_walk", no_search)  # every breadth-first view reads it
    monkeypatch.setattr(epistemic, "ck_region", no_region)
    for model, closures in cases:
        for event in helpers.all_events(model.states):
            complement = tuple(s for s in model.states if s not in event)
            for ev in (
                event,
                Event(event.__contains__),
                Event(event.__contains__, complement_witnesses=complement),
            ):
                for omega in model.states:
                    assert ck_subjective(model, ev, omega) == (closures[omega] <= event)


def test_ck_subjective_with_complement_witnesses():
    model = mail_chain_model()
    b_event = Event(lambda s: s[0] == "b", complement_witnesses=(A,))
    assert not ck_subjective(model, b_event, ("b", 3, 3))
    carrier_event = Event(lambda s: True, complement_witnesses=())
    assert ck_subjective(model, carrier_event, A)


def test_ck_subjective_rejects_bad_complement_witnesses():
    # A witness inside the event is rejected when the Event is built; every
    # reader checks the rest on a finite carrier, so none answers a bad event.
    model = mail_chain_model()
    with pytest.raises(ValueError, match="inside the event"):
        Event(lambda s: s[0] == "b", complement_witnesses=(A, ("b", 2, 2)))
    with pytest.raises(ValueError, match="inside the event"):
        Event(lambda s: s.tag == "b", (STATE_A, state_b(2)))
    # Missing the only outside state would make B look like common knowledge.
    short = Event(lambda s: s[0] == "b", complement_witnesses=())
    stray = Event(lambda s: s[0] == "b", complement_witnesses=(A, ("c", 0, 0)))
    for ck in (ck_subjective, ck_classical):
        with pytest.raises(ValueError, match="exactly the event's complement"):
            ck(model, short, ("b", 3, 3))
        with pytest.raises(ValueError, match="exactly the event's complement"):
            ck(model, stray, ("b", 3, 3))
    readers = (
        ck_region,  # checks its event when the region is built, before any query
        lambda m, e: link_agent(m, 1, e),
        link_group,
        lambda m, e: link_iter(m, e, 2),
        lambda m, e: knows(m, 2, e),
        knows_group,
    )
    for read in readers:
        for bad in (short, stray):
            with pytest.raises(ValueError, match="exactly the event's complement"):
                read(model, bad)


def test_witnesses_are_frozen_whatever_iterable_gives_them():
    # The witnesses are read once, when the Event is built: an iterator is
    # not used up by a check before the complement search reads it.
    def is_b(s):
        return s.tag == "b"

    queries = [(truncated_model(3), s) for s in truncated_model(3).states]
    queries += [(EmailGameModel(), state_b(3)), (EmailGameModel(), state_b(huge(1, 0)))]
    expected = [ck_subjective(model, Event(is_b, (STATE_A,)), s) for model, s in queries]
    assert expected == [False] * 7 + [False, True]
    for make in (lambda: (x for x in [STATE_A]), lambda: iter([STATE_A]), lambda: [STATE_A]):
        verdicts = []
        for model, s in queries:
            event = Event(is_b, make())
            verdicts.append(ck_subjective(model, event, s))
            assert event == Event(is_b, (STATE_A,))
            assert hash(event) == hash(Event(is_b, (STATE_A,)))
        assert verdicts == expected


def test_ck_region_checks_witnesses_once_per_region(monkeypatch):
    from galaxyck import epistemic

    read = []
    members = epistemic._members

    def counting_members(*args):
        read.append(args)
        return members(*args)

    monkeypatch.setattr(epistemic, "_members", counting_members)
    for n, T in enumerate((3, 10, 40), start=1):
        model = mail_chain_model(T)
        b_event = Event(lambda s: s[0] == "b", complement_witnesses=(A,))
        region = ck_region(model, b_event)
        for _ in range(3):
            assert not any(region.contains(omega) for omega in model.states)
        assert len(read) == n


def test_ck_region_membership():
    rng = random.Random(31)
    for _ in range(10):
        model = helpers.random_model(rng)
        for event in helpers.all_events(model.states):
            region = ck_region(model, event)
            for omega in model.states:
                galaxy = model.closure(omega)  # finite model: galaxy = component
                assert region.contains(omega) == (galaxy <= event)


def test_finite_ck_region_is_the_union_of_the_closures_inside_the_event():
    rng = random.Random(61)
    for model in _several_component_models(rng, 15):
        closures = [model.closure(s) for s in model.states]
        for event in helpers.all_events(model.states):
            expected = frozenset().union(*(c for c in closures if c <= event))
            complement = tuple(s for s in model.states if s not in event)
            for ev in (
                event,
                Event(event.__contains__),
                Event(event.__contains__, complement_witnesses=complement),
            ):
                region = ck_region(model, ev)
                assert frozenset(filter(region.contains, model.states)) == expected
                # A union of meet blocks is self-evident: everyone knows it,
                # and no link leaves it.
                assert knows_group(model, region) == expected
                assert link_iter(model, region, 2) == expected
                assert not region.contains("not a state")


def test_ck_region_sweep_reads_a_predicate_once_per_state():
    model = truncated_model(100)
    for predicate in (lambda s: True, lambda s: s.tag == "b"):
        asked = []

        def counting(s):
            asked.append(s)
            return predicate(s)

        region = ck_region(model, Event(counting))
        verdicts = [region.contains(omega) for omega in model.states]
        assert verdicts == [predicate(STATE_A)] * len(model.states)
        assert len(asked) == len(model.states) == 201


def test_ck_region_trivial_events():
    model = mail_chain_model()
    carrier = frozenset(model.states)
    full = ck_region(model, carrier)
    empty = ck_region(model, frozenset())
    for omega in model.states:
        assert full.contains(omega)
        assert not empty.contains(omega)


def test_reachability_relation():
    model = mail_chain_model()
    rel = reachability_relation(model)
    assert rel.related(A, ("b", 3, 3))
    assert rel.in_level(1, A, ("b", 1, 0))  # one link step, below 2


def test_meet_identical_partitions():
    cells = [["s0", "s1"], ["s2"]]
    model = AumannModel(("x", "y"), {"x": cells, "y": cells})
    assert set(meet(model)) == {frozenset({"s0", "s1"}), frozenset({"s2"})}


def test_meet_chained_states():
    model = AumannModel(
        ("x", "y"),
        {"x": [["s1", "s2"], ["s3", "s4"]], "y": [["s1"], ["s2", "s3"], ["s4"]]},
    )
    assert set(meet(model)) == {frozenset({"s1", "s2", "s3", "s4"})}


def test_meet_equals_components():
    rng = random.Random(37)
    for _ in range(100):
        model = helpers.random_model(rng, max_states=8)
        assert set(meet(model)) == set(model.components())
        assert meet_equals_galaxies(model).passed


def test_components_walks_each_component_once_on_one_distance_list(monkeypatch):
    # Linear as a count, not a clock: one walk per component, every walk
    # filling the same list, so no state is read twice.
    n = 2000
    singletons = [[i] for i in range(n)]
    model = AumannModel((1, 2), {1: singletons, 2: singletons})
    dists = []
    real = AumannModel._walk

    def counting(self, *args, **kwargs):
        order, dist = real(self, *args, **kwargs)
        dists.append(dist)
        return order, dist

    monkeypatch.setattr(AumannModel, "_walk", counting)
    assert len(model.components()) == n
    assert len(dists) == n
    assert len({id(dist) for dist in dists}) == 1
    assert meet_equals_galaxies(model).passed


def _several_component_models(rng, count):
    while count:
        model = helpers.random_model(rng, max_states=7)
        if len(model.components()) > 1:
            count -= 1
            yield model


def _truncation_partitions(T):
    """helpers.truncation_partitions(T) over the states of truncated_model(T)."""

    def state(tag, t, t_prime):
        return STATE_A if tag == "a" else state_b(t, t - t_prime)

    return {
        agent: [[state(*s) for s in cell] for cell in cells]
        for agent, cells in helpers.truncation_partitions(T).items()
    }


def _assert_model_matches_raw_partitions(model, partitions):
    """Every cell read of the model equals the raw lists it was built from."""
    assert model.agents == tuple(partitions)
    assert set(model.states) == {s for cell in next(iter(partitions.values())) for s in cell}
    for agent, cells in partitions.items():
        assert model.partition(agent) == tuple(frozenset(cell) for cell in cells)
        for s in model.states:
            assert model.cell(agent, s) == helpers.raw_cell(partitions, agent, s)
    for s in model.states:
        raw = helpers.raw_distances(partitions, s)
        dist = model.distances_from(s)
        assert dist == raw
        assert list(dist.values()) == sorted(dist.values())  # in visit order
        assert model.closure(s) == raw.keys()
        for t in model.states:
            assert model.metric(s, t) == raw.get(t)  # None where unreached
    components = helpers.raw_components(partitions)
    assert set(model.components()) == components
    assert set(model.component_index()[0]) == components


def test_cell_table_matches_a_search_over_the_raw_partitions():
    # The BFS and the union-find read the same cell table, so one bad table
    # would fool meet_equals_galaxies; the raw lists are the reference.
    rng = random.Random(67)
    several = 0
    for _ in range(60):
        partitions = helpers.random_partitions(rng, max_states=8, agent_counts=(1, 2, 3))
        model = AumannModel(list(partitions), partitions)
        _assert_model_matches_raw_partitions(model, partitions)
        several += len(helpers.raw_components(partitions)) > 1
    assert several >= 10
    for T in range(1, 31):
        _assert_model_matches_raw_partitions(truncated_model(T), _truncation_partitions(T))
    doc = {
        "states": ["w1", "w2", "w3", "w4", "w5"],
        "agents": [
            {"name": "ann", "partition": [["w3", "w1"], ["w2"], ["w4"], ["w5"]]},
            {"name": "bob", "partition": [["w1"], ["w2", "w3"], ["w5", "w4"]]},
            {"name": "cy", "partition": [["w5"], ["w4"], ["w1", "w2"], ["w3"]]},
        ],
    }
    model, _ = model_from_dict(doc)
    _assert_model_matches_raw_partitions(
        model, {spec["name"]: spec["partition"] for spec in doc["agents"]}
    )
    # Ints and a tuple: the str order that numbers the states is neither the
    # input order nor the numeric one, and five components keep most
    # states unreached from any one origin.
    partitions = {
        "ann": [[10, 2], [0], [1, (0, 1)], [11, 3], [4], [5, 7], [6], [8], [9]],
        "bob": [[2], [10, 0], [1], [(0, 1)], [4, 11], [3], [6, 5], [7], [8], [9]],
        "cy": [[0, 1], [2], [10], [(0, 1)], [3], [4], [11], [5], [6], [7], [9], [8]],
    }
    model = AumannModel(list(partitions), partitions)
    assert model.states[:4] == ((0, 1), 0, 1, 10)
    assert len(helpers.raw_components(partitions)) == 5
    _assert_model_matches_raw_partitions(model, partitions)


def test_component_index_verdicts_match_bfs_closures():
    rng = random.Random(43)
    for model in _several_component_models(rng, 25):
        blocks, block_of = model.component_index()
        assert blocks == meet(model)
        for event in helpers.all_events(model.states):
            predicate_only = Event(event.__contains__)
            for omega in model.states:
                closure = model.closure(omega)
                assert block_of[omega] == closure
                expected = closure <= event
                for ev in (event, predicate_only):
                    assert ck_classical(model, ev, omega) == expected
                    assert ck_subjective(model, ev, omega) == expected


def test_union_find_runs_once_per_model():
    rng = random.Random(47)
    for model in _several_component_models(rng, 5):
        index = model.component_index()
        first = meet(model)
        assert model.component_index() is index
        for event in helpers.all_events(model.states):
            for omega in model.states:
                ck_classical(model, event, omega)
                assert model.component_index() is index
                ck_subjective(model, event, omega)
                assert model.component_index() is index
                ck_subjective(model, Event(event.__contains__), omega)
                assert model.component_index() is index
        assert meet(model) is first
        assert model.component_index() is index
        assert meet_equals_galaxies(model).passed
        assert model.component_index() is index


def test_poisoned_index_leaves_bfs_oracles_alone():
    rng = random.Random(53)
    model = next(_several_component_models(rng, 1))
    closures = {s: model.closure(s) for s in model.states}
    components = model.components()
    blocks, _ = model.component_index()
    merged = frozenset(model.states)
    model._index = ((merged,), {s: merged for s in model.states})  # one block: wrong

    report = meet_equals_galaxies(model)
    assert not report.passed
    assert report.cases[0].actual["meet_only"] == [sorted(model.states)]
    assert len(report.cases[0].actual["components_only"]) == len(blocks) > 1
    assert model.components() == components
    assert {s: model.closure(s) for s in model.states} == closures
    # The verdicts read the index, so they follow the poison.
    assert ck_classical(model, merged, model.states[0])
    assert not ck_classical(model, closures[model.states[0]], model.states[0])


def test_partition_is_built_once_per_agent_in_constructor_order():
    model = AumannModel(list(MIXED_PARTITIONS), MIXED_PARTITIONS)
    for agent, cells in MIXED_PARTITIONS.items():
        first = model.partition(agent)
        assert first == tuple(map(frozenset, cells))
        assert model.partition(agent) is first
    for _ in range(2):  # a failed lookup caches nothing
        with pytest.raises(ValueError) as err:
            model.partition("nope")
        assert str(err.value) == "unknown agent 'nope'"


def test_model_validation():
    with pytest.raises(ValueError):
        AumannModel(("x",), {"x": [["s0", "s1"], ["s1"]]})  # s1 twice
    with pytest.raises(ValueError):
        AumannModel(("x", "y"), {"x": [["s0"]], "y": [["s1"]]})  # different carriers
    with pytest.raises(ValueError):
        AumannModel(("x",), {"x": [["s0"], []]})  # empty cell
    with pytest.raises(ValueError):
        AumannModel((), {})


def test_model_accepts_a_repeat_inside_a_cell_and_one_shot_iterators():
    model = AumannModel(("x",), {"x": [["s0", "s0"]]})
    assert model.states == ("s0",)
    assert model.partition("x") == (frozenset({"s0"}),)
    assert model.cell("x", "s0") == {"s0"}
    # A repeat joins nothing: s1 and s2 stay apart, and both walks agree.
    partitions = {"x": [["s0", "s1", "s0"], ["s2"]], "y": [["s2"], ["s1", "s1"], ["s0"]]}
    model = AumannModel(("x", "y"), partitions)
    assert model.cell("y", "s1") == {"s1"}
    assert model.distances_from("s0") == {"s0": 0, "s1": 1}
    assert meet(model) == model.components() == (frozenset({"s0", "s1"}), frozenset({"s2"}))
    model = AumannModel(("x",), {"x": iter([iter(["s0"]), ("s1",)])})
    assert model.states == ("s0", "s1")
    assert model.partition("x") == (frozenset({"s0"}), frozenset({"s1"}))


def test_model_from_dict_round_trip():
    doc = {
        "states": ["w1", "w2", "w3"],
        "agents": [
            {"name": "ann", "partition": [["w1", "w2"], ["w3"]]},
            {"name": "bob", "partition": [["w1"], ["w2", "w3"]]},
        ],
        "events": {"E": ["w1", "w2"]},
    }
    model, events = model_from_dict(doc)
    assert model.states == ("w1", "w2", "w3")
    assert model.cell("ann", "w1") == {"w1", "w2"}
    assert events["E"] == {"w1", "w2"}


class _Str(str):
    """A str that fails every exact-type test of :func:`model_from_dict`."""


class _List(list):
    """A list that fails every exact-type test of :func:`model_from_dict`."""


def _subclassed(value):
    """``value`` with every str and list in it, at any depth and dict keys
    included, replaced by a :class:`_Str` or :class:`_List`."""
    if isinstance(value, str):
        return _Str(value)
    if isinstance(value, list):
        return _List(map(_subclassed, value))
    if isinstance(value, tuple):
        return tuple(map(_subclassed, value))
    if isinstance(value, dict):
        return {_subclassed(k): _subclassed(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda d: d.update(states=[]), "states"),
        (lambda d: d.update(states=["w1", "w1"]), "states"),
        (lambda d: d["agents"][0]["partition"].append(["w1"]), "agents[0].partition[2]"),
        (lambda d: d["agents"][0]["partition"][0].append("zz"), "agents[0].partition[0]"),
        (lambda d: d["agents"][0].pop("name"), "agents[0].name"),
        (lambda d: d["agents"][0]["partition"][0].remove("w2"), "agents[0].partition"),
        (lambda d: d["events"].update(E=["nope"]), "events.E"),
        # Unhashable members are unknown states, not a TypeError.
        (lambda d: d["agents"][1]["partition"][0].append(["w1"]), "agents[1].partition[0]"),
        (lambda d: d["events"].update(F=[{"w1": 1}]), "events.F"),
        # A value of the wrong type is rejected even when it is truthy, and an
        # empty list even though it has the right type.
        # Explicit ids keep the ids of the cases above unique.
        pytest.param(lambda d: d.update(agents="ann"), "agents", id="string-agents"),
        pytest.param(lambda d: d.update(agents=[]), "agents", id="no-agents"),
        pytest.param(lambda d: d["agents"][0].update(name=5), "agents[0].name", id="int-name"),
        pytest.param(lambda d: d["agents"][0].update(partition="w1"), "agents[0].partition",
                     id="string-partition"),
        # A string cell would otherwise pass as the list of its characters.
        pytest.param(
            lambda d: d.update(states=["a"], agents=[{"name": "ann", "partition": ["a"]}], events={}),
            "agents[0].partition[0]", id="string-cell",
        ),
        pytest.param(lambda d: d["states"].__setitem__(1, 2), "states[1]", id="int-state"),
        # An unhashable member in a state's place: the member count still fits.
        pytest.param(lambda d: d["agents"][1]["partition"][0].__setitem__(0, ["w1"]),
                     "agents[1].partition[0]", id="unhashable-member"),
        # Subclasses fail every C-level test, so each field is read state by
        # state: the valid document (no field) builds its model all the same.
        pytest.param(lambda d: d.update(_subclassed(d)), None, id="str-subclass"),
        pytest.param(
            lambda d: d.update(_subclassed(dict(d, events={"E": ["w1", "w4"]}))),
            "events.E", id="str-subclass-unknown-event-member",
        ),
    ],
)
def test_model_from_dict_diagnostics(mutate, field):
    doc = {
        "states": ["w1", "w2", "w3"],
        "agents": [
            {"name": "ann", "partition": [["w1", "w2"], ["w3"]]},
            {"name": "bob", "partition": [["w1"], ["w2", "w3"]]},
        ],
        "events": {"E": ["w1", "w2"]},
    }
    mutate(doc)
    if field is None:
        model, events = model_from_dict(doc)
        assert model.states == ("w1", "w2", "w3")
        assert model.partition("bob") == ({"w1"}, {"w2", "w3"})
        assert events == {"E": {"w1", "w2"}}
        return
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(doc)
    assert err.value.field == field
    if field == "states[1]":
        assert str(err.value) == "states[1]: state names must be strings"


@st.composite
def model_documents(draw):
    """A valid JSON model document: 1-8 states, 1-3 agents, 0-2 events."""
    states = [f"w{i}" for i in draw(st.permutations(range(draw(st.integers(1, 8)))))]
    agents = []
    for name in draw(st.lists(st.sampled_from(["ann", "bob", "cy"]), min_size=1, unique=True)):
        order = draw(st.permutations(states))
        cuts = draw(st.sets(st.integers(1, max(1, len(states) - 1)), max_size=len(states) - 1))
        bounds = [0, *sorted(cuts), len(states)]
        agents.append({"name": name, "partition": [order[a:b] for a, b in zip(bounds, bounds[1:])]})
    doc = {"states": states, "agents": agents}
    events = draw(st.dictionaries(st.sampled_from(["E", "F"]), st.lists(st.sampled_from(states))))
    if events or draw(st.booleans()):  # "events" may be left out
        doc["events"] = events
    return doc


def _fault(draw, doc):
    """Inject one fault into a copy of the valid ``doc``: each kind is one
    that the scan must name."""
    doc = copy.deepcopy(doc)
    states, agents = doc["states"], doc["agents"]
    spec = draw(st.sampled_from(agents))
    cells = spec["partition"]
    cell = draw(st.sampled_from(cells))
    member = draw(st.sampled_from(cell))
    odd = draw(st.sampled_from([0, None, 1.5, True, ["w0"], {"w0": 0}]))
    kind = draw(st.sampled_from(FAULT_KINDS))
    if kind == "non-str state":
        states[draw(st.integers(0, len(states) - 1))] = odd
        if draw(st.booleans()):
            cell[cell.index(member)] = odd
    elif kind == "duplicate state":
        states.insert(draw(st.integers(0, len(states))), member)
    elif kind == "state in two cells":
        if len(cells) == 1:
            cells.append([member])
        else:
            draw(st.sampled_from([c for c in cells if c is not cell])).append(member)
    elif kind == "repeat inside a cell":
        cell.insert(draw(st.integers(0, len(cell))), member)
    elif kind == "missing state":
        cell.remove(member)
        if not cell and draw(st.booleans()):
            cells.remove(cell)
    elif kind == "unknown state in a cell":
        unknown = draw(st.sampled_from(["zz", "", odd]))
        if draw(st.booleans()):
            cell.append(unknown)
        else:
            cell[cell.index(member)] = unknown
    elif kind == "state renamed in every partition":
        for renamed in agents:
            for c in renamed["partition"]:
                c[:] = ["zz" if s == member else s for s in c]
    elif kind == "non-object agent":
        agents[agents.index(spec)] = draw(st.sampled_from([[], spec["name"], None]))
    elif kind == "unknown event member":
        events = doc.setdefault("events", {})
        events.setdefault(draw(st.sampled_from(["E", "G"])), []).append(
            draw(st.sampled_from(["zz", odd]))
        )
    elif kind == "non-list event":
        events = doc.setdefault("events", {})
        events[draw(st.sampled_from(["E", "G"]))] = draw(st.sampled_from([member, None, (member,)]))
    elif kind == "empty cell":
        cells.insert(draw(st.integers(0, len(cells))), [])
    elif kind == "non-list cell":
        cells[cells.index(cell)] = draw(st.sampled_from([tuple(cell), member, None, {"w0": 0}]))
    elif kind == "duplicate agent name":
        other = copy.deepcopy(draw(st.sampled_from(agents)))
        other["name"] = spec["name"]
        agents.insert(draw(st.integers(0, len(agents))), other)
    elif kind == "empty agent name":
        spec["name"] = draw(st.sampled_from(["", None, 5]))
    else:
        assert kind == "events not an object"
        doc["events"] = draw(st.sampled_from([[], ["E"], "E", 0, None]))
    return doc


FAULT_KINDS = (
    "non-str state",
    "duplicate state",
    "state in two cells",
    "repeat inside a cell",
    "missing state",
    "unknown state in a cell",
    "state renamed in every partition",
    "non-object agent",
    "unknown event member",
    "non-list event",
    "empty cell",
    "non-list cell",
    "duplicate agent name",
    "empty agent name",
    "events not an object",
)


def _read_as_subclassed(doc) -> bool:
    """Is ``doc`` valid?  Its all-subclass copy fails every C-level test and
    is read state by state, so both must give the same states, partitions,
    meet and events, or the same error text and field."""
    subclassed = _subclassed(doc)
    try:
        model, events = model_from_dict(doc)
    except ModelFormatError as err:
        with pytest.raises(ModelFormatError) as read:
            model_from_dict(subclassed)
        assert str(read.value) == str(err)
        assert read.value.field == err.field
        return False
    read_model, read_events = model_from_dict(subclassed)
    assert read_model.states == model.states
    assert read_model.agents == model.agents
    for agent in model.agents:
        assert read_model.partition(agent) == model.partition(agent)
    assert meet(read_model) == meet(model)
    assert read_events == events
    return True


@settings(max_examples=300, deadline=None)
@given(model_documents(), st.data())
def test_model_from_dict_reads_a_document_as_its_subclass_copy(doc, data):
    assert _read_as_subclassed(doc)
    assert not _read_as_subclassed(_fault(data.draw, doc))


@settings(max_examples=100, deadline=None)
@given(model_documents())
@example({"states": ["w2", "w1"], "agents": [{"name": "ann", "partition": [["w2", "w1"]]}]})
@example(
    {
        "states": ["w1", "w2", "w3"],
        "agents": [
            {"name": "ann", "partition": [["w3"], ["w1"], ["w2"]]},
            {"name": "bob", "partition": [["w2"], ["w3"], ["w1"]]},
        ],
    }
)
# str order puts w10 between w1 and w2, as no number order would.
@example(
    {
        "states": ["w2", "w10", "w1", "v9"],
        "agents": [
            {"name": "bob", "partition": [["w2", "v9"], ["w1", "w10"]]},
            {"name": "ann", "partition": [["w10"], ["w2", "w1", "v9"]]},
        ],
    }
)
# Every field fails its C-level test and is read state by state.
@example(
    _subclassed(
        {
            "states": ["w3", "w1", "w2"],
            "agents": [
                {"name": "ann", "partition": [["w1", "w2"], ["w3"]]},
                {"name": "bob", "partition": [["w3", "w2"], ["w1"]]},
            ],
        }
    )
)
def test_model_from_dict_builds_the_model_the_constructor_builds(doc):
    """The reader builds its model on the ids it looked up, the public
    constructor decides the same partitions itself: both models must agree
    on the states, the stored ids, each partition and cell, the component
    index and a walk from id 0."""
    model = model_from_dict(doc)[0]
    names = [spec["name"] for spec in doc["agents"]]
    built = AumannModel(names, {spec["name"]: spec["partition"] for spec in doc["agents"]})
    assert model.states == built.states
    assert model.agents == built.agents == tuple(names)
    assert model._parts == built._parts
    for agent in names:
        assert model.partition(agent) == built.partition(agent)
        for s in built.states:
            assert model.cell(agent, s) == built.cell(agent, s)
    assert model.component_index() == built.component_index()
    assert model._walk((0,)) == built._walk((0,))


@pytest.mark.parametrize(
    "partition,field,message",
    [
        # As many members as states, one of them unknown: an id is None.
        ([["w1", "w2"], ["zz"]], "agents[0].partition[1]", "unknown state 'zz'"),
        # As many members as states, one of them twice: too few distinct ids.
        ([["w1", "w2"], ["w1"]], "agents[0].partition[1]", "state 'w1' appears in two cells"),
        ([["w1", "w2", "w3"], []], "agents[0].partition[1]", "cells are nonempty lists of states"),
        # As many members as states, one repeated inside its own cell.
        ([["w1", "w1"], ["w2"]], "agents[0].partition[0]", "state 'w1' appears twice in one cell"),
    ],
)
def test_model_from_dict_names_a_fault_that_the_member_count_hides(partition, field, message):
    doc = {"states": ["w1", "w2", "w3"], "agents": [{"name": "ann", "partition": partition}]}
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(doc)
    assert (err.value.field, str(err.value)) == (field, f"{field}: {message}")


_DOC = {
    "states": ["w1", "w2"],
    "agents": [{"name": "ann", "partition": [["w1", "w2"]]}],
    "events": {"E": ["w1"]},
}


@pytest.mark.parametrize(
    "call,exc,message",
    [
        (lambda: AumannModel(("x", "x"), {"x": [["s0"]]}), ValueError,
         "agent names must be distinct"),
        (lambda: AumannModel(("x", "y"), {"x": [["s0"]]}), ValueError,
         "missing partition for agent 'y'"),
        (lambda: mail_chain_model().partition("nope"), ValueError, "unknown agent 'nope'"),
        (lambda: ck_classical(mail_chain_model(), [A], A), TypeError,
         "events are sets of states or Event objects"),
        (lambda: model_from_dict(dict(_DOC, agents=_DOC["agents"] * 2)), ModelFormatError,
         "agents[1].name: duplicate agent 'ann'"),
        (lambda: model_from_dict(dict(_DOC, events=[])), ModelFormatError,
         "events: expected an object of named events"),
        (lambda: link_agent(EmailGameModel(), 1, event_b()), ValueError,
         "event needs an explicit member set on an infinite carrier"),
        (lambda: knows(EmailGameModel(), 1, event_b()), ValueError,
         "knowledge sets need an enumerable carrier"),
        (lambda: meet(EmailGameModel()), ValueError, "the meet needs an explicit finite carrier"),
        (lambda: AumannModel(("x",), {"x": [["s0", "s1"], ["s1"]]}), ValueError,
         "state 's1' lies in two cells of agent 'x'"),
        (lambda: AumannModel(("x", "y"), {"x": [["s0"], ["s1"]], "y": [["s0"], ["s0"]]}), ValueError,
         "state 's0' lies in two cells of agent 'y'"),  # as many states as the carrier
        (lambda: AumannModel(("x", "y"), {"x": [["s0"], ["s1"]], "y": [["s0"]]}), ValueError,
         "agent 'y' partitions a different carrier"),  # s1 missing
        (lambda: AumannModel(("x", "y"), {"x": [["s0"]], "y": [["s0"], ["s1"]]}), ValueError,
         "agent 'y' partitions a different carrier"),  # s1 extra
        (lambda: AumannModel(("x",), {"x": [["s0"], []]}), ValueError,
         "agent 'x' has an empty cell"),
    ],
)
def test_validation_errors_name_their_cause(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert str(err.value) == message


def _set_partitions(states):
    """Every partition of the list ``states`` into cells, each once."""
    if not states:
        yield []
        return
    first, rest = states[0], states[1:]
    for cells in _set_partitions(rest):
        yield [[first], *cells]
        for k in range(len(cells)):
            yield [*cells[:k], [first, *cells[k]], *cells[k + 1 :]]


def _ck_by_definition(partitions, event):
    """The states where ``event`` is common knowledge, by its definition on
    the raw partition lists: "everybody knows" iterated from the event until
    the set stops shrinking."""
    region = frozenset(event)
    while True:
        known = frozenset(
            s
            for s in region
            if all(helpers.raw_cell(partitions, agent, s) <= region for agent in partitions)
        )
        if known == region:
            return region
        region = known


@pytest.mark.parametrize("agents,max_states", [(2, 4), (3, 3)])
def test_common_knowledge_matches_its_definition_on_every_small_model(agents, max_states):
    """Every model of ``agents`` agents on 1 to ``max_states`` states, every
    event and every state: no union-find, index or walk in the oracle."""
    for n in range(1, max_states + 1):
        states = [f"s{i}" for i in range(n)]
        for cells in itertools.product(list(_set_partitions(states)), repeat=agents):
            partitions = dict(enumerate(cells))
            model = AumannModel(list(partitions), partitions)
            for event in helpers.all_events(states):
                region = _ck_by_definition(partitions, event)
                for omega in states:
                    expected = omega in region
                    assert ck_classical(model, event, omega) is expected, (partitions, event, omega)
                    assert ck_subjective(model, event, omega) is expected, (partitions, event, omega)
