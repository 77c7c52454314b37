import random

import pytest

import helpers
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
    is_reachable,
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


def test_link_iter_accepts_finite_hypernat_and_rejects_huge():
    model = mail_chain_model()
    assert link_iter(model, {A}, finite(2)) == link_iter(model, {A}, 2)
    with pytest.raises(ValueError):
        link_iter(model, {A}, huge(1, 0))
    with pytest.raises(ValueError):
        link_iter(model, {A}, -1)


def test_link_iter_matches_repeated_link_group_and_bfs_distances():
    # Two references that share no code with the frontier walk: n rounds of
    # link_group, and the states within n of the event by BFS distance.
    rng = random.Random(61)
    for model in _several_component_models(rng, 20):
        table = {s: model.distances_from(s) for s in model.states}
        steps = range(len(model.states) + 2)  # past the diameter
        for event in helpers.all_events(model.states):
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
    assert is_reachable(model, A, ("b", 3, 3))


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
    assert not is_reachable(model, "s0", "s3")
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


def test_is_reachable_is_the_galaxy_relation_on_both_carriers():
    game = EmailGameModel()
    far = state_b(huge(1, 0))
    assert not is_reachable(game, STATE_A, far)  # at distance 2*w+0, not finite
    assert ck_subjective(game, event_b(), far)
    assert is_reachable(game, STATE_A, state_b(5))
    assert is_reachable(game, far, state_b(huge(1, 7)))
    rng = random.Random(59)
    for model in [mail_chain_model()] + list(_several_component_models(rng, 5)):
        for x in model.states:
            for y in model.states:
                assert is_reachable(model, x, y) == (model.metric(x, y) is not None)


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

    def no_search(self, origin):
        raise AssertionError("finite-carrier CK ran a breadth-first search")

    def no_region(model, event):
        raise AssertionError("finite-carrier CK built a region")

    monkeypatch.setattr(AumannModel, "distances_from", no_search)
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


def test_model_validation():
    with pytest.raises(ValueError):
        AumannModel(("x",), {"x": [["s0", "s1"], ["s1"]]})  # s1 twice
    with pytest.raises(ValueError):
        AumannModel(("x", "y"), {"x": [["s0"]], "y": [["s1"]]})  # different carriers
    with pytest.raises(ValueError):
        AumannModel(("x",), {"x": [["s0"], []]})  # empty cell
    with pytest.raises(ValueError):
        AumannModel((), {})


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
    with pytest.raises(ModelFormatError) as err:
        model_from_dict(doc)
    assert err.value.field == field


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
    ],
)
def test_validation_errors_name_their_cause(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert str(err.value) == message

