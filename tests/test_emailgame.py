import copy
import json
import pickle
import subprocess
import sys
from dataclasses import asdict, replace
from dataclasses import fields as dataclass_fields
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from galaxyck import emailgame
from galaxyck.emailgame import (
    STATE_A,
    CutoffStrategy,
    EmailGameModel,
    EmailGameState,
    PayoffParams,
    best_response_check,
    cell,
    cell_by_own_count,
    chain_position,
    check_ast_possibility,
    check_classical_impossibility,
    check_monotone_ck,
    email_metric,
    event_b,
    payoff_pair,
    state_b,
    state_probability,
    truncated_model,
)
from galaxyck.epistemic import (
    AumannModel,
    Event,
    ck_classical,
    ck_region,
    ck_subjective,
    knows_group,
)
from galaxyck.hypernat import finite, huge
from galaxyck.reports import CheckReport
from helpers import Level, run_cli, subprocess_env, truncation_partitions

PARAMS = PayoffParams(2, 3, Fraction(1, 2), Fraction(1, 10))


def as_tuple(s: EmailGameState):
    return (s.tag, int(s.t), int(s.t_prime))


def from_tuple(tpl) -> EmailGameState:
    tag, t, tp = tpl
    return STATE_A if tag == "a" else state_b(t, t - tp)


def test_state_invariants():
    assert str(STATE_A) == "(a,0,0)"
    assert str(state_b(2, 1)) == "(b,2,1)"
    assert state_b(huge(1, 0), 1).t_prime == huge(1, -1)
    with pytest.raises(ValueError):
        EmailGameState("a", finite(1), 0)
    with pytest.raises(ValueError):
        EmailGameState("a", finite(0), 1)
    with pytest.raises(ValueError):
        state_b(0)
    with pytest.raises(ValueError):
        state_b(2, 2)
    with pytest.raises(ValueError):
        EmailGameState("c", finite(1), 0)


def test_cells_match_literal_partition_tables():
    T = 20
    p1, p2 = truncation_partitions(T).values()
    # Agent 2's last cell is the clipped (b,T,T); the closed form's also holds (b,T+1,T).
    for agent, table in ((1, p1), (2, p2[:-1])):
        for listed in table:
            expected = frozenset(listed)
            for member in listed:
                got = frozenset(as_tuple(s) for s in cell(agent, from_tuple(member)))
                assert got == expected, (agent, member)


def test_cells_at_huge_counts_follow_the_same_pattern():
    w = huge(1, 0)
    assert cell(1, state_b(w, 0)) == {state_b(w, 1), state_b(w, 0)}
    assert cell(1, state_b(w, 1)) == {state_b(w, 1), state_b(w, 0)}
    assert cell(2, state_b(w, 0)) == {state_b(w, 0), state_b(w + 1, 1)}
    assert cell(2, state_b(w, 1)) == {state_b(w - 1, 0), state_b(w, 1)}
    with pytest.raises(ValueError):
        cell(3, STATE_A)


def test_chain_position():
    assert chain_position(STATE_A) == finite(0)
    assert chain_position(state_b(1, 1)) == finite(1)
    assert chain_position(state_b(1, 0)) == finite(2)
    assert chain_position(state_b(huge(1, 0), 0)) == huge(2, 0)


def test_email_metric_examples():
    assert email_metric(STATE_A, STATE_A) == finite(0)
    assert email_metric(STATE_A, state_b(1, 0)) == finite(2)
    assert email_metric(state_b(1, 0), STATE_A) == finite(2)
    assert email_metric(STATE_A, state_b(huge(1, 0), 0)) == huge(2, 0)
    assert email_metric(state_b(huge(1, 0), 0), state_b(huge(1, 5), 0)).is_finite


def test_email_metric_matches_bfs_on_truncation():
    T = 20
    bfs_model = AumannModel((1, 2), truncation_partitions(T))
    tuples = list(bfs_model.states)
    for x in tuples:
        layers = bfs_model.distances_from(x)
        for y in tuples:
            assert email_metric(from_tuple(x), from_tuple(y)) == finite(layers[y])


# phi_N substitutes the int N for the huge anchor w: c*w+k -> c*N+k.  It is
# additive, and on counts whose offsets lie in [-K, K] it keeps their order
# once N exceeds twice the largest offset difference, 4K.  So the closed-form
# metric and cells at huge counts must map onto a finite truncation's.
TRANSFER_K = 8


def phi(n, N):
    return n.omega_coeff * N + n.offset


def phi_state(s, N):
    return s if s.tag == "a" else state_b(phi(s.t, N), s.delta)


transfer_states = st.one_of(
    st.just(STATE_A),
    st.builds(state_b, st.integers(1, TRANSFER_K), st.integers(0, 1)),
    st.builds(
        lambda c, k, delta: state_b(huge(c, k), delta),
        st.integers(1, 2),
        st.integers(-TRANSFER_K, TRANSFER_K),
        st.integers(0, 1),
    ),
)


@given(
    st.lists(transfer_states, min_size=1, max_size=12, unique=True),
    st.integers(4 * TRANSFER_K + 1, 200),
)
def test_huge_tier_maps_onto_a_truncation(states, N):
    T = 2 * N + TRANSFER_K + 1  # above every mapped count, so no cell is clipped
    model = truncated_model(T)
    for x in states:
        dist = model.distances_from(phi_state(x, N))
        for y in states:
            assert phi(email_metric(x, y), N) == dist[phi_state(y, N)]
        for agent in model.agents:
            mapped = {phi_state(s, N) for s in cell(agent, x)}
            assert mapped == model.cell(agent, phi_state(x, N))


def test_truncated_model_matches_display():
    T = 5
    model = truncated_model(T)
    assert len(model.states) == 2 * T + 1
    p1, p2 = truncation_partitions(T).values()
    expected_p1 = {frozenset(c) for c in p1}
    expected_p2 = {frozenset(c) for c in p2}
    got_p1 = {frozenset(as_tuple(s) for s in c) for c in model.partition(1)}
    got_p2 = {frozenset(as_tuple(s) for s in c) for c in model.partition(2)}
    assert got_p1 == expected_p1
    assert got_p2 == expected_p2
    with pytest.raises(ValueError):
        truncated_model(0)


@pytest.mark.parametrize("T", [True, False])
def test_a_bool_is_no_truncation_bound(T):
    with pytest.raises(TypeError):
        truncated_model(T)
    with pytest.raises(TypeError):
        check_classical_impossibility(T)


def test_an_index_truncation_bound_is_read_as_a_plain_int():
    report = check_classical_impossibility(Level(3))
    assert report.params == {"T": 3} and type(report.params["T"]) is int
    assert report.to_json() == check_classical_impossibility(3).to_json()
    assert truncated_model(Level(3)).states == truncated_model(3).states
    with pytest.raises(ValueError, match="truncation bound must be >= 1"):
        check_classical_impossibility(Level(0))


@pytest.mark.parametrize("T", [1, 2, 7, 40])
def test_truncated_model_shares_one_object_per_state(T):
    model = truncated_model(T)
    by_id = {id(s) for s in model.states}
    assert len(by_id) == len(model.states) == 2 * T + 1
    for agent in model.agents:
        for block in model.partition(agent):
            for s in block:
                assert id(s) in by_id
        for s in model.states:
            assert any(member is s for member in model.cell(agent, s))


def test_truncated_model_is_the_model_the_constructor_checks():
    """truncated_model hands its ids to the model unchecked; the public
    constructor, given the same cells written out literally, decides them
    and must build the same model."""
    for T in range(1, 41):
        model = truncated_model(T)
        cells = {
            agent: [[STATE_A if tag == "a" else state_b(t, t - tp) for tag, t, tp in c] for c in p]
            for agent, p in truncation_partitions(T).items()
        }
        built = AumannModel((1, 2), cells)
        assert model.states == built.states
        assert model.agents == built.agents
        assert model._parts == built._parts
        for agent in (1, 2):
            assert model.partition(agent) == built.partition(agent)
        assert model.component_index() == built.component_index()


def test_a_longer_truncation_keeps_every_cell_below_the_clip():
    """Metamorphic: ``truncated_model(T+1)`` gives each agent the cell of
    ``truncated_model(T)`` at every state whose count t is below T; agent 2's
    cell at (b,T,T) is where the shorter model clips."""
    compared = 0
    for T in range(1, 41):
        shorter, longer = truncated_model(T), truncated_model(T + 1)
        for s in shorter.states:
            if int(s.t) < T:
                for agent in (1, 2):
                    assert shorter.cell(agent, s) == longer.cell(agent, s), (T, str(s), agent)
                    compared += 1
        assert shorter.cell(2, state_b(T)) != longer.cell(2, state_b(T))
    assert compared == 3200


counts = st.one_of(
    st.integers(1, 10**6).map(finite),
    st.tuples(st.integers(1, 3), st.integers(-50, 50)).map(lambda ck: huge(*ck)),
)
states = st.one_of(st.just(STATE_A), st.tuples(counts, st.integers(0, 1)).map(lambda td: state_b(*td)))


def fields(s: EmailGameState):
    return (s.tag, s.t.omega_coeff, s.t.offset, s.delta)


@given(states, states)
def test_separately_built_states_compare_by_fields(x, y):
    rebuilt = EmailGameState(x.tag, copy.deepcopy(x.t), x.delta)
    assert rebuilt is not x
    assert rebuilt == x and hash(rebuilt) == hash(x)
    assert (x == y) == (fields(x) == fields(y))
    assert (x != y) == (fields(x) != fields(y))
    if x == y:
        assert hash(x) == hash(y)


@given(
    st.one_of(
        st.integers(1, 2**80).map(finite),
        st.tuples(st.integers(1, 2**70), st.integers(-(2**70), 2**70)).map(lambda ck: huge(*ck)),
    ),
    st.integers(0, 1),
)
def test_state_label_is_tag_t_and_t_prime(t, delta):
    for s in (state_b(t, delta), STATE_A):
        assert str(s) == f"({s.tag},{s.t},{s.t_prime})"


@pytest.mark.parametrize("coeff", [1, 2, 36])
def test_huge_state_label_around_offset_zero(coeff):
    # The label is written from t's fields; the HyperNat t - d is the reference.
    for offset in range(-3, 4):
        t = huge(coeff, offset)
        for d in (0, 1):
            assert str(state_b(t, d)) == f"(b,{t},{t - d})"


@given(states)
def test_state_copy_and_pickle_round_trip(s):
    for clone in (copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
        assert clone == s and hash(clone) == hash(s) and clone in {s}


@given(states, counts, st.integers(0, 1))
def test_state_label_is_built_once_and_follows_every_copy(s, t, delta):
    # The label is built at construction: a copy, a pickle or a replace()
    # must carry the label of its own fields.
    assert str(s) == f"({s.tag},{s.t},{s.t - s.delta})"
    clones = (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s)), replace(s))
    for clone in clones:
        assert str(clone) == str(s) and clone == s and hash(clone) == hash(s)
    if s.tag == "b":
        moved = replace(s, t=t, delta=delta)
        assert str(moved) == f"(b,{t},{t - delta})" and moved == state_b(t, delta)
    assert repr(s) == f"EmailGameState(tag={s.tag!r}, t={s.t!r}, delta={s.delta!r})"
    assert [f.name for f in dataclass_fields(s) if f.compare] == ["tag", "t", "delta"]


def test_pickled_state_rehashes_in_another_process():
    # The cached hash covers (t, delta), whose hash is the same in every
    # process whatever its string-hash seed; a pickle carries it as a field.
    script = (
        "import pickle, sys\n"
        "from galaxyck.emailgame import STATE_A, state_b\n"
        "from galaxyck.hypernat import huge\n"
        "states = [STATE_A, state_b(3, 1), state_b(huge(1, -2))]\n"
        "sys.stdout.buffer.write(pickle.dumps([states, [hash(s) for s in states]]))\n"
    )
    states = [STATE_A, state_b(3, 1), state_b(huge(1, -2))]
    for seed in ("1", "2"):
        env = subprocess_env(PYTHONHASHSEED=seed)
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, check=True)
        clones, hashes = pickle.loads(out.stdout)
        assert hashes == [hash(s) for s in states]
        assert clones == states and set(clones) <= set(states)


def test_classical_impossibility_report():
    report = check_classical_impossibility(5)
    assert report.passed
    assert len(report.cases) == 2
    # sanity of the trivial direction: the full carrier is common knowledge
    model = truncated_model(5)
    carrier = frozenset(model.states)
    for omega in model.states:
        assert ck_classical(model, carrier, omega)


def test_classical_impossibility_asks_about_the_b_event(monkeypatch):
    events = []

    def spy(model, event, omega):
        events.append(event)
        return ck_classical(model, event, omega)

    monkeypatch.setattr(emailgame, "ck_classical", spy)
    assert check_classical_impossibility(3).passed
    b_states = {s for s in truncated_model(3).states if s.tag == "b"}
    assert len(b_states) == 6
    assert events == [b_states] * 7


def everybody_knows_b(model):
    """K^n(B) for n = 0, 1, ... until it is empty, K the group's "everybody
    knows" and B the b-states: Aumann's route to common knowledge, one
    finite depth at a time."""
    depths = [frozenset(s for s in model.states if s.tag == "b")]
    while depths[-1]:
        depths.append(knows_group(model, depths[-1]))
    return depths


@pytest.mark.parametrize("T", [10, 30])
def test_everybody_knows_b_exactly_below_the_link_distance_to_a(T):
    # Where the n steps around a state stay clear of the clipped top cell
    # (chain position + n < 2T), the truncation answers as the infinite
    # chain does: B is known to depth n iff (a,0,0) is more than n away.
    model = truncated_model(T)
    distance = model.distances_from(STATE_A)
    depths = everybody_knows_b(model)
    assert len(depths) == 2 * T + 1  # (b,T,T), 2T away, drops out last
    for n in range(1, 2 * T + 2):
        known = depths[n] if n < len(depths) else frozenset()
        for s in model.states:
            if int(chain_position(s)) + n < 2 * T:
                assert (s in known) == (distance[s] > n), (n, str(s))


def test_b_stops_being_known_at_the_depth_the_email_metric_gives():
    # The finite half of the paper's claim; check_ast_possibility pins the
    # huge half, where no finite depth fails.
    depths = everybody_knows_b(truncated_model(20))
    for t in range(1, 6):
        first = next(n for n, known in enumerate(depths) if state_b(t) not in known)
        assert finite(first) == email_metric(state_b(t), STATE_A) == finite(2 * t)


def test_the_truncation_as_a_model_document_has_b_common_knowledge_nowhere(tmp_path):
    # The e-mail-game relation: written out as a model document, the
    # T-truncation gives at every state the verdict impossibility --T gives.
    path = tmp_path / "truncation.json"
    for T in range(1, 7):
        model = truncated_model(T)
        labels = [str(s) for s in model.states]
        agents = [
            {"name": f"agent{i}", "partition": [list(map(str, c)) for c in model.partition(i)]}
            for i in model.agents
        ]
        b_labels = [str(s) for s in model.states if s.tag == "b"]
        doc = {"states": labels, "agents": agents, "events": {"B": b_labels}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        impossibility = run_cli(["emailgame", "impossibility", "--T", str(T)])
        assert impossibility.code == 0 and json.loads(impossibility.stdout)["pass"]
        for label in labels:
            for mode in ("classical", "subjective"):
                argv = ["model", "check", f"--file={path}", "--event=B", f"--state={label}"]
                run = run_cli(argv + [f"--mode={mode}"])
                assert run.code == 1, (T, label, mode, run.stderr)
                report = json.loads(run.stdout)
                assert report["cases"][0]["actual"] == "not common knowledge"
                assert report["meet"] == [sorted(labels)]


def test_infinite_carrier_refuses_enumeration():
    game = EmailGameModel()
    assert not hasattr(game, "closure")  # no enumeration to offer
    with pytest.raises(ValueError):
        ck_classical(game, event_b(), STATE_A)
    bare_event = Event(lambda s: s.tag == "b")
    for event in (bare_event, frozenset({state_b(3)})):  # a set lists no witnesses either
        with pytest.raises(ValueError, match="needs complement witnesses"):
            ck_subjective(game, event, state_b(3))
        with pytest.raises(ValueError, match="needs complement witnesses"):
            ck_region(game, event)  # raised when the region is built
    with pytest.raises(TypeError, match="events are sets of states or Event objects"):
        ck_region(game, [state_b(3)])


def test_infinite_carrier_rejects_witness_inside_event():
    with pytest.raises(ValueError, match="inside the event"):  # raised when the Event is built
        Event(lambda s: s.tag == "b", complement_witnesses=(STATE_A, state_b(2)))


def test_ast_possibility():
    assert check_ast_possibility(state_b(huge(1, 0)))
    assert check_ast_possibility(state_b(huge(1, -10)))
    assert check_ast_possibility(state_b(huge(2, 0)))
    assert not check_ast_possibility(state_b(3))
    assert not check_ast_possibility(STATE_A)


def test_ast_possibility_splits_exactly_at_the_huge_tier():
    for t in range(1, 101):
        assert not check_ast_possibility(state_b(t))
    for k in range(-50, 51):
        assert check_ast_possibility(state_b(huge(1, k)))


def test_link_operators_work_on_the_symbolic_carrier():
    from galaxyck.epistemic import link_agent, link_group, link_iter

    game = EmailGameModel()
    assert link_agent(game, 1, {STATE_A}) == {STATE_A}
    assert link_agent(game, 2, {STATE_A}) == {STATE_A, state_b(1, 1)}
    assert link_iter(game, {STATE_A}, 2) == {STATE_A, state_b(1, 1), state_b(1, 0)}
    w = huge(1, 0)
    around = link_group(game, {state_b(w, 0)})
    assert around == {state_b(w, 1), state_b(w, 0), state_b(w + 1, 1)}


def test_link_iter_matches_repeated_link_group_on_the_symbolic_carrier():
    from galaxyck.epistemic import link_group, link_iter

    game = EmailGameModel()
    w = huge(1, 0)
    events = (
        {STATE_A},
        {state_b(3, 1)},
        {state_b(2, 0), state_b(5, 1)},
        {STATE_A, state_b(w, 0)},
        {state_b(w + 2, 1), state_b(huge(2, -1), 0)},
    )
    for event in events:
        linked = frozenset(event)
        for n in range(7):
            assert link_iter(game, event, n) == linked
            linked = link_group(game, linked)


def test_link_iter_reads_each_cell_once():
    # On an infinite carrier the frontier walk reads the cells of each
    # reached state once per agent and stops once the carrier is saturated,
    # whatever n is.  A finite carrier takes the id walk, which reads none.
    from galaxyck.epistemic import link_iter

    model = truncated_model(5)
    reads = []

    class Carrier:
        states = None
        agents = model.agents

        def cell(self, agent, state):
            reads.append((agent, state))
            return model.cell(agent, state)

    assert link_iter(Carrier(), {STATE_A}, 10**4) == frozenset(model.states)
    assert len(reads) <= len(model.agents) * len(model.states)


def test_link_iter_on_the_symbolic_carrier_is_the_closed_form_ball():
    # A reference that shares no code with link_group: the states within n
    # of the event by email_metric, among those whose first count lies
    # within 8 of an event state's (a link step moves it by at most 1).
    from galaxyck.epistemic import link_iter

    game = EmailGameModel()
    events = ({STATE_A}, {state_b(4, 1)}, {STATE_A, state_b(huge(1, 0))}, {state_b(huge(2, -3), 1)})
    for event in events:
        near = {STATE_A}
        for e in event:
            c, k = e.t.omega_coeff, e.t.offset
            counts = [huge(c, k + j) if c else k + j for j in range(-8, 9) if c or k + j >= 1]
            near |= {state_b(t, delta) for t in counts for delta in (0, 1)}
        for n in range(7):
            ball = {s for s in near if any(email_metric(s, e) <= n for e in event)}
            assert link_iter(game, event, n) == ball, (event, n)


def test_monotone_report():
    report = check_monotone_ck([finite(0), finite(4), huge(1, 0)])
    assert report.passed
    skip, up, down = report.cases
    assert "skipped" in skip.expected
    assert up.input["ck"] is False and up.input["neighbor"] == "5"
    assert down.input["ck"] is True and down.input["neighbor"] == "w-1"


def test_payoff_tables():
    M, L, zero = PARAMS.M, PARAMS.L, Fraction(0)
    tables = {
        "a": {
            ("A", "A"): (M, M),
            ("A", "B"): (zero, -L),
            ("B", "A"): (-L, zero),
            ("B", "B"): (zero, zero),
        },
        "b": {
            ("A", "A"): (zero, zero),
            ("A", "B"): (zero, -L),
            ("B", "A"): (-L, zero),
            ("B", "B"): (M, M),
        },
    }
    for tag, table in tables.items():
        for (x, y), pair in table.items():
            assert payoff_pair(tag, x, y, PARAMS) == pair
            assert payoff_pair(tag, x, y, PARAMS)[1] == payoff_pair(tag, y, x, PARAMS)[0]
    with pytest.raises(ValueError, match="actions are"):
        payoff_pair("b", "A", "X", PARAMS)
    with pytest.raises(ValueError, match="tag must be"):
        payoff_pair("c", "A", "A", PARAMS)


def test_untyped_components_name_their_cause():
    with pytest.raises(TypeError) as err:
        EmailGameState("b", 3, 0)
    assert str(err.value) == "t must be a HyperNat (use state_b / STATE_A)"
    with pytest.raises(TypeError) as err:
        state_b(True)
    assert str(err.value) == "message counts are HyperNat or int"
    with pytest.raises(TypeError) as err:
        PayoffParams(2.0, "3", "1/2", "1/10")
    assert str(err.value) == "payoff parameters are Fractions, ints or strings"


def test_payoff_params_validation():
    assert PayoffParams("2", "3", "1/2", "1/10").eps == Fraction(1, 10)
    for bad in (
        dict(M=0, L=1, p="1/2", eps="1/10"),
        dict(M=1, L=-1, p="1/2", eps="1/10"),
        dict(M=1, L=0, p="1/2", eps="1/10"),
        dict(M=1, L=1, p="1", eps="1/10"),
        dict(M=1, L=1, p="1/2", eps="2"),
        dict(M=1, L=1, p="1/2", eps="1"),
        dict(M=1, L=1, p="1/2", eps="0"),
    ):
        with pytest.raises(ValueError):
            PayoffParams(**bad)


def protocol_outcomes(params, max_messages):
    """Independent oracle: walk the send/reply chain, losing message k first.

    Counts are accumulated by simulating who sends each message; the history
    probability is a running product over delivered messages.
    """
    outcomes = {}
    survive = Fraction(1)
    for k in range(1, max_messages + 1):
        t1 = t2 = 0
        for m in range(1, k + 1):  # message m is sent; 1..k-1 delivered, k lost
            if m % 2:
                t1 += 1
            else:
                t2 += 1
        outcomes[("b", t1, t2)] = params.p * survive * params.eps
        survive *= 1 - params.eps
    outcomes[("a", 0, 0)] = 1 - params.p
    return outcomes


def test_state_probability_matches_protocol_oracle():
    oracle = protocol_outcomes(PARAMS, 16)
    for tpl, prob in oracle.items():
        assert state_probability(from_tuple(tpl), PARAMS) == prob
    assert state_probability(STATE_A, PARAMS) == 1 - PARAMS.p
    assert state_probability(state_b(1, 1), PARAMS) == PARAMS.p * PARAMS.eps


def test_state_probabilities_sum_to_geometric_total():
    total = state_probability(STATE_A, PARAMS)
    previous = total
    for t in range(1, 101):
        total += state_probability(state_b(t, 1), PARAMS)
        total += state_probability(state_b(t, 0), PARAMS)
        assert previous < total <= 1
        previous = total
    assert total == 1 - PARAMS.p * (1 - PARAMS.eps) ** 200


def test_state_probability_rejects_huge_counts():
    with pytest.raises(ValueError):
        state_probability(state_b(huge(1, 0)), PARAMS)


def test_cell_by_own_count():
    assert cell_by_own_count(1, 0) == {STATE_A}
    assert cell_by_own_count(1, 3) == {state_b(3, 1), state_b(3, 0)}
    assert cell_by_own_count(2, 0) == {STATE_A, state_b(1, 1)}
    assert cell_by_own_count(2, 2) == {state_b(2, 0), state_b(3, 1)}
    w = huge(1, 0)
    assert cell_by_own_count(1, w) == {state_b(w, 1), state_b(w, 0)}


def case_for(report, agent, count):
    return next(
        c for c in report.cases
        if c.input["agent"] == agent and c.input["own_count"] == count
    )


def test_equilibrium_audit_passes_and_pins_payoffs():
    cutoff = CutoffStrategy.play_a_while_finite()
    report = best_response_check((cutoff, cutoff), PARAMS, [*range(0, 11), huge(1, 0)])
    assert report.passed

    # agent 2, no messages sent: conditional on {(a,0,0),(b,1,0)}
    c = case_for(report, 2, "0")
    assert c.actual["expected_payoff"] == Fraction(20, 11)
    assert c.actual["deviation_payoff"] == Fraction(-3)

    # agent 1 mid-chain: both cell states are game b, opponent plays A
    c = case_for(report, 1, "3")
    assert c.actual["expected_payoff"] == Fraction(0)
    assert c.actual["deviation_payoff"] == Fraction(-3)

    # huge cell: pointwise, B earns M in both states, A earns 0
    c = case_for(report, 1, "w+0")
    assert c.actual["basis"] == "pointwise"
    assert c.actual["prescribed_payoffs"] == [Fraction(2), Fraction(2)]
    assert c.actual["deviation_payoffs"] == [Fraction(0), Fraction(0)]


def test_equilibrium_audit_reports_profitable_deviations():
    # Agent 1 plays the inverted cutoff (B while finite, A once huge) against
    # the cutoff: every cell has a strictly better deviation.
    cutoff = CutoffStrategy.play_a_while_finite()
    inverted = CutoffStrategy(rule=lambda count: "B" if count.is_finite else "A")
    report = best_response_check((inverted, cutoff), PARAMS, [*range(0, 4), huge(1, 0)])
    assert report.cases and not any(c.passed for c in report.cases)

    # agent 2, no messages sent: agent 1 plays B in both (a,0,0) and (b,1,0),
    # so B earns M in (b,1,0) alone, weighted p*eps : (1-p)
    c = case_for(report, 2, "0")
    assert c.actual["basis"] == "expected"
    assert (c.actual["prescribed"], c.actual["deviation"]) == ("A", "B")
    assert c.actual["expected_payoff"] == Fraction(0)
    assert c.actual["deviation_payoff"] == Fraction(2, 11)

    # huge cell: agent 2 plays B at w-1 and w, so A earns 0 and B earns M
    c = case_for(report, 1, "w+0")
    assert c.actual["basis"] == "pointwise"
    assert c.actual["prescribed_payoffs"] == [Fraction(0), Fraction(0)]
    assert c.actual["deviation_payoffs"] == [Fraction(2), Fraction(2)]
    assert c.actual["verdict"] == "profitable deviation"


def test_equilibrium_audit_meets_a_finite_tie():
    # Agent 2 switches to B at count 3.  In agent 1's count-3 cell, (b,3,2)
    # and (b,3,3) weigh 2 : 1, so B's -L and M average to A's 0.
    cutoff = CutoffStrategy.play_a_while_finite()
    switch = CutoffStrategy(rule=lambda count: "A" if count < 3 else "B")
    params = PayoffParams(2, 1, Fraction(1, 2), Fraction(1, 2))
    report = best_response_check((cutoff, switch), params, [3])
    tie = case_for(report, 1, "3")
    assert tie.actual["expected_payoff"] == tie.actual["deviation_payoff"] == 0
    assert tie.passed
    c = case_for(report, 2, "3")
    assert (c.actual["expected_payoff"], c.actual["deviation_payoff"]) == (-1, 0)
    assert not c.passed


def test_equilibrium_holds_with_unit_payoffs():
    cutoff = CutoffStrategy.play_a_while_finite()
    params = PayoffParams(1, 1, Fraction(1, 2), Fraction(1, 10))
    report = best_response_check((cutoff, cutoff), params, [*range(0, 11), huge(1, 0)])
    assert report.passed


unit_fractions = st.integers(2, 12).flatmap(
    lambda d: st.builds(Fraction, st.integers(1, d - 1), st.just(d))
)
positive_fractions = st.builds(Fraction, st.integers(1, 20), st.integers(1, 6))


def threshold(m):
    """A at own counts below m, B from m up."""
    return CutoffStrategy(rule=lambda count: "A" if count < m else "B")


def expectation(agent, strategies, params, cellstates, weights, action):
    """The agent's payoff for ``action`` over the cell's states, averaged
    with the given weights."""
    total = Fraction(0)
    for s, w in zip(cellstates, weights):
        if agent == 1:
            pair = payoff_pair(s.tag, action, strategies[1].action(s.t_prime), params)
        else:
            pair = payoff_pair(s.tag, strategies[0].action(s.t), action, params)
        total += w * pair[agent - 1]
    return total / sum(weights)


@given(
    st.builds(PayoffParams, positive_fractions, positive_fractions, unit_fractions, unit_fractions),
    st.integers(0, 201),
    st.integers(0, 201),
    st.lists(st.integers(0, 200), min_size=1, max_size=4, unique=True),
)
def test_finite_cells_weigh_by_closed_forms(params, m1, m2, own_counts):
    # Renormalised on a cell, the factor p*(1-eps)**(m-1)*eps common to its
    # states cancels: a cell at own count k >= 1 weighs its two states, in
    # chain order, as 1 : (1-eps), and agent 2's count-0 cell weighs (a,0,0)
    # and (b,1,0) as (1-p) : p*eps.  The audit's expectations must be the
    # sums over these weights.
    p, eps = params.p, params.eps
    strategies = (threshold(m1), threshold(m2))
    report = best_response_check(strategies, params, own_counts)
    for agent in (1, 2):
        for k in own_counts:
            cellstates = sorted(cell_by_own_count(agent, k), key=chain_position)
            if k >= 1:
                weights = [1, 1 - eps]
            elif agent == 2:
                weights = [1 - p, p * eps]
            else:
                weights = [1]
            probs = [state_probability(s, params) for s in cellstates]
            assert len(probs) == len(weights)
            assert all(prob * weights[0] == probs[0] * w for prob, w in zip(probs, weights))
            actual = case_for(report, agent, str(k)).actual
            cell_args = (agent, strategies, params, cellstates, weights)
            assert actual["expected_payoff"] == expectation(*cell_args, actual["prescribed"])
            assert actual["deviation_payoff"] == expectation(*cell_args, actual["deviation"])
            assert actual["prescribed"] == strategies[agent - 1].action(k)


def raw_weight_audit(strategies, params, own_counts):
    """The finite-count audit summed over the raw state probabilities of
    each cell, with no renormalisation before the sums."""
    report = CheckReport(
        "equilibrium",
        dict(asdict(params), finite_samples=[str(k) for k in own_counts], huge_samples=[]),
    )
    for agent in (1, 2):
        for k in own_counts:
            cellstates = sorted(cell_by_own_count(agent, k), key=str)
            weights = [state_probability(s, params) for s in cellstates]
            prescribed = strategies[agent - 1].action(k)
            deviation = "B" if prescribed == "A" else "A"
            cell_args = (agent, strategies, params, cellstates, weights)
            value = expectation(*cell_args, prescribed)
            dev_value = expectation(*cell_args, deviation)
            actual = {
                "basis": "expected",
                "prescribed": prescribed,
                "expected_payoff": value,
                "deviation": deviation,
                "deviation_payoff": dev_value,
            }
            report.add(
                {"agent": agent, "own_count": str(k), "cell": [str(s) for s in cellstates]},
                "prescribed action is a best response",
                actual,
                dev_value <= value,
            )
    return report


# Mostly small counts, with some in the thousands, where the raw weights
# run to tens of kilobits.
audit_counts = st.one_of(st.integers(1, 200), st.integers(1000, 4000))


@settings(deadline=None)
@given(
    st.builds(PayoffParams, positive_fractions, positive_fractions, unit_fractions, unit_fractions),
    st.one_of(st.just(0), audit_counts),
    st.one_of(st.just(0), audit_counts),
    st.lists(audit_counts, max_size=4, unique=True),
)
def test_audit_matches_the_raw_weight_audit(params, m1, m2, counts):
    # Count 0 is always asked: agent 2's cell there mixes games a and b.
    counts = [0, *counts]
    strategies = (threshold(m1), threshold(m2))
    audit = best_response_check(strategies, params, counts)
    reference = raw_weight_audit(strategies, params, counts)
    assert audit.to_dict() == reference.to_dict()
    assert audit.to_json() == reference.to_json()


def test_audit_matches_the_raw_weight_audit_on_shared_states():
    # Repeated and adjacent counts make cells share states, within one
    # agent and across the two; the huge count's pointwise cells carry no
    # weights and are left out of the comparison.
    finite_counts = [3, 2, 3, 0, 1, 3000, 3001, 3000]
    strategies = (threshold(3), threshold(3001))
    audit = best_response_check(strategies, PARAMS, [*finite_counts, huge(1, 0)])
    reference = raw_weight_audit(strategies, PARAMS, finite_counts)
    expected = [c for c in audit.cases if c.actual["basis"] == "expected"]
    assert [c.to_dict() for c in expected] == [c.to_dict() for c in reference.cases]
    assert len(expected) == 2 * len(finite_counts)


def test_audit_computes_each_state_probability_once(monkeypatch):
    # Agent 1's cell at count k holds chain positions 2k-1 and 2k, agent
    # 2's holds 2k and 2k+1: one call per distinct state, and none kept
    # from one audit to the next.
    calls = []

    def counting(s, params):
        calls.append((s, params))
        return state_probability(s, params)

    monkeypatch.setattr(emailgame, "state_probability", counting)
    cutoff = CutoffStrategy.play_a_while_finite()
    other = PayoffParams(1, 1, Fraction(1, 3), Fraction(1, 7))
    for counts, distinct in (([30000, 30001], 5), (range(0, 11), 22)):
        for params in (PARAMS, other, PARAMS):
            calls.clear()
            best_response_check((cutoff, cutoff), params, counts)
            assert len(calls) == len(set(calls)) == distinct
            assert {p for _, p in calls} == {params}
    calls.clear()
    best_response_check((cutoff, cutoff), PARAMS, [huge(1, 0)])
    assert calls == []


def test_equilibrium_guard_flags_probability_dependent_huge_cells():
    cutoff = CutoffStrategy.play_a_while_finite()
    flip = CutoffStrategy(rule=lambda c: "A" if c == huge(1, -1) else "B")
    report = best_response_check((cutoff, flip), PARAMS, [huge(1, 0)])
    agent1_case = next(c for c in report.cases if c.input["agent"] == 1)
    assert not agent1_case.passed
    assert "insufficient information" in agent1_case.actual["verdict"]


def test_equilibrium_sample_validation():
    # Each count's tier picks its basis; the report lists the tiers apart,
    # while the cases follow the given order.
    cutoff = CutoffStrategy.play_a_while_finite()
    report = best_response_check((cutoff, cutoff), PARAMS, [huge(1, 0), 3, finite(0)])
    assert report.params["finite_samples"] == ["3", "0"]
    assert report.params["huge_samples"] == ["w+0"]
    cases = [(c.input["agent"], c.input["own_count"], c.actual["basis"]) for c in report.cases]
    assert cases == [
        (agent, count, basis)
        for agent in (1, 2)
        for count, basis in (("w+0", "pointwise"), ("3", "expected"), ("0", "expected"))
    ]
    with pytest.raises(ValueError):
        best_response_check((cutoff, cutoff), PARAMS, [-1])
    with pytest.raises(TypeError):
        best_response_check((cutoff, cutoff), PARAMS, ["3"])
    with pytest.raises(ValueError):
        best_response_check((cutoff,), PARAMS, [])


def test_strategy_action_validation():
    bad = CutoffStrategy(rule=lambda c: "X")
    with pytest.raises(ValueError):
        bad.action(3)
    good = CutoffStrategy.play_a_while_finite()
    assert good.action(0) == "A"
    assert good.action(huge(3, -7)) == "B"
