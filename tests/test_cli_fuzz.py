"""Fuzzing the CLI inputs: drawn JSON model documents, mutated valid ones,
drawn count text and drawn payoff text.  Whatever the input, the exit code is 0 (pass), 1 (fail)
or 2 (usage error); an internal error would be exit 3."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import run_cli

FUZZ = settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)


def run_main(argv):
    code, out, err = run_cli(argv)
    assert code in (0, 1, 2), err
    assert "internal error" not in err
    assert "Traceback" not in err
    return code, out


@st.composite
def valid_documents(draw):
    n = draw(st.integers(1, 8))
    states = [f"w{i}" for i in range(n)]
    agents = []
    for name in draw(st.lists(st.sampled_from(["ann", "bob", "cy"]), min_size=1, unique=True)):
        order = draw(st.permutations(states))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=n - 1))) if n > 1 else []
        bounds = [0, *cuts, n]
        cells = [list(order[a:b]) for a, b in zip(bounds, bounds[1:])]
        agents.append({"name": name, "partition": cells})
    events = {
        name: draw(st.lists(st.sampled_from(states), unique=True))
        for name in draw(st.lists(st.sampled_from(["E", "F"]), min_size=1, unique=True))
    }
    return {"states": states, "agents": agents, "events": events}


@st.composite
def mutated_documents(draw):
    """A valid document with one value replaced or one entry deleted."""
    doc = draw(valid_documents())
    paths = []

    def walk(node, path):
        paths.append(path)
        if isinstance(node, (dict, list)):
            for key, child in node.items() if isinstance(node, dict) else enumerate(node):
                walk(child, path + (key,))

    walk(doc, ())
    path = draw(st.sampled_from(paths))
    if not path:
        return draw(json_values)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        parent[path[-1]] = draw(json_values)
    else:
        del parent[path[-1]]
    return doc


names = st.sampled_from(["E", "F", "w0", "w1", "w7", ""]) | st.text(max_size=6)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "model.json"


def check_document(path, doc, event, state, mode, fmt="json"):
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["model", "check", f"--file={path}", f"--event={event}", f"--state={state}"]
    return run_main(argv + [f"--mode={mode}", f"--format={fmt}"])


modes = st.sampled_from(["classical", "subjective"])


@FUZZ
@given(doc=json_values, event=names, state=names, mode=modes)
def test_model_check_on_drawn_json(model_path, doc, event, state, mode):
    check_document(model_path, doc, event, state, mode)


@FUZZ
@given(doc=mutated_documents(), event=names, state=names, mode=modes)
def test_model_check_on_mutated_documents(model_path, doc, event, state, mode):
    check_document(model_path, doc, event, state, mode)


@FUZZ
@given(doc=valid_documents(), data=st.data(), mode=modes)
def test_model_check_on_valid_documents(model_path, doc, data, mode):
    event = data.draw(st.sampled_from(sorted(doc["events"])))
    state = data.draw(st.sampled_from(doc["states"]))
    code, out = check_document(model_path, doc, event, state, mode)
    # Flood the raw cells from the true state: both modes' verdict.
    component, frontier = {state}, [state]
    while frontier:
        s = frontier.pop()
        for agent in doc["agents"]:
            for cell in agent["partition"]:
                if s in cell:
                    frontier.extend(set(cell) - component)
                    component |= set(cell)
    assert code == (0 if component <= set(doc["events"][event]) else 1)
    assert component in [set(block) for block in json.loads(out)["meet"]]


@settings(FUZZ, max_examples=30)
@given(
    doc=valid_documents(),
    data=st.data(),
    mode=modes,
    fmt=st.sampled_from(["json", "text"]),
)
def test_model_check_report_ignores_the_order_of_agents_cells_and_members(
    model_path, doc, data, mode, fmt
):
    event = data.draw(st.sampled_from(sorted(doc["events"])))
    state = data.draw(st.sampled_from(doc["states"]))
    shuffled = dict(doc, agents=[
        dict(spec, partition=[
            data.draw(st.permutations(cell))
            for cell in data.draw(st.permutations(spec["partition"]))
        ])
        for spec in data.draw(st.permutations(doc["agents"]))
    ])
    report = check_document(model_path, doc, event, state, mode, fmt)
    assert check_document(model_path, shuffled, event, state, mode, fmt) == report


count_text = (
    st.text(max_size=12)
    | st.from_regex(r"\A\s*(\d{1,40}|(\d{1,4}\*)?w([+-]\d{0,40})?)\s*\Z")
    | st.just("9" * 1001)
)


@FUZZ
@given(text=count_text)
def test_ast_ck_on_drawn_text(text):
    run_main(["emailgame", "ast-ck", f"--t={text}"])


@FUZZ
@given(texts=st.lists(count_text, min_size=1, max_size=4), sep=st.sampled_from([",", ", ", ",,"]))
def test_monotone_on_drawn_text(texts, sep):
    run_main(["emailgame", "monotone", f"--samples={sep.join(texts)}"])


payoff_text = (
    st.text(max_size=12)
    | st.from_regex(r"\A\s*[+-]?(\d{1,6}(\.\d{0,6})?|\.\d{1,6})([eE][+-]?\d{1,5})?\s*\Z")
    | st.from_regex(r"\A\s*[+-]?\d{1,40}\s*/\s*\d{1,40}\s*\Z")
    | st.sampled_from(["1e995", "1e996", "1e-4301", "9" * 1001])
)


@FUZZ
@given(name=st.sampled_from(["M", "L", "p", "eps"]), text=payoff_text)
def test_equilibrium_on_drawn_payoff_text(name, text):
    run_main(["emailgame", "equilibrium", f"--{name}={text}"])
