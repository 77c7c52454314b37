import enum
import json
import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from galaxyck import cli
from galaxyck.emailgame import (
    STATE_A,
    CutoffStrategy,
    PayoffParams,
    best_response_check,
    check_classical_impossibility,
    check_monotone_ck,
    state_b,
    truncated_model,
)
from galaxyck.epistemic import knows_group, link_iter, meet_equals_galaxies
from galaxyck.hypernat import finite, huge
from galaxyck.reports import CheckReport, _write, jsonable
from galaxyck.sorites import GeneratingSequence, chain_relation
from helpers import GOLDEN

# Strings that need escaping: a quote, a backslash, control characters, a
# non-ASCII BMP character, a non-BMP one (a surrogate pair in JSON) and
# lone surrogates.
ESCAPES = ['"', "\\", "\t", "\n", "\x07", "\x7f", "é", "\U0001F600", "\ud800", "\udfff"]
text = st.text(st.characters(exclude_categories=()) | st.sampled_from(ESCAPES), max_size=8)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**200) | st.integers(-(2**200), -(2**64)),
    st.floats() | st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
    text,
)
json_native = st.recursive(
    scalars | st.lists(text) | st.lists(st.integers()) | st.lists(st.booleans() | st.integers()),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(text, children, max_size=4),
    max_leaves=30,
)


class HashableDict(dict):
    """A dict that can be a set member; jsonable renders it as a dict."""

    def __hash__(self):
        return hash(tuple(sorted(self.items())))


def test_set_members_sort_by_their_canonical_json_text():
    # JSON text reorders strings against plain str order: '"a b"' < '"a"'
    # because ' ' < '"', a quote or backslash is escaped, and "é" becomes
    # "\u00e9".  Lists come after strings ('[' > '"'), dicts last, and a
    # dict's key is its text with sorted keys.
    strings = {"a", "a b", 'a"', "\\", "é"}
    assert sorted(strings) == ["\\", "a", "a b", 'a"', "é"]
    assert jsonable(strings) == ["\\", "é", "a b", "a", 'a"']
    mixed = strings | {
        ("a", 1),
        ("a b", Fraction(1, 3)),
        HashableDict(b=1, a=2),
        HashableDict(a=3),
    }
    assert jsonable(frozenset(mixed)) == [
        "\\",
        "é",
        "a b",
        "a",
        'a"',
        ["a b", "1/3"],
        ["a", 1],
        {"b": 1, "a": 2},
        {"a": 3},
    ]
    for value in (strings, mixed, {frozenset({"y", "x"}), frozenset({"x y"}), ("é",), ("\\",)}):
        members = [jsonable(member) for member in value]
        assert jsonable(value) == sorted(members, key=lambda m: json.dumps(m, sort_keys=True))


@given(st.frozensets(text, max_size=8))
def test_string_sets_sort_by_their_json_text(strings):
    assert jsonable(strings) == sorted(strings, key=lambda m: json.dumps(m, sort_keys=True))


def _jsonable_member_by_member(value):
    """jsonable's rules with every set member rendered by its own call and
    sorted by its ``json.dumps`` text: the reference of the one-map path."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable_member_by_member(v) for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        members = map(_jsonable_member_by_member, value)
        return sorted(members, key=lambda m: json.dumps(m, sort_keys=True))
    if isinstance(value, (list, tuple)):
        return [_jsonable_member_by_member(v) for v in value]
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    return str(value)


class Quoted:
    """A set member whose str needs escaping: quotes, a backslash, non-ASCII."""

    def __init__(self, text):
        self.text = text

    def __str__(self):
        return f'"{self.text}" \\ é'


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 300


class Label(str):
    pass


hypernats = st.builds(finite, st.integers(0, 60)) | st.builds(
    huge, st.integers(1, 3), st.integers(-5, 5)
)
set_members = [
    st.just(STATE_A) | st.builds(state_b, hypernats.filter(lambda t: t >= 1), st.integers(0, 1)),
    hypernats,
    st.builds(Quoted, text),
    st.booleans(),
    st.sampled_from(Level),
    st.builds(Label, text),
    st.fractions(max_denominator=20),
    st.tuples(st.integers(-3, 3), text),
    st.frozensets(st.integers(-3, 3) | text, max_size=3),
]
member_sets = st.one_of(
    *(st.frozensets(member, max_size=10) for member in set_members),
    st.frozensets(st.one_of(*set_members), max_size=10),
    st.sets(st.one_of(*set_members), max_size=6),
)


@given(member_sets)
def test_one_type_sets_render_as_member_by_member(value):
    assert json.dumps(jsonable(value), indent=2) == json.dumps(
        _jsonable_member_by_member(value), indent=2
    )


def test_a_set_of_one_object_type_renders_its_labels_in_json_order():
    states = frozenset(truncated_model(6).states)
    assert jsonable(states) == sorted(map(str, states), key=json.dumps)


# Everything jsonable takes: JSON-native data, every set member kind alone
# and in sets, Fractions, tuples and dicts with int keys.
write_values = st.recursive(
    json_native | member_sets | st.one_of(*set_members) | st.fractions(),
    lambda children: st.tuples(children, children)
    | st.dictionaries(st.integers(-2, 2), children, max_size=3),
    max_leaves=12,
)


@given(write_values)
@example([math.nan, math.inf, -math.inf, True, False, None, Level.HIGH, Label("é")])
@example((Fraction(-1, 3), Quoted("q"), {1: "int key", "1": "its text"}))
# Values that _write hands to json.dumps, two levels deep: each is written
# over several lines, which must start at their own depth.
@example({"a": [[None, []], {1, "x"}, ()], "b": {}, "c": set()})
@example(([{"k": [math.inf, {}]}, frozenset({Fraction(1, 2), "y"})], {2: [Level.LOW, Label("\n")]}))
def test_write_is_json_dumps_of_jsonable_indent_2(value):
    assert _write(value, "\n") == json.dumps(jsonable(value), indent=2)


def _cli_handler(argv):
    """The report and the extras of a CLI command."""
    args = cli.build_parser().parse_args(argv)
    return args.handler(args)


def _knows_sweep():
    model = truncated_model(6)
    event = frozenset(s for s in model.states if s.tag == "b")
    sweep = CheckReport("knows-sweep", {"windows": [(1, 3)]})
    sweep.add({"windows": [(1, 3)]}, "state set", knows_group(model, event), True)
    sweep.add({"n": 2}, "state set", link_iter(model, event, 2), True)
    return sweep


_POINTS = [finite(1), finite(5), huge(1, -3), huge(1, 4), huge(2, 0)]
_CUTOFF = CutoffStrategy.play_a_while_finite()
_PARAMS = PayoffParams(2, 3, Fraction(1, 2), Fraction(1, 10))
_MODEL_FILE = str(GOLDEN / "model-escapes.json")
_MODEL_CHECK = ["model", "check", "--file", _MODEL_FILE, "--event", "rest", "--state", "plain"]

# A report of every check kind, with sets, Fractions and huge counts, built
# by name inside each test: collection runs no kernel, and the per-test time
# limit bounds every build.
REPORTS = {
    "impossibility": lambda: check_classical_impossibility(4),
    "monotone": lambda: check_monotone_ck([finite(0), finite(3), huge(1, 0)]),
    "equilibrium": lambda: best_response_check(
        (_CUTOFF, _CUTOFF), _PARAMS, [finite(0), finite(2), huge(1, 0)]
    ),
    "meet-equals-galaxies": lambda: meet_equals_galaxies(truncated_model(6)),
    "generating-axioms0": lambda: chain_relation().verify_generating_axioms(_POINTS, 4),
    "generating-axioms1": lambda: chain_relation(
        GeneratingSequence(lambda n: finite(n + 1))
    ).verify_generating_axioms(_POINTS, 4),
    "knows-sweep": _knows_sweep,
    "model-check": lambda: _cli_handler(_MODEL_CHECK)[0],
    "ast-ck": lambda: _cli_handler(["emailgame", "ast-ck", "--t", "w+0"])[0],
    "sorites-demo": lambda: _cli_handler(["sorites", "demo"])[0],
}


def _report(name):
    report = REPORTS[name]()
    assert name.startswith(report.check)  # the id names the check it builds
    return report


@pytest.mark.parametrize("name", REPORTS)
def test_to_json_is_json_dumps_of_to_dict(name):
    report = _report(name)
    assert report.to_json() == json.dumps(report.to_dict(), indent=2)


@pytest.mark.parametrize("name", [*REPORTS, "model-check with its meet"])
def test_to_json_writes_every_report_shape_itself(name, monkeypatch):
    # Every report kind, and model check's meet extra, carries only the
    # shapes _write writes in one pass: none reaches its json.dumps fallback.
    if name in REPORTS:
        report, extras = _report(name), None
    else:
        report, extras = _cli_handler(_MODEL_CHECK)
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(json, "dumps", lambda *a, **k: calls.append(a) or dumps(*a, **k))
    text = report.to_json(extras)
    monkeypatch.undo()
    assert calls == []
    assert text == json.dumps({**report.to_dict(), **jsonable(extras or {})}, indent=2)


OWN_KEYS = ("check", "params", "cases", "pass")
# Leaves: scalars, Fractions, states and counts, sets of finite and huge
# states, mixed-type sets.
report_values = st.recursive(
    scalars
    | st.fractions(max_denominator=50)
    | set_members[0]
    | hypernats
    | st.frozensets(set_members[0], max_size=8)
    | st.frozensets(st.one_of(*set_members), max_size=4),
    lambda children: st.lists(children, max_size=2)
    | st.tuples(children, children)
    | st.dictionaries(text | st.integers(-2, 2), children, max_size=2),
    max_leaves=6,
)
report_cases = st.lists(
    st.tuples(report_values, report_values, report_values, st.booleans()), max_size=3
)
extras = st.dictionaries(
    (text | st.integers(-2, 2)).filter(lambda k: str(k) not in OWN_KEYS), report_values, max_size=3
)


@given(
    text,
    st.dictionaries(text, report_values, max_size=3),
    report_cases,
    extras,
    st.none() | st.sampled_from(OWN_KEYS),
)
def test_to_json_with_extras_is_json_dumps_of_to_dict(check, params, cases, extra, clash):
    report = CheckReport(check, params)
    for case in cases:
        report.add(*case)
    expected = json.dumps({**report.to_dict(), **jsonable(extra)}, indent=2)
    assert report.to_json(extra) == expected
    if not extra:
        assert report.to_json() == expected
    if clash is not None:
        with pytest.raises(ValueError, match="repeat the report's own keys"):
            report.to_json({**extra, clash: "x"})


@pytest.mark.parametrize("name", REPORTS)
def test_to_text_matches_json_dumps_sort_keys(name):
    report = _report(name)

    def canonical(value):
        return json.dumps(jsonable(value), sort_keys=True)

    lines = [f"check: {report.check}"]
    lines += [f"  {key} = {canonical(value)}" for key, value in report.params.items()]
    for case in report.cases:
        mark = "PASS" if case.passed else "FAIL"
        lines.append(f"[{mark}] {canonical(case.input)} -> {canonical(case.actual)}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    assert report.to_text() == "\n".join(lines)
