import copy
import enum
import operator
import pickle

import hypothesis.strategies as st
import pytest
from hypothesis import given

from galaxyck import hypernat
from galaxyck.emailgame import CutoffStrategy, _as_count, state_b
from galaxyck.hypernat import HyperNat, finite, gap, huge, parse_hypernat
from galaxyck.sorites import GeneratingSequence

finites = st.integers(0, 10_000).map(finite)
huges = st.tuples(st.integers(1, 4), st.integers(-10_000, 10_000)).map(lambda ck: huge(*ck))
hypernats = st.one_of(finites, huges)


def test_finite_constructor():
    assert finite(0) == HyperNat(0, 0)
    assert finite(7) == HyperNat(0, 7)
    assert finite(7).is_finite
    with pytest.raises(ValueError):
        finite(-1)


def test_every_finite_below_every_huge():
    assert finite(7) < huge(1, 0)
    assert finite(10**30) < huge(1, -(10**40))
    assert huge(1, -1) > finite(10**9)


def test_huge_constructor_and_order():
    assert huge(1, -1).is_huge
    assert huge(2) == huge(2, 0)
    assert huge(2, 0) > huge(1, 10**9)
    assert huge(1, 0) - finite(1) == huge(1, -1)
    with pytest.raises(ValueError):
        huge(0, 5)
    with pytest.raises(ValueError):
        huge(-1)


def test_predecessors_of_huge_stay_huge():
    x = huge(1, 0)
    for _ in range(100):
        x = x - 1
        assert x.is_huge


def test_add_sub_examples():
    assert finite(3) + finite(4) == finite(7)
    assert huge(1, 0) - huge(1, 0) == finite(0)
    result = huge(1, 5) - finite(100)
    assert not result.is_finite
    assert result == huge(1, -95)
    assert 5 - finite(2) == finite(3)


def test_sub_underflow():
    with pytest.raises(ValueError):
        finite(3) - finite(5)
    with pytest.raises(ValueError):
        huge(1, 3) - huge(1, 5)
    with pytest.raises(ValueError):
        huge(1, 0) - huge(2, 0)
    with pytest.raises(ValueError):
        3 - finite(5)
    with pytest.raises(ValueError):
        3 - huge(1, 0)


def test_int_interop():
    assert finite(3) == 3
    assert huge(1, 0) != 3
    assert finite(1) != True  # a bool is not a count
    assert finite(0) != False
    assert finite(2) + 3 == 5
    assert 3 + finite(2) == finite(5)
    assert huge(1, 0) - 1 == huge(1, -1)
    assert huge(1, 0) >= 1


def test_scalar_multiplication():
    assert huge(1, 3) * 2 == huge(2, 6)
    assert 0 * huge(5, -2) == finite(0)
    assert finite(4) * 3 == finite(12)
    with pytest.raises(ValueError):
        huge(1, 0) * -1
    for factor in (True, 1.5):  # bools and floats are not scale factors
        with pytest.raises(TypeError):
            finite(4) * factor


def test_int_conversion():
    assert int(finite(12)) == 12
    with pytest.raises(ValueError):
        int(huge(1, 0))


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", finite(0)),
        ("17", finite(17)),
        ("w+0", huge(1, 0)),
        ("w-5", huge(1, -5)),
        ("w+3", huge(1, 3)),
        ("2*w+0", huge(2, 0)),
        ("3*w-4", huge(3, -4)),
        ("w", huge(1, 0)),
        (" w + 2 ", huge(1, 2)),
    ],
)
def test_parse(text, value):
    assert parse_hypernat(text) == value


@pytest.mark.parametrize(
    "text",
    [
        "", "-3", "w*2", "2w", "w+", "x+1", "0*w+1", "1.5",
        # Digits and spaces are ASCII: no Arabic-Indic or fullwidth 3, no NBSP.
        "\u0663", "\uff13", "w+\u0663", "\xa07",
    ],
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        parse_hypernat(text)


@given(hypernats)
def test_str_round_trip(x):
    assert parse_hypernat(str(x)) == x


@given(hypernats, hypernats)
def test_add_commutes(x, y):
    assert x + y == y + x


@given(hypernats, hypernats, hypernats)
def test_add_associates(x, y, z):
    assert (x + y) + z == x + (y + z)


@given(hypernats, hypernats)
def test_sub_inverts_add(x, y):
    assert (x + y) - y == x


@given(hypernats, hypernats, hypernats)
def test_order_total_and_transitive(x, y, z):
    assert (x < y) + (x == y) + (x > y) == 1
    if x <= y <= z:
        assert x <= z


@given(finites, finites)
def test_finite_tier_closed_under_addition(x, y):
    assert (x + y).is_finite
    assert (x + 1).is_finite


@given(huges, finites)
def test_huge_survives_finite_shifts(x, k):
    assert (x + k).is_huge
    assert (x - k).is_huge


@given(hypernats, hypernats)
def test_gap_symmetric(x, y):
    assert gap(x, y) == gap(y, x)
    assert gap(x, x) == 0


# --- hash/eq contract, copying, immutability ---------------------------------


@given(st.integers(0, 10**30))
def test_finite_values_hash_as_their_int(k):
    assert hash(finite(k)) == hash(k)
    assert finite(k) in {k}
    assert k in {finite(k)}
    assert {finite(k): "x"}[k] == "x"
    # A negative int is never equal, even when its hash collides.
    assert finite(k) != -k - 1
    assert -k - 1 not in {finite(k)}


def test_negative_int_with_colliding_hash_is_not_a_member():
    big = 2**61 - 1  # hash(-big) == 0 == hash(0) on 64-bit CPython
    assert -big not in {finite(0)}
    assert finite(0) not in {-big}


@given(hypernats)
def test_copy_and_pickle_round_trip(x):
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is HyperNat
        assert clone == x and hash(clone) == hash(x)
        assert (clone.omega_coeff, clone.offset) == (x.omega_coeff, x.offset)


def test_immutable():
    x = huge(1, 3)
    with pytest.raises(AttributeError):
        x.offset = 4
    with pytest.raises(AttributeError):
        x.omega_coeff = 0
    with pytest.raises(AttributeError):
        del x.offset
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == huge(1, 3)


# --- differential: the operators against tuple arithmetic on (c, k) ----------

# Small components make ties and tier boundaries (c == 0, k == 0) common.
small = st.tuples(st.integers(0, 2), st.integers(-3, 3)).map(
    lambda ck: HyperNat(ck[0], ck[1] if ck[0] else abs(ck[1]))
)
values = st.one_of(small, hypernats)


class Count(HyperNat):
    """A HyperNat subclass: the operators reach it through ``_coerce``, the
    path every operand that is not an exact HyperNat takes."""

    __slots__ = ()


operands = st.one_of(
    values,
    values.map(lambda v: Count(v.omega_coeff, v.offset)),
    st.integers(0, 10),
    st.integers(0, 10**6),
)

ORDERS = [operator.lt, operator.le, operator.gt, operator.ge, operator.eq, operator.ne]


def pair(v):
    """The oracle's view of an operand: a plain (c, k) tuple."""
    return (v.omega_coeff, v.offset) if isinstance(v, HyperNat) else (0, v)


def revalidated(r):
    """``r`` is a HyperNat that the checked public constructor accepts."""
    assert type(r) is HyperNat
    assert HyperNat(r.omega_coeff, r.offset) == r
    return pair(r)


@given(values, operands)
def test_comparisons_match_tuple_order(x, y):
    a, b = pair(x), pair(y)
    for op in ORDERS:
        assert op(x, y) == op(a, b)
        assert op(y, x) == op(b, a)


@given(values, operands)
def test_add_sub_gap_match_tuple_arithmetic(x, y):
    a, b = pair(x), pair(y)
    total = (a[0] + b[0], a[1] + b[1])
    assert revalidated(x + y) == total
    assert revalidated(y + x) == total
    for hi, lo, u, v in ((x, y, a, b), (y, x, b, a)):
        diff = (u[0] - v[0], u[1] - v[1])
        if diff >= (0, 0):
            assert revalidated(hi - lo) == diff
        else:
            with pytest.raises(ValueError):
                hi - lo
    expected_gap = (max(a, b)[0] - min(a, b)[0], max(a, b)[1] - min(a, b)[1])
    assert revalidated(gap(x, y)) == expected_gap
    assert revalidated(gap(y, x)) == expected_gap


def test_gap_coerces_only_what_is_not_an_exact_hypernat(monkeypatch):
    calls = []

    def counted(value):
        calls.append(value)
        return coerce(value)

    coerce = hypernat._coerce
    monkeypatch.setattr(hypernat, "_coerce", counted)
    assert gap(finite(3), huge(1, -2)) == huge(1, -5)
    assert calls == []
    assert gap(3, finite(1)) == finite(2)
    assert calls == [3]
    assert type(gap(Count(0, 4), finite(1))) is HyperNat
    assert calls == [3, Count(0, 4)]


@given(values, st.integers(0, 50))
def test_scaling_matches_tuple_arithmetic(x, m):
    c, k = pair(x)
    assert revalidated(x * m) == (c * m, k * m)
    assert revalidated(m * x) == (c * m, k * m)


@pytest.mark.parametrize(
    "call,exc,message",
    [
        (lambda: HyperNat(1.5, 0), TypeError, "HyperNat components must be plain ints"),
        pytest.param(lambda: HyperNat(0, False), TypeError, "HyperNat components must be plain ints",
                     id="HyperNat(0, False)"),
        pytest.param(lambda: finite(True), TypeError, "HyperNat components must be plain ints",
                     id="finite(True)"),
        pytest.param(lambda: huge(True), TypeError, "HyperNat components must be plain ints",
                     id="huge(True)"),
        pytest.param(lambda: huge(1, True), TypeError, "HyperNat components must be plain ints",
                     id="huge(1, True)"),
        (lambda: HyperNat(-1, 0), ValueError, "anchor coefficient must be nonnegative"),
        (lambda: parse_hypernat(5), TypeError, "expected a string"),
        (lambda: gap("x", 1), TypeError, "gap expects HyperNat or int endpoints"),
        # A foreign operand gets NotImplemented, so Python raises its own error.
        (lambda: finite(1) < "x", TypeError, "'<' not supported between instances of 'HyperNat' and 'str'"),
        (lambda: finite(1) < 1.5, TypeError, "'<' not supported between instances of 'HyperNat' and 'float'"),
        (lambda: finite(1) + "x", TypeError, "unsupported operand type(s) for +: 'HyperNat' and 'str'"),
        (lambda: finite(1) + 1.5, TypeError, "unsupported operand type(s) for +: 'HyperNat' and 'float'"),
        (lambda: finite(1) - "x", TypeError, "unsupported operand type(s) for -: 'HyperNat' and 'str'"),
        (lambda: finite(1) - 1.5, TypeError, "unsupported operand type(s) for -: 'HyperNat' and 'float'"),
        (lambda: "x" - finite(1), TypeError, "unsupported operand type(s) for -: 'str' and 'HyperNat'"),
        (lambda: 1.5 - finite(1), TypeError, "unsupported operand type(s) for -: 'float' and 'HyperNat'"),
    ],
)
def test_constructor_errors_name_their_cause(call, exc, message):
    with pytest.raises(exc) as err:
        call()
    assert str(err.value) == message


def _read_count(reader, value):
    """("ok", (c, k)) for the HyperNat a count reader returns, else the error's type."""
    try:
        count = reader(value)
    except (TypeError, ValueError) as exc:
        return type(exc)
    assert type(count) is HyperNat
    return "ok", (count.omega_coeff, count.offset)


def _cutoff_action_reads(value):
    seen = []
    CutoffStrategy(rule=lambda count: seen.append(count) or "A").action(value)
    return seen[0]


COUNT_READERS = (
    _as_count,
    _cutoff_action_reads,
    lambda value: gap(value, 0),
    lambda value: GeneratingSequence(lambda n: value).bound(0),
)


@given(
    st.one_of(
        st.integers(),
        st.booleans(),
        st.floats(),
        st.fractions(),
        st.text(max_size=3),
        st.none(),
        finites,
        huges,
    )
)
def test_every_count_reader_agrees_with_the_count_rule(value):
    if isinstance(value, HyperNat):
        expected = "ok", (value.omega_coeff, value.offset)
    elif type(value) is int:
        expected = ("ok", (0, value)) if value >= 0 else ValueError
    else:
        expected = TypeError
    assert [_read_count(reader, value) for reader in COUNT_READERS] == [expected] * 4


class _Level(enum.IntEnum):
    TWO = 2


def test_an_int_subclass_counts_as_its_int_value():
    """Python 3.10 writes an IntEnum by its member name, so a count that kept
    the subclass would write ``_Level.TWO`` into a label or a report."""
    assert type(finite(_Level.TWO).offset) is int
    assert type(HyperNat(_Level.TWO, _Level.TWO).omega_coeff) is int
    assert str(state_b(_Level.TWO)) == "(b,2,2)"
