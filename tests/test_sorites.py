import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from galaxyck.hypernat import finite, gap, huge
from galaxyck.reports import CheckReport
from galaxyck.sorites import GeneratingSequence, SoritesRelation, chain_relation
from helpers import Level

finites = st.integers(0, 10_000).map(finite)
huges = st.tuples(st.integers(1, 3), st.integers(-1_000, 1_000)).map(lambda ck: huge(*ck))
indices = st.one_of(finites, huges)


def test_levels_on_a_chain():
    rel = chain_relation()
    assert rel.in_level(2, finite(0), finite(3))  # gap 3 < 4
    assert not rel.in_level(1, finite(0), finite(3))  # gap 3 >= 2
    assert rel.in_level(0, finite(0), finite(0))
    assert not rel.in_level(0, finite(0), finite(1))


def test_related_is_distance_finiteness():
    rel = chain_relation()
    assert rel.related(finite(0), finite(10**6))
    assert not rel.related(finite(0), huge(1, 0))
    assert rel.related(finite(5), finite(5))
    assert rel.related(huge(1, 0), huge(1, 7))  # finite gap inside the huge tier
    assert not rel.related(huge(1, 0), huge(2, 0))  # the gap itself is huge


def test_galaxy_membership_aliases_related():
    rel = chain_relation()
    a0 = finite(0)
    assert rel.in_galaxy(a0, finite(55))
    assert not rel.in_galaxy(a0, huge(1, -3))
    assert rel.in_galaxy(a0, a0)


def test_generating_axioms_reports_doubling_failure():
    slow = GeneratingSequence(lambda n: finite(n + 1))
    rel = SoritesRelation(dist=gap, gen=slow)
    sample = [finite(i) for i in range(11)]
    report = rel.verify_generating_axioms(sample, n_max=4)
    assert not report.passed
    comp_case = next(c for c in report.cases if c.input["clause"] == "composition")
    assert not comp_case.passed
    # two gap-2 steps land at gap 4, which escapes t(3) = 4
    assert any(v["n"] == 2 for v in comp_case.actual)


def test_generating_axioms_flags_asymmetric_distance():
    def skewed(x, y):
        return gap(x, y) if x <= y else gap(x, y) + 1

    rel = SoritesRelation(dist=skewed)
    report = rel.verify_generating_axioms([finite(0), finite(1)], n_max=2)
    sym_case = next(c for c in report.cases if c.input["clause"] == "symmetry")
    assert not sym_case.passed


def test_generating_axioms_lists_symmetry_witnesses():
    def skewed(x, y):
        return gap(x, y) if x <= y else gap(x, y) + 1

    rel = SoritesRelation(dist=skewed)
    report = rel.verify_generating_axioms([finite(i) for i in range(3)], n_max=2)
    cases = {c.input["clause"]: c for c in report.cases}
    # Only level 1 splits the pairs: distance 1 one way, 2 the other, bound 2.
    assert cases["symmetry"].actual == [
        {"n": 1, "x": "0", "y": "1"},
        {"n": 1, "x": "1", "y": "0"},
        {"n": 1, "x": "1", "y": "2"},
        {"n": 1, "x": "2", "y": "1"},
    ]
    assert cases["reflexivity"].passed


def test_generating_axioms_lists_composition_witnesses():
    rel = SoritesRelation(dist=gap, gen=GeneratingSequence(lambda n: finite(n + 1)))
    report = rel.verify_generating_axioms([finite(i) for i in range(5)], n_max=3)
    cases = {c.input["clause"]: c for c in report.cases}
    # Two gap-2 steps cover gap 4, which escapes t(3) = 4.
    assert cases["composition"].actual == [
        {"n": 2, "x": "0", "y": "2", "z": "4"},
        {"n": 2, "x": "4", "y": "2", "z": "0"},
    ]
    assert cases["reflexivity"].passed and cases["symmetry"].passed


def test_generating_axioms_lists_reflexivity_witnesses():
    # d(x, x) = 2 keeps every point out of its own level-0 and level-1 sets.
    rel = SoritesRelation(dist=lambda x, y: gap(x, y) + 2)
    report = rel.verify_generating_axioms([finite(0), finite(5)], n_max=2)
    refl_case = next(c for c in report.cases if c.input["clause"] == "reflexivity")
    assert not refl_case.passed
    assert refl_case.actual == [
        {"n": 0, "x": "0"},
        {"n": 0, "x": "5"},
        {"n": 1, "x": "0"},
        {"n": 1, "x": "5"},
    ]


def test_empty_sample_vacuous():
    report = chain_relation().verify_generating_axioms([], n_max=5)
    assert report.passed


def test_doubling_violations():
    assert GeneratingSequence.powers_of_two().doubling_violations(10) == []
    assert GeneratingSequence(lambda n: finite(n + 1)).doubling_violations(4) == [1, 2, 3]
    assert GeneratingSequence(lambda n: huge(1, 0) if n else 1).doubling_violations(1) == [0]
    assert GeneratingSequence(lambda n: 0).doubling_violations(1) == [0]


def test_custom_int_thresholds_are_coerced():
    gen = GeneratingSequence(lambda n: 3**n)
    assert gen.bound(2) == finite(9)
    assert gen.doubling_violations(5) == []


@pytest.mark.parametrize("threshold", [2.5, True, "4", None])
def test_non_count_thresholds_fail_at_bound_naming_the_level(threshold):
    with pytest.raises(TypeError, match="level 0 "):
        GeneratingSequence(lambda n: threshold).bound(0)


def test_bounds_are_memoized_per_level():
    calls = []

    def ladder(n):
        calls.append(n)
        return finite(2**n)

    gen = GeneratingSequence(ladder)
    rel = SoritesRelation(dist=gap, gen=gen)
    sample = [finite(k) for k in range(12)]
    report = rel.verify_generating_axioms(sample, 4)
    assert report.to_dict() == chain_relation().verify_generating_axioms(sample, 4).to_dict()
    assert sorted(calls) == [1, 2, 3, 4, 5]
    # The memo is not part of the ladder's identity.
    assert gen == GeneratingSequence(ladder)
    assert hash(gen) == hash(GeneratingSequence(ladder))
    assert repr(gen) == repr(GeneratingSequence(ladder))


def test_an_audit_computes_each_threshold_once(monkeypatch):
    calls = []
    bound = GeneratingSequence.bound

    def counted(gen, n):
        calls.append(n)
        return bound(gen, n)

    monkeypatch.setattr(GeneratingSequence, "bound", counted)
    rel = chain_relation(GeneratingSequence.powers_of_two())
    report = rel.verify_generating_axioms([finite(k) for k in range(12)], 4)
    assert report.passed
    # n_max + 1 calls: level 0 needs no threshold, levels 1..n_max+1 one each.
    assert sorted(calls) == [1, 2, 3, 4, 5]


def _counted_audit(S, dist=gap):
    """Distance calls of the ``2**n`` audit of ``finite(0..S-1)`` at ``n_max=4``."""
    calls = []

    def counted(x, y):
        calls.append(None)
        return dist(x, y)

    SoritesRelation(counted).verify_generating_axioms([finite(k) for k in range(S)], 4)
    return len(calls)


def test_the_audit_work_is_pinned_as_a_count():
    # One distance per level test: (n_max+2)*S**2 for the rows, built up
    # front, and (n_max+1)*(S+2*S**2) for reflexivity and symmetry, whatever
    # the distance.  So doubling S may at most multiply them by 4;
    # composition reads the rows' bits.
    small, large = _counted_audit(10), _counted_audit(20)
    assert (small, large) == (1650, 6500)
    assert large <= 4 * small
    # A never-zero distance leaves points out of their own rows; the rows
    # are built all the same.
    assert _counted_audit(10, _skewed) == 1650


def test_an_index_level_is_read_as_a_plain_int():
    rel, sample = chain_relation(), [finite(k) for k in range(6)]
    report = rel.verify_generating_axioms(sample, Level(2))
    assert report.params["n_max"] == 2 and type(report.params["n_max"]) is int
    assert report.to_json() == rel.verify_generating_axioms(sample, 2).to_json()
    slow = GeneratingSequence(lambda n: finite(n + 1))
    assert slow.doubling_violations(Level(4)) == [1, 2, 3]


@pytest.mark.parametrize("n_max", [True, False, 2.0, "2", None])
def test_a_bool_or_non_int_is_no_level(n_max):
    with pytest.raises(TypeError):
        chain_relation().verify_generating_axioms([finite(0)], n_max)
    with pytest.raises(TypeError):
        GeneratingSequence.powers_of_two().doubling_violations(n_max)


@pytest.mark.parametrize("n_max", [-1, -3, Level(-1)])
def test_a_negative_level_is_refused_not_passed(n_max):
    # An audit of no level would report a vacuous pass.
    with pytest.raises(ValueError, match="ladder levels are nonnegative"):
        chain_relation().verify_generating_axioms([finite(0), finite(1)], n_max)
    with pytest.raises(ValueError, match="ladder levels are nonnegative"):
        GeneratingSequence(lambda n: finite(n + 1)).doubling_violations(n_max)


def test_level_zero_is_an_audit_and_an_empty_ladder_check():
    report = chain_relation().verify_generating_axioms([finite(0), finite(1)], 0)
    assert report.passed and report.params["n_max"] == 0
    assert GeneratingSequence(lambda n: finite(n + 1)).doubling_violations(0) == []


def test_chain_walk_never_exits_at_finite_steps():
    rel = chain_relation()
    a1 = finite(1)
    for i in range(1, 101):
        assert rel.related(a1, finite(i))
        assert rel.related(a1, finite(i + 1))  # forward persistence


def test_unrelated_propagates_backward():
    rel = chain_relation()
    a1 = finite(1)
    for k in range(-50, 50):
        i = huge(1, k)
        assert not rel.related(a1, i)
        assert not rel.related(a1, i - 1)


def test_unit_steps_stay_related_even_at_huge_indices():
    rel = chain_relation()
    for k in (-3, 0, 5):
        i = huge(1, k)
        assert rel.related(i, i + 1)


def test_no_expressible_crossing_point():
    rel = chain_relation()
    a1 = finite(1)
    candidates = [finite(i) for i in range(1, 101)] + [huge(1, k) for k in range(-50, 50)]
    crossings = [b for b in candidates if rel.related(a1, b) and not rel.related(a1, b + 1)]
    assert crossings == []


def test_dist_none_means_unrelated():
    rel = SoritesRelation(dist=lambda x, y: None)
    assert not rel.related("p", "q")
    assert not rel.in_level(3, "p", "q")


def test_level_rejects_negative():
    with pytest.raises(ValueError):
        chain_relation().in_level(-1, finite(0), finite(0))


@given(indices)
def test_reflexive(i):
    assert chain_relation().related(i, i)


@given(indices, indices)
def test_symmetric(i, j):
    rel = chain_relation()
    assert rel.related(i, j) == rel.related(j, i)


@given(indices, indices, indices)
def test_transitive(i, j, k):
    rel = chain_relation()
    if rel.related(i, j) and rel.related(j, k):
        assert rel.related(i, k)


# phi_N substitutes the int N for the huge anchor w: c*w+k -> c*N+k.  Once N
# exceeds t(n_max+1) plus twice the largest |k|, points of different tiers
# stay beyond every audited level after the substitution, and points of one
# tier keep their gaps, so the audit of the image is the audit of the sample.
TRANSFER_K = 8
transfer_points = st.one_of(
    st.integers(0, TRANSFER_K).map(finite),
    st.builds(huge, st.integers(1, 2), st.integers(-TRANSFER_K, TRANSFER_K)),
)
# A sound ladder reports no witnesses, so the unsound one is drawn too.
ladders = st.sampled_from(
    [GeneratingSequence.powers_of_two(), GeneratingSequence(lambda n: finite(n + 1))]
)


@given(
    st.lists(transfer_points, max_size=8, unique=True),
    ladders,
    st.integers(0, 3),
    st.integers(1, 10**6),
)
def test_axiom_audit_of_huge_points_maps_onto_finite_points(sample, ladder, n_max, extra):
    largest_offset = max((abs(x.offset) for x in sample), default=0)
    N = int(ladder.bound(n_max + 1)) + 2 * largest_offset + extra
    image = [finite(x.omega_coeff * N + x.offset) for x in sample]
    names = {str(y): str(x) for x, y in zip(sample, image)}
    rel = chain_relation(ladder)
    mapped = rel.verify_generating_axioms(image, n_max)
    for case in mapped.cases:
        if not case.passed:
            case.actual = [
                {key: value if key == "n" else names[value] for key, value in witness.items()}
                for witness in case.actual
            ]
    assert mapped.to_json() == rel.verify_generating_axioms(sample, n_max).to_json()


# --- the audit against a plain triple loop over the public level test -------


def reference_audit(rel, sample, n_max):
    """The axiom audit as three independent loops over ``rel.in_level``."""
    points = list(sample)
    levels = range(n_max + 1)
    reflexivity = [
        {"n": n, "x": str(x)} for n in levels for x in points if not rel.in_level(n, x, x)
    ]
    symmetry = [
        {"n": n, "x": str(x), "y": str(y)}
        for n in levels
        for x in points
        for y in points
        if rel.in_level(n, x, y) != rel.in_level(n, y, x)
    ]
    composition = [
        {"n": n, "x": str(x), "y": str(y), "z": str(z)}
        for n in levels
        for x in points
        for y in points
        for z in points
        if rel.in_level(n, x, y) and rel.in_level(n, y, z) and not rel.in_level(n + 1, x, z)
    ]
    report = CheckReport("generating-axioms", {"n_max": n_max, "sample_size": len(points)})
    for clause, bad in (
        ("reflexivity", reflexivity),
        ("symmetry", symmetry),
        ("composition", composition),
    ):
        report.add({"clause": clause}, "no violations", bad or "no violations", not bad)
    return report


LADDERS = {
    "2^n": lambda n: finite(2**n),
    "n+1": lambda n: finite(n + 1),
    "2n+1": lambda n: 2 * n + 1,
    "huge at 3": lambda n: huge(1, 0) if n >= 3 else finite(2**n),
}


def _skewed(x, y):
    """Asymmetric and never zero: one step longer unless ``x < y``."""
    return gap(x, y) if x < y else gap(x, y) + 1


def _same_tier(x, y):
    """No distance between points of different tiers."""
    return gap(x, y) if x.omega_coeff == y.omega_coeff else None


DISTANCES = {"gap": gap, "skewed": _skewed, "same tier": _same_tier}
# Few values per tier, so draws repeat points and land in each other's levels.
mixed_points = st.one_of(
    st.integers(0, 9).map(finite),
    st.integers(-4, 4).map(lambda k: huge(1, k)),
    st.integers(-2, 2).map(lambda k: huge(2, k)),
)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(mixed_points, max_size=7),
    st.sampled_from(sorted(LADDERS)),
    st.sampled_from(sorted(DISTANCES)),
    st.integers(0, 4),
)
# Fixed cases: every clause fails, a distance is None, a threshold is huge.
@example([finite(0), finite(2), finite(4), finite(4), huge(1, 0)], "n+1", "skewed", 3)
@example([finite(0), finite(5), huge(1, 1), huge(2, 0)], "huge at 3", "same tier", 4)
def test_audit_matches_a_triple_loop_over_in_level(sample, ladder, distance, n_max):
    def rel():  # each side gets a ladder with its own memo
        return SoritesRelation(DISTANCES[distance], GeneratingSequence(LADDERS[ladder]))

    assert rel().verify_generating_axioms(sample, n_max).to_json() == reference_audit(
        rel(), sample, n_max
    ).to_json()


def audit_level_tests(points, n_max):
    """The ``(n, x, y)`` of the audit's ``in_level`` calls, in order: each
    point's level-0 row, then per level each point's level-(n+1) row, the
    reflexivity tests and both symmetry tests of every pair."""

    def rows(n):
        return [(n, x, z) for x in points for z in points]

    tests = rows(0)
    for n in range(n_max + 1):
        tests += rows(n + 1)
        tests += [(n, x, x) for x in points]
        for x in points:
            for y in points:
                tests += [(n, x, y), (n, y, x)]
    return tests


@pytest.mark.parametrize(
    "sample,ladder,distance,n_max",
    [
        ([finite(0), finite(2), finite(4), finite(4), huge(1, 0)], "n+1", "skewed", 3),
        ([finite(0), finite(5), huge(1, 1), huge(2, 0)], "huge at 3", "same tier", 4),
        ([finite(k) for k in range(10)], "2^n", "gap", 4),
    ],
    ids=["skewed", "same-tier", "counted-chain"],
)
def test_the_audit_tests_each_row_once_per_level(monkeypatch, sample, ladder, distance, n_max):
    rel = SoritesRelation(DISTANCES[distance], GeneratingSequence(LADDERS[ladder]))
    calls = []
    in_level = SoritesRelation.in_level

    def recorded(self, n, x, y):
        calls.append((n, x, y))
        return in_level(self, n, x, y)

    monkeypatch.setattr(SoritesRelation, "in_level", recorded)
    rel.verify_generating_axioms(sample, n_max)
    assert calls == audit_level_tests(sample, n_max)
