import hypothesis.strategies as st
import pytest
from hypothesis import given

from galaxyck.hypernat import finite, gap, huge
from galaxyck.sorites import GeneratingSequence, SoritesRelation, chain_relation

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


def test_generating_axioms_default_ladder_passes():
    rel = chain_relation()
    sample = [finite(i) for i in range(100)]
    report = rel.verify_generating_axioms(sample, n_max=6)
    assert report.passed
    assert [case.passed for case in report.cases] == [True, True, True]


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
