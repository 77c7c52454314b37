"""Acceptance sweep: one test per shipped guarantee, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
Everything here is exact; the two timed checks assert their budget.
"""

import random
import time
from fractions import Fraction

import helpers
from galaxyck.emailgame import (
    STATE_A,
    CutoffStrategy,
    PayoffParams,
    best_response_check,
    check_ast_possibility,
    check_classical_impossibility,
    check_monotone_ck,
    email_metric,
    state_b,
    truncated_model,
)
from galaxyck.epistemic import (
    ck_classical,
    ck_region,
    ck_subjective,
    knows,
    link_agent,
    link_group,
    link_iter,
    meet,
    meet_equals_galaxies,
)
from galaxyck.hypernat import finite, huge
from galaxyck.sorites import chain_relation

TRUE_TAUS = [huge(1, -10), huge(1, 0), huge(1, 10), huge(2, 0)]


def _verdict(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_01_classical_impossibility_at_t50():
    started = time.perf_counter()
    report = check_classical_impossibility(50)
    model = truncated_model(50)
    b_event = frozenset(s for s in model.states if s.tag == "b")
    carrier = frozenset(model.states)
    never_ck = all(not ck_classical(model, b_event, omega) for omega in model.states)
    full_closures = all(model.closure(omega) == carrier for omega in model.states)
    elapsed = time.perf_counter() - started
    _verdict(
        "01 classical-impossibility",
        report.passed and never_ck and full_closures and elapsed < 1.0,
    )


def test_criterion_02_subjective_possibility_at_huge_counts():
    huge_ok = all(check_ast_possibility(state_b(tau)) for tau in TRUE_TAUS)
    finite_ok = all(not check_ast_possibility(state_b(t)) for t in range(1, 101))
    _verdict("02 galaxy-possibility", huge_ok and finite_ok)


def test_criterion_03_one_step_persistence():
    down_ok = all(check_ast_possibility(state_b(tau - 1)) for tau in TRUE_TAUS)
    up_ok = all(not check_ast_possibility(state_b(t + 1)) for t in range(1, 101))
    samples = TRUE_TAUS + [finite(t) for t in range(1, 101)]
    report = check_monotone_ck(samples)
    _verdict("03 one-step-persistence", down_ok and up_ok and report.passed)


def test_criterion_04_metric_matches_bfs():
    started = time.perf_counter()
    ok = True
    for T in (5, 20, 50):
        model = truncated_model(T)
        for x in model.states:
            layers = model.distances_from(x)
            for y in model.states:
                ok = ok and email_metric(x, y) == finite(layers[y])
    model20 = truncated_model(20)
    for t in range(1, 21):
        bfs = model20.metric(STATE_A, state_b(t, 0))
        ok = ok and email_metric(STATE_A, state_b(t, 0)) == bfs == finite(2 * t)
    elapsed = time.perf_counter() - started
    _verdict("04 metric-oracle-equivalence", ok and elapsed < 1.0)


def test_criterion_05_metric_axioms_on_random_models():
    rng = random.Random(20260810)
    violations = 0
    for _ in range(1000):
        model = helpers.random_connected_model(rng, max_states=8, agent_counts=(2, 3))
        table = {s: model.distances_from(s) for s in model.states}
        for x in model.states:
            for y in model.states:
                if (table[x][y] == 0) != (x == y):
                    violations += 1
                if table[x][y] != table[y][x]:
                    violations += 1
                for z in model.states:
                    if table[x][z] > table[x][y] + table[y][z]:
                        violations += 1
    _verdict("05 metric-axioms", violations == 0)


def test_criterion_06_link_lemmas_exhaustive():
    rng = random.Random(60)
    violations = 0
    for _ in range(25):
        model = helpers.random_model(rng, max_states=6)
        events = list(helpers.all_events(model.states))
        linked = {event: link_group(model, event) for event in events}
        for event in events:
            if not event <= linked[event]:  # expansivity
                violations += 1
            layers = [link_iter(model, event, n) for n in range(len(model.states) + 1)]
            for lo, hi in zip(layers, layers[1:]):  # layer monotonicity
                if not lo <= hi:
                    violations += 1
        for a in events:  # isotonicity
            for b in events:
                if a <= b and not linked[a] <= linked[b]:
                    violations += 1
        for x in model.states:  # exchange
            for y in model.states:
                for n in range(4):
                    if (y in link_iter(model, {x}, n)) != (x in link_iter(model, {y}, n)):
                        violations += 1
    _verdict("06 link-lemmas", violations == 0)


def test_criterion_07_duality_and_region():
    rng = random.Random(70)
    violations = 0
    for _ in range(25):
        model = helpers.random_model(rng, max_states=6)
        carrier = frozenset(model.states)
        for event in helpers.all_events(model.states):
            for agent in model.agents:
                dual = carrier - link_agent(model, agent, carrier - event)
                if knows(model, agent, event) != dual:
                    violations += 1
            region = ck_region(model, event)
            for omega in model.states:
                galaxy = model.closure(omega)  # finite carrier: all distances finite
                if (galaxy <= event) != region.contains(omega):
                    violations += 1
                if region.contains(omega) != ck_subjective(model, event, omega):
                    violations += 1
    _verdict("07 duality-and-region", violations == 0)


def test_criterion_08_meet_is_the_galaxy_partition():
    rng = random.Random(80)
    mismatches = 0
    for _ in range(500):
        model = helpers.random_model(rng, max_states=8)
        if not meet_equals_galaxies(model).passed:
            mismatches += 1
        if set(meet(model)) != set(model.components()):
            mismatches += 1
    _verdict("08 meet-equals-galaxies", mismatches == 0)


def test_criterion_09_sorites_chain():
    rel = chain_relation()
    sample = [finite(i) for i in range(100)]
    axioms = rel.verify_generating_axioms(sample, n_max=6)
    # reflexivity, symmetry and composition, each without a violation
    axioms_ok = [case.passed for case in axioms.cases] == [True, True, True]

    a1 = finite(1)
    finite_ok = all(rel.related(a1, finite(i)) for i in range(1, 101))
    huge_probes = [huge(1, k) for k in range(-50, 50)] + [huge(2, 0)]
    huge_ok = all(not rel.related(a1, beta) for beta in huge_probes)

    candidates = [finite(i) for i in range(1, 101)] + [huge(1, k) for k in range(-50, 50)]
    assert len(candidates) == 200
    crossing_free = not any(
        rel.related(a1, beta) and not rel.related(a1, beta + 1) for beta in candidates
    )
    _verdict("09 sorites-chain", axioms_ok and finite_ok and huge_ok and crossing_free)


def test_criterion_10_cutoff_equilibrium():
    cutoff = CutoffStrategy.play_a_while_finite()
    own_counts = [*range(0, 11), huge(1, -2), huge(1, 0), huge(1, 5)]
    ok = True
    for m, l in ((2, 3), (1, 1)):
        params = PayoffParams(m, l, Fraction(1, 2), Fraction(1, 10))
        report = best_response_check((cutoff, cutoff), params, own_counts)
        ok = ok and report.passed
    _verdict("10 cutoff-equilibrium", ok)
