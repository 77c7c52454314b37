"""The package's public names are exactly those its layers declare."""

import galaxyck
from galaxyck import emailgame, epistemic, hypernat, reports, sorites

LAYERS = (hypernat, sorites, epistemic, emailgame, reports)

# The names the package exported when it still listed them by hand.
EXPORTED_BEFORE = """
    ACTIONS AumannModel CaseResult CheckReport CutoffStrategy EmailGameModel
    EmailGameState Event GeneratingSequence HyperNat ModelFormatError
    PayoffParams STATE_A SoritesRelation best_response_check cell
    cell_by_own_count chain_position chain_relation check_ast_possibility
    check_classical_impossibility check_monotone_ck ck_classical ck_region
    ck_subjective email_metric event_b finite gap huge is_reachable jsonable
    knows knows_group link_agent link_group link_iter meet
    meet_equals_galaxies model_from_dict parse_hypernat payoff_pair
    reachability_relation state_b state_probability truncated_model
""".split()
# Of those, the names taken out since: each restated a route still exported.
REMOVED = {"is_reachable"}


def test_package_exports_are_the_union_of_the_layers():
    declared = [name for layer in LAYERS for name in layer.__all__]
    assert len(set(declared)) == len(declared)
    assert sorted(galaxyck.__all__) == sorted(declared)
    assert len(EXPORTED_BEFORE) == 46 and REMOVED <= set(EXPORTED_BEFORE)
    assert set(EXPORTED_BEFORE) - REMOVED <= set(galaxyck.__all__)
    assert not any(hasattr(galaxyck, name) for name in REMOVED)
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(galaxyck, name) is getattr(layer, name), name
