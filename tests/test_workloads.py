"""Integration tests: the model workloads reproduce the paper's race inventory.

These are the tests that tie the reproduction to Table 2 / Table 3: each
workload must contain exactly the number of distinct races the paper reports,
and Portend must classify them as the ground truth (derived from the paper)
says -- with the single known exception of the ocean race that the paper
itself reports as misclassified (§5.4).
"""

import pytest

from repro.core.categories import RaceClass, SpecViolationKind
from repro.engine import EngineOptions
from repro.experiments.metrics import score_workload
from repro.experiments.runner import analyze_workload
from repro.workloads import all_workload_names, load_workload
from repro.workloads.memcached import build_memcached

#: expected Table 3 rows: (spec violated, output differs, k-witness, single ordering)
EXPECTED_TABLE3 = {
    "SQLite": (1, 0, 0, 0),
    "ocean": (0, 0, 1, 4),
    "fmm": (0, 0, 1, 12),
    "memcached": (0, 2, 0, 16),
    "pbzip2": (3, 3, 0, 25),
    "ctrace": (1, 10, 4, 0),
    "bbuf": (0, 6, 0, 0),
    "AVV": (0, 0, 1, 0),
    "DCL": (0, 0, 1, 0),
    "DBM": (0, 0, 1, 0),
    "RW": (0, 0, 1, 0),
}

#: races the paper itself reports as misclassified by Portend (ocean, §5.4)
KNOWN_MISCLASSIFICATIONS = {("ocean", "phase_done")}


@pytest.fixture(scope="module")
def workload_runs():
    """Analyze every workload once and share the results across tests."""
    runs = {}
    for name in all_workload_names():
        workload = load_workload(name)
        runs[name] = (workload, analyze_workload(workload))
    return runs


def test_total_distinct_races_is_93(workload_runs):
    total = sum(run.result.distinct_races() for _, run in workload_runs.values())
    assert total == 93


@pytest.mark.parametrize("name", sorted(EXPECTED_TABLE3))
def test_distinct_race_count_matches_paper(workload_runs, name):
    workload, run = workload_runs[name]
    assert run.result.distinct_races() == workload.expected_distinct_races


@pytest.mark.parametrize("name", sorted(EXPECTED_TABLE3))
def test_classification_counts_match_table3(workload_runs, name):
    _, run = workload_runs[name]
    counts = run.result.counts()
    observed = (
        counts[RaceClass.SPEC_VIOLATED],
        counts[RaceClass.OUTPUT_DIFFERS],
        counts[RaceClass.K_WITNESS_HARMLESS],
        counts[RaceClass.SINGLE_ORDERING],
    )
    assert observed == EXPECTED_TABLE3[name]


@pytest.mark.parametrize("name", sorted(EXPECTED_TABLE3))
def test_ground_truth_accuracy(workload_runs, name):
    workload, run = workload_runs[name]
    score = score_workload(workload, run.result.classified)
    allowed = {
        variable for (program, variable) in KNOWN_MISCLASSIFICATIONS if program == name
    }
    unexpected = [m for m in score.mismatches if m[0] not in allowed]
    assert not unexpected, f"unexpected misclassifications: {unexpected}"
    assert not score.unmatched_races


def test_overall_accuracy_is_99_percent(workload_runs):
    total = correct = 0
    for name, (workload, run) in workload_runs.items():
        score = score_workload(workload, run.result.classified)
        total += score.total
        correct += score.correct
    assert total == 93
    assert correct == 92
    assert correct / total > 0.98


def test_sqlite_race_is_a_deadlock(workload_runs):
    _, run = workload_runs["SQLite"]
    classified = run.result.classified[0]
    assert classified.classification is RaceClass.SPEC_VIOLATED
    assert classified.evidence.spec_violation_kind is SpecViolationKind.DEADLOCK


def test_pbzip2_has_three_crashes(workload_runs):
    _, run = workload_runs["pbzip2"]
    crashes = [
        c
        for c in run.result.classified
        if c.classification is RaceClass.SPEC_VIOLATED
        and c.evidence.spec_violation_kind is SpecViolationKind.CRASH
    ]
    assert len(crashes) == 3


def test_fmm_semantic_predicate_promotes_the_timestamp_race():
    workload = load_workload("fmm")
    run = analyze_workload(
        workload, options=EngineOptions(use_semantic_predicates=True)
    )
    by_var = {c.race.location.name: c for c in run.result.classified}
    timestamp = by_var["fmm_sim_time"]
    assert timestamp.classification is RaceClass.SPEC_VIOLATED
    assert timestamp.evidence.spec_violation_kind is SpecViolationKind.SEMANTIC
    # The other races keep their classification.
    others = [c for name, c in by_var.items() if name != "fmm_sim_time"]
    assert all(c.classification is RaceClass.SINGLE_ORDERING for c in others)


def test_memcached_whatif_race_is_harmful():
    workload = build_memcached(remove_slab_lock=True)
    run = analyze_workload(workload)
    by_var = {c.race.location.name: c for c in run.result.classified}
    assert "slab_index" in by_var
    assert by_var["slab_index"].classification is RaceClass.SPEC_VIOLATED
    assert run.result.distinct_races() == 19


def test_harmful_races_come_with_replayable_evidence(workload_runs):
    for name, (_, run) in workload_runs.items():
        for classified in run.result.harmful():
            evidence = classified.evidence
            assert evidence.spec_violation_kind is not None
            assert evidence.crash_description
            assert evidence.failing_schedule


def test_registry_round_trip():
    for name in all_workload_names():
        workload = load_workload(name)
        assert workload.name.lower() == name.lower()
        assert workload.program.finalized
        assert workload.lines_of_code() > 0
    with pytest.raises(KeyError):
        load_workload("does-not-exist")
