"""The tier-1 contract stays consistent across ROADMAP, CI and pyproject.

Tier-1 is the gate every PR is judged against; these checks fail loudly
when the documented command, the CI workflow and the pytest config
drift apart — the wall-clock audit's "assert the tier-1 command in
ROADMAP still matches CI" guard.
"""

from __future__ import annotations

import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from repro.experiments.claims import CLAIMS

from .experiments.tier1 import SLOW
from .golden import FAMILIES, case_id
from .test_layering import RULES

REPO = Path(__file__).resolve().parent.parent
TIER1_COMMAND = "python -m pytest -x -q"


@functools.lru_cache(maxsize=None)
def _collect(*args: str) -> str:
    """``pytest --collect-only -q`` from where the tier-1 command runs."""
    return subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", *args],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def test_roadmap_documents_tier1_command():
    roadmap = (REPO / "ROADMAP.md").read_text()
    match = re.search(r"\*\*Tier-1 verify:\*\* `([^`]+)`", roadmap)
    assert match, "ROADMAP.md lost its Tier-1 verify line"
    assert TIER1_COMMAND in match.group(1), match.group(1)
    assert "PYTHONPATH=src" in match.group(1), match.group(1)


def test_ci_runs_the_same_tier1_command():
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert TIER1_COMMAND in ci, "CI no longer runs the ROADMAP tier-1 command"
    assert f"{TIER1_COMMAND} --durations=15" in ci, "CI tier-1 step stopped printing its budget"
    assert "PYTHONPATH: src" in ci, "CI tier-1 step lost PYTHONPATH=src"


def test_tier1_command_collects_the_bit_identity_pins():
    """The benchmark-digest replay and the equivalence proofs (event
    engine and one-event pipe with the tie census it rests on, doorbell
    train, NDP gather-per-entry, the instant it reads a value and what
    its embedding cache shows while a vector is owed, SSD
    accumulate-once-per-op and when its refills and value read happen)
    are what tell a simulator-speed PR, in tier-1, that it moved a
    simulated number; the ``hotpath_golden.json`` replays and the three
    suites that hold the one remaining hot path to the scalar twins it
    once ran beside (batched ``read_pages``, ``probe_filter``, the NDP
    partition split) are what deleting those twins rests on; and the
    object pins (no cycle of ours after any of the five workloads, an SLS
    entry freed without the collector, containers per queued unit, no
    closure on the per-unit path) keep host time from drifting back into
    CPython's cyclic collector, which no simulated number shows; and the
    one-stage rules, the multi-device golden runs behind a bounded host
    pool and the replica-on-a-down-device regression are what folding
    replication into the sharded registration path rests on; and the
    fleet-is-its-hosts-merged property, the one-rank-rule layering rules
    and the two construction-time regressions (``attribute_p99``'s
    threshold is the p99 ``summary()`` prints, a ``ClusterSpec`` builds
    the router it describes) are what one definition per derived number
    rests on; and the frozen per-bag plumbing the ``Bags`` readers are
    held to bit for bit, the two submit-time refusals (a wrong bag count,
    non-integer ids), the nobody-walks-bag-by-bag rule and what a queued
    request keeps alive are what carrying SLS input as ``(ids, offsets)``
    end to end rests on; and the frame budget of one more NDP page, the
    trimmed-page regression (a flash read is counted where flash is
    touched) and the three pinned entries that say which route the
    per-entry extractor took are what a page record built once and a
    gather over the ranks the entry holds rest on; and the runner
    golden recorded on the runner's own pipeline, the three registration
    regressions (a model with more NDP ops than engine entries refused
    at construction, prewarm honoured by registration on every device,
    small tables sized by the blocks preload reserves) and the
    one-execution-path rule are what the paper figures running on the
    serving path rest on.  Every golden replay is checked by one loop
    over the registry (``tests/golden``): each family's envelope and
    every (family, scenario, variant) it declares.  None may be dropped,
    renamed out of collection or slow-marked silently.  Collects
    the way the tier-1 command does (same directory, same ``testpaths``),
    under the strictest filter in use."""
    listing = _collect("-m", "not slow")
    collected = set(listing.splitlines())
    for family_name, family in FAMILIES.items():
        cases = [f"test_every_file_has_the_envelope_and_every_scenario[{family_name}]"] + [
            f"test_scenario_replays_its_recorded_entry[{case_id(family_name, name, variant)}]"
            for name, variant, _build in family.cases()
        ]
        for case in cases:
            assert f"tests/test_golden.py::{case}" in collected, case
    cycles = re.findall(
        r"^tests/test_gc_budget\.py::test_run_leaves_no_cycle_of_ours\[\S+\]", listing, re.M
    )
    assert len(cycles) == 5, cycles               # one per benchmark workload
    down = re.findall(
        r"^tests/faults/test_injector\.py::TestDeviceDown::"
        r"test_replica_on_a_down_device_degrades_and_recovers\[\S+\]",
        listing,
        re.M,
    )
    assert len(down) == 4, down                   # ssd, ndp x one and two replicas
    router_options = re.findall(
        r"^tests/cluster/test_cluster\.py::TestPlacement::"
        r"test_router_options_validated_at_construction\[\S+\]",
        listing,
        re.M,
    )
    assert len(router_options) == 1, router_options   # one per router option
    for pin in (
        "tests/experiments/test_figure_runs.py::TestRegistration::"
        "test_more_tables_than_ndp_entries_is_refused_at_set_up",
        "tests/serving/test_server.py::TestPrewarmAtRegistration::"
        "test_first_request_reads_no_flash_page[ssd]",
        "tests/serving/test_server.py::TestPrewarmAtRegistration::"
        "test_a_replicated_registration_warms_every_device",
        "tests/models/test_capacity.py::test_attach_never_runs_out_of_blocks",
        "tests/sim/test_engine_equivalence.py::test_same_dispatch_sequence_counters_and_errors",
        "tests/sim/test_engine_equivalence.py::test_pipe_laws_hold_on_every_stream",
        "tests/sim/test_engine_equivalence.py::test_same_dispatch_sequence_when_no_delivery_ties",
        "tests/sim/test_pipe_ties.py::test_no_delivery_shares_its_instant_with_another_event",
        "tests/driver/test_doorbell_train.py::test_same_pushes_observations_and_completions",
        "tests/embedding/test_ssd_backend_equivalence.py::test_same_results_as_the_per_command_backend",
        "tests/embedding/test_ssd_refill_coherence.py::test_a_refill_never_outlives_the_invalidation_of_its_row",
        "tests/embedding/test_ssd_refill_coherence.py::test_values_are_those_of_the_first_completion",
        "tests/embedding/test_ssd_refill_coherence.py::test_counters_read_right_after_the_last_completion_are_settled",
        "tests/core/test_engine_equivalence.py::test_same_results_as_the_per_page_engine",
        "tests/core/test_engine_equivalence.py::test_a_second_gather_adds_to_a_nonzero_scratchpad",
        "tests/core/test_engine_value_instant.py::test_update_commit_between_two_translates",
        "tests/core/test_engine_value_instant.py::test_repack_between_two_translates",
        "tests/core/test_engine_value_instant.py::test_another_entry_hits_a_row_translated_but_not_yet_gathered",
        "tests/core/test_engine_value_instant.py::test_a_look_into_the_cache_finds_the_vector_of_a_translated_page",
        "tests/core/test_engine_value_instant.py::test_a_conflicting_row_takes_the_slot_while_the_vector_is_owed",
        "tests/core/test_engine_value_instant.py::test_a_commit_rewrites_a_row_whose_vector_is_owed",
        "tests/core/test_embcache.py::TestTagsNowVectorsAtTheGather::test_same_tags_counters_and_hit_vectors",
        "tests/embedding/test_ssd_refill_coherence.py::test_a_refill_after_a_commit_holds_the_committed_rows",
        "tests/hotpath/test_read_pages_batch.py::test_read_pages_equivalence_under_read_errors",
        "tests/hotpath/test_cache_equivalence.py::TestSetAssociativeLruEquivalence::test_probe_filter_matches_backend_loop",
        "tests/embedding/test_backends.py::TestNdpBackend::test_split_partition_matches_a_per_bag_oracle",
        "tests/core/test_engine_lifetime.py::test_entry_is_dead_after_its_result_read_with_the_collector_off",
        "tests/test_gc_budget.py::test_containers_alive_per_queued_unit",
        "tests/cluster/test_fleet_counters.py::test_fleet_counters_equal_the_sum_over_hosts",
        "tests/cluster/test_fleet_counters.py::test_fleet_derived_metrics_are_the_shared_definition_over_its_hosts",
        "tests/obs/test_attribution.py::test_p99_threshold_is_the_p99_serving_stats_reports",
        "tests/obs/test_analysis.py::test_attribute_pct_50_is_the_shared_rank_rule",
        "tests/embedding/test_bags_reference.py::test_ref_sls_matches_the_parents_sums_bit_for_bit",
        "tests/embedding/test_bags_reference.py::test_scatter_bags_matches_the_np_split_version",
        "tests/embedding/test_bags_reference.py::test_make_sls_config_pairs_match_with_and_without_a_layout",
        "tests/embedding/test_bags_reference.py::test_the_reference_is_the_per_bag_code_and_src_is_not",
        "tests/core/test_bags.py::TestIdsAreIntegers::test_float_ids_are_refused_not_truncated",
        "tests/serving/test_server.py::TestLifecycle::test_submit_rejects_a_wrong_bag_count",
        "tests/test_gc_budget.py::test_what_a_queued_request_keeps_alive",
        "tests/core/test_engine_frames.py::test_a_page_costs_a_bounded_number_of_frames",
        "tests/core/test_engine.py::TestBreakdownAndStats::"
        "test_a_trimmed_page_reads_as_zeros_and_counts_no_flash_read",
        "tests/core/test_engine_equivalence.py::test_an_entry_of_virtual_pages_is_one_gather",
        "tests/core/test_engine_equivalence.py::"
        "test_a_raw_page_and_a_lost_page_take_the_per_content_route",
        "tests/core/test_engine_equivalence.py::"
        "test_a_virtual_page_found_at_another_lpn_gives_its_own_rows",
    ):
        assert pin in listing, pin
    # The layering rules these rest on: each one's holds case and every
    # case planted in its row.
    rules = {rule.name: rule for rule in RULES}
    for name in (
        "one-execution-path",
        "closure-free-per-unit-path",
        "one-embedding-stage",
        "a-number-is-computed-one-way",
        "no-per-bag-walk",
    ):
        assert f"tests/test_layering.py::test_rule_holds[{name}]" in collected, name
        for i, _ in enumerate(rules[name].planted):
            assert f"tests/test_layering.py::test_planted_case[{name}-{i}]" in collected, (name, i)


def test_tier1_command_collects_every_claim():
    """Each paper claim is a tier-1 case under its id, so none is dropped
    or renamed silently, and only the slow runs' claims are slow-marked."""
    everything = set(_collect("tests/experiments/test_claims.py").splitlines())
    unmarked = set(_collect("-m", "not slow").splitlines())
    for claim in CLAIMS:
        case = f"tests/experiments/test_claims.py::test_claim_holds[{claim.id}]"
        assert case in everything, case
        assert (case in unmarked) == (claim.source not in SLOW), case


def test_ci_runs_the_paper_benchmarks():
    """The figure benchmarks check every claim on the figures' own sizes."""
    assert (
        "python -m pytest benchmarks/bench_fig*.py benchmarks/bench_table1_and_micro.py "
        "benchmarks/bench_ablations_ext.py --benchmark-disable -q"
    ) in (REPO / ".github" / "workflows" / "ci.yml").read_text()


def test_ci_coverage_job_enforces_serving_floor():
    """The coverage job measures the serving tiers — including the
    live-update write path's workload and FTL halves, the
    scatter-gather stage the serving layer dispatches through and the
    NDP engine's SSD-side embedding cache — with a >=85% floor and
    uploads the report as an artifact."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "--cov=repro.serving" in ci
    assert "--cov=repro.embedding.stage" in ci
    assert "--cov=repro.core.bags" in ci
    assert "--cov=repro.core.embcache" in ci
    assert "--cov=repro.cluster" in ci
    assert "--cov=repro.workload" in ci
    assert "--cov=repro.ftl" in ci
    assert "--cov-fail-under=85" in ci
    assert "upload-artifact" in ci


def test_ci_runs_cluster_bench_smoke():
    """The cluster routing contract is exercised on every push, and the
    JSON assert keeps the report shape honest."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "benchmarks/bench_cluster.py --smoke" in ci
    assert "BENCH_cluster.json" in ci


def test_ci_runs_updates_bench_smoke():
    """The live-update interference contract (p99 degrades under naive
    interleaving, off-peak batching recovers it) runs on every push."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "benchmarks/bench_updates.py --smoke" in ci
    assert "BENCH_updates.json" in ci
    assert "p99_recovered_x" in ci


def test_ci_runs_layout_bench_smoke():
    """The frequency-layout contract (fewer flash page reads per bag
    than modulo, migration recovering the post-shift gap) runs on every
    push."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "benchmarks/bench_layout.py --smoke" in ci
    assert "BENCH_layout.json" in ci
    assert "page_read_reduction_x" in ci
    assert "shift_recovery_frac" in ci


def test_ci_runs_every_example():
    """Nothing in tier-1 runs the walkthroughs under ``examples/``; CI
    runs each one, so an API change that breaks one fails the push."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert 'for example in examples/*.py; do echo "== $example"; python "$example" || exit 1; done' in ci
    assert sorted(REPO.glob("examples/*.py")), "examples/ is empty"


def test_ci_imports_every_subpackage_on_its_own():
    """A package that imports only after another one loaded (an import
    cycle, as ``repro.traces`` had through ``repro.embedding``) passes
    every test that imports the other first; CI imports each package
    under ``src/repro``, and each top-level module beside them
    (``repro.params``, which nearly every layer imports, among them), in
    a fresh interpreter."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert (
        'for path in src/repro/*/__init__.py src/repro/*.py; do mod="${path#src/}"; '
        'mod="${mod%.py}"; mod="${mod%/__init__}"; mod="${mod//\\//.}"; '
        'echo "== $mod"; python -c "import $mod" || exit 1; done'
    ) in ci
    packages = sorted(REPO.glob("src/repro/*/__init__.py"))
    assert len(packages) >= 17, packages
    modules = {path.name for path in REPO.glob("src/repro/*.py")}
    assert {"params.py", "quant.py"} <= modules, modules


def test_ci_runs_the_benchmark_harness_tests_and_quick_smoke():
    """perf/ sits outside ``testpaths``, so its own tests and the
    every-workload ``correct: true`` check run only because CI names
    them."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    assert "python -m pytest perf -q" in ci
    assert "python3 -m perf.run --quick --out perf_quick.json" in ci
    assert "['correct'] is not True" in ci
    assert "perf_quick.json" in (REPO / ".gitignore").read_text()


def test_committed_bench_reports_are_full_mode():
    """CI's ``--smoke`` runs overwrite the reports in its workspace; what
    is committed must be the full-size run the docs quote (the
    gitignored, machine-specific reports are exempt)."""
    ignored = set((REPO / ".gitignore").read_text().split())
    committed = [
        path for path in sorted(REPO.glob("BENCH_*.json")) if path.name not in ignored
    ]
    assert len(committed) >= 6, [path.name for path in committed]
    modes = {path.name: json.loads(path.read_text())["mode"] for path in committed}
    assert set(modes.values()) == {"full"}, modes


def test_pyproject_declares_slow_marker_and_cov_extra():
    pyproject = (REPO / "pyproject.toml").read_text()
    assert 'slow' in pyproject and "markers" in pyproject
    assert "pytest-cov" in pyproject, "[test] extra lost pytest-cov"


def test_ci_installs_the_numpy_the_frame_ledger_was_pinned_on():
    """``tests/test_frame_ledger.py`` skips unless numpy's major.minor is
    the one ``tools/ledger/FRAMES.json`` records for the interpreter, and
    ``pip install -e .`` resolves ``numpy>=1.24`` to whatever is newest:
    the leg of each pinned interpreter installs that numpy before
    tier-1, or the gate runs only by chance."""
    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text()
    pins = json.loads((REPO / "tools" / "ledger" / "FRAMES.json").read_text())
    assert pins
    legs = re.search(r'python-version: \[([^\]]*)\]', ci).group(1)
    for interpreter, pin in pins.items():
        assert f'"{interpreter}"' in legs, interpreter
        step = (
            f"        if: matrix.python-version == '{interpreter}'\n"
            f'        run: pip install "numpy=={pin["numpy"]}.*"\n'
        )
        assert step in ci, step
        assert ci.index(step) < ci.index(f"{TIER1_COMMAND} --durations=15")
