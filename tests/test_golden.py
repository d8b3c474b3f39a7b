"""Every golden file replays: one test and one comparator for every family.

The families (``tests/golden/__init__.py``) pin the hot path recorded on
the deleted scalar code, the serving and live-update timelines, one
fleet run per router, the paper figures' runner recorded on its own
pipeline, the §5 calibration rows (the only experiment whose NVMe reads
span many flash pages) and the benchmark workloads' digests.  A replay reproduces
every recorded value exactly; only ``hotpath``'s float32 ``values_sum``
compares to 1e-4.  Variants replay against the same entries: the serving
and cluster runs with a tracer installed, and the golden-mixed run with
``updates=None`` (the zero-update oracle).  A model change re-records
with ``python -m tests.golden`` and says why the numbers moved.
"""

from __future__ import annotations

from functools import lru_cache

import pytest

from .golden import FAMILIES, case_id, differences

# Written by the generator on a clean src/ (the others were re-nested
# into the envelope and say so with ``false``).
RECORDED_CLEAN = {"runner", "calibration", "digests"}


@lru_cache(maxsize=None)
def recorded(family: str) -> dict:
    return FAMILIES[family].load()


@pytest.mark.parametrize("family", list(FAMILIES))
def test_every_file_has_the_envelope_and_every_scenario(family):
    golden = recorded(family)
    assert len(golden["generated_at_commit"]) == 40
    clean = golden["src_unchanged_since_commit"]
    assert clean is True or (clean is False and family not in RECORDED_CLEAN)
    assert sorted(golden["scenarios"]) == sorted(FAMILIES[family].scenarios)
    for key, value in FAMILIES[family].extras.items():
        assert golden[key] == value, key


@pytest.mark.parametrize(
    "family, name, build",
    [
        pytest.param(family, name, build, id=case_id(family, name, variant))
        for family in FAMILIES
        for name, variant, build in FAMILIES[family].cases()
    ],
)
def test_scenario_replays_its_recorded_entry(family, name, build):
    found = differences(
        case_id(family, name, ""),
        recorded(family)["scenarios"][name],
        build(),
        FAMILIES[family].loose,
    )
    assert not found, "\n".join(found)
