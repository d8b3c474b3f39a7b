"""The page mover garbage collection and wear leveling share
(``repro.ftl.mover``): its abort paths and what differs per owner.

A foreground write may remap the lpn at any yield point of a move — while
the flash read, the CPU step or the program is in flight.  Wherever it
lands, the move aborts at its next stage, the mapping keeps the
foreground write's page and ``on_done`` runs once.
"""

from functools import partial

import pytest

from repro.ftl.blocks import OutOfSpaceError
from repro.ssd.presets import small_ssd

from .test_gc_wear import fill, gc_move

LPN = 0
OWNERS = ("gc", "wear")


@pytest.fixture
def ftl(sim):
    ftl = small_ssd(sim).ftl
    fill(sim, ftl, [LPN])
    return ftl


def start_move(ftl, owner: str, finished: list) -> object:
    on_done = partial(finished.append, True)
    if owner == "gc":
        gc_move(ftl, ftl._die_of_ppn(ftl.mapping.lookup(LPN)), LPN, on_done)
        return ftl.gc
    ftl.wear._move_page(LPN, on_done)
    return ftl.wear


def foreground_remap(ftl) -> int:
    """What a host write of the lpn does the instant its program lands."""
    ppn = ftl.blocks.allocate_page(reserve=1)
    ftl.mapping.map(LPN, ppn)
    return ppn


def run_into(sim, ftl, stage: str) -> None:
    """Advance until the move's ``stage`` is the one in flight."""
    if stage == "cpu":
        reads = ftl.flash.reads_completed
        sim.run_until(lambda: ftl.flash.reads_completed > reads)
    elif stage == "program":
        programs = ftl.flash.total_programs()
        sim.run_until(lambda: ftl.flash.total_programs() > programs)


@pytest.mark.parametrize("owner", OWNERS)
@pytest.mark.parametrize("stage", ["read", "cpu", "program"])
def test_move_aborts_when_the_lpn_is_rewritten_during(sim, ftl, owner, stage):
    finished = []
    programs = ftl.flash.total_programs()
    service = start_move(ftl, owner, finished)
    run_into(sim, ftl, stage)
    assert finished == []
    foreground_ppn = foreground_remap(ftl)
    sim.run()
    assert finished == [True]
    assert service.moves_aborted == 1
    assert ftl.mapping.lookup(LPN) == foreground_ppn
    assert ftl.gc.pages_moved == 0
    # Only a rewrite that lands after the allocation costs a program.
    assert ftl.flash.total_programs() - programs == (1 if stage == "program" else 0)
    ftl.mapping.check_consistency()


@pytest.mark.parametrize("owner", OWNERS)
def test_an_undisturbed_move_remaps_and_only_gc_counts_it(sim, ftl, owner):
    finished = []
    old_ppn = ftl.mapping.lookup(LPN)
    service = start_move(ftl, owner, finished)
    sim.run()
    assert finished == [True]
    assert service.moves_aborted == 0
    assert ftl.mapping.lookup(LPN) != old_ppn
    assert ftl.gc.pages_moved == (1 if owner == "gc" else 0)
    assert not hasattr(ftl.wear, "pages_moved")
    ftl.mapping.check_consistency()


@pytest.mark.parametrize("owner", OWNERS)
def test_out_of_space_falls_back_by_the_owners_policy(sim, ftl, owner):
    """GC asks for the victim's die (reserve included), wear for any die
    above the reserve; squeezed, both take any page anywhere."""
    asked = []
    allocate_page = ftl.blocks.allocate_page

    def squeezed(die=None, reserve=0):
        asked.append((die, reserve))
        if len(asked) == 1:
            raise OutOfSpaceError("squeezed")
        return allocate_page(die, reserve)

    ftl.blocks.allocate_page = squeezed
    die = ftl._die_of_ppn(ftl.mapping.lookup(LPN))
    finished = []
    start_move(ftl, owner, finished)
    sim.run()
    assert finished == [True]
    assert asked == [(die, 0) if owner == "gc" else (None, 1), (None, 0)]
    ftl.mapping.check_consistency()
