"""Every structure builder, rebuilt from scratch, makes exactly its
pinned pre-populated image.

The pins (``tests/data/prepopulate_pins.json``, written by
:mod:`tests.prepopulate_pins`) hash the sorted words of each image,
the allocator's end pointer and the structure's address fields, so a
builder that moves a node, a link or the bump pointer fails here even
where no engine digest reaches (those runs start from 32-64 elements).
"""

import pytest

from repro.lfds import STRUCTURES
from tests import prepopulate_pins


@pytest.fixture(scope="module")
def golden():
    return prepopulate_pins.golden()


def test_pins_cover_every_structure(golden):
    assert sorted(golden["small"]) == sorted(STRUCTURES)
    for pins in golden["small"].values():
        assert len(pins) == (len(prepopulate_pins.SIZES)
                             * len(prepopulate_pins.SEEDS))


@pytest.mark.parametrize("structure", sorted(STRUCTURES))
def test_small_images_match_pins(golden, structure):
    assert (prepopulate_pins.compute_small(structure)
            == golden["small"][structure])


@pytest.mark.slow
@pytest.mark.parametrize("structure", prepopulate_pins.LARGE)
def test_quick_cell_images_match_pins(golden, structure):
    assert (prepopulate_pins.compute_large(structure)
            == golden["large"][structure])
