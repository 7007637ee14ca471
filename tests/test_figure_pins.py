"""Every quick-scale figure and ablation, recomputed cold, equals its
pins.

The pins (``tests/data/figure_pins.json``, written by
:mod:`tests.figure_pins`) are simulated integers, so the comparison is
exact: a change that moves one makespan, writeback or persist count,
RET drain or recovery verdict by one fails here. Figure 5's makespans
are pinned by ``BENCH_figures.json`` and Figure 6's counts by the
telemetry-on Figure 5 pass in ``tests/test_fastsim.py``;
``tests/test_figure_shapes.py`` asserts the paper's claims on both.
"""

import pytest

from tests import figure_pins


@pytest.fixture(scope="module")
def golden():
    return figure_pins.golden()


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fig7", "fig8", "size", "ret",
                                  "recovery", "bb_epochs", "bst",
                                  "buffer_class"])
def test_figure_matches_pins(golden, name):
    assert figure_pins.compute(name) == golden[name]
