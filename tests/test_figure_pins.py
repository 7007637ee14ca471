"""Every quick-scale figure, recomputed cold, equals its pins.

The pins (``tests/data/figure_pins.json``, written by
:mod:`tests.figure_pins`) are simulated integers, so the comparison is
exact: a change that moves one makespan, writeback count, RET drain or
recovery verdict by one fails here. Figure 5's makespans are pinned by
``BENCH_figures.json`` and Figure 6's counts by the telemetry-on
Figure 5 pass in ``tests/test_fastobs.py``.
"""

import pytest

from tests import figure_pins


@pytest.fixture(scope="module")
def golden():
    return figure_pins.golden()


@pytest.mark.slow
@pytest.mark.parametrize("name", ["fig7", "fig8", "size", "ret",
                                  "recovery"])
def test_figure_matches_pins(golden, name):
    assert figure_pins.compute(name) == golden[name]
