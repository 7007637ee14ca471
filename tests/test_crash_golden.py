"""Golden crash reports: every validator verdict pinned by digest.

For each LFD x mechanism x seed, a small run is crash-tested at 40
persist-log prefixes and the full outcome list (prefix, verdict,
problem text, reachable node count, sorted live keys) is hashed. The
digests in ``tests/data/crash_reports.json`` pin the validators'
reports, including the hundreds of failing ARP/NOP ones, so a change
to a validator's implementation must keep every report identical.

Regenerate (only when a report is meant to change) with::

    PYTHONPATH=src python tests/test_crash_golden.py
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.common.params import MachineConfig
from repro.core.recovery import crash_test
from repro.core.simulator import simulate
from repro.lfds import WORKLOAD_NAMES
from repro.workloads.harness import WorkloadSpec

GOLDEN = Path(__file__).resolve().parent / "data" / "crash_reports.json"
MECHANISMS = ("nop", "arp", "sb", "bb", "lrp")
SEEDS = (1, 2)
CRASH_POINTS = 40
CONFIG = MachineConfig(num_cores=4, l1_size_bytes=2 * 1024)


def case_id(structure, mechanism, seed):
    return f"{structure}/{mechanism}/seed{seed}"


def crash_digest(structure, mechanism, seed):
    """sha256 over one run's crash_test outcomes."""
    spec = WorkloadSpec(structure=structure, num_threads=4,
                        initial_size=32, ops_per_thread=16, seed=seed)
    result = simulate(spec, mechanism, CONFIG)
    campaign = crash_test(result, num_points=CRASH_POINTS, seed=seed)
    hasher = hashlib.sha256()
    for outcome in campaign.outcomes:
        report = outcome.report
        hasher.update(repr((
            outcome.prefix_len, report.ok, report.problems,
            report.reachable_nodes, sorted(report.live_keys or ()),
        )).encode("ascii"))
    return hasher.hexdigest()


CASES = [(structure, mechanism, seed)
         for structure in WORKLOAD_NAMES
         for mechanism in MECHANISMS
         for seed in SEEDS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("structure,mechanism,seed", CASES,
                         ids=[case_id(*case) for case in CASES])
def test_crash_reports_match_golden(golden, structure, mechanism, seed):
    assert (crash_digest(structure, mechanism, seed)
            == golden[case_id(structure, mechanism, seed)])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {case_id(*case): crash_digest(*case) for case in CASES},
        indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} digests to {GOLDEN}")
