"""The setup prototype's image is the one shared, read-only baseline.

``simulate`` installs a memoized setup image into every run of its
prototype. The run's trace keeps the words it writes over that image,
and each crash image the words its persist-log prefix carries; both
read every other word from it. Nothing may write the image itself: the
setup cache hands it to every later run.
"""

import pytest

from repro.common.params import MachineConfig
from repro.core.machine import Machine
from repro.core.recovery import crash_test
from repro.core.simulator import _setup_prototype, clear_setup_cache, simulate
from repro.obs import Observer, slo
from repro.persistency import MECHANISMS
from repro.workloads.harness import WorkloadSpec
from repro.workloads.kvservice import KVServiceSpec

CONFIG = MachineConfig(num_cores=4, l1_size_bytes=2 * 1024)


def _carried(log, prefix):
    """The words the first ``prefix`` persists of ``log`` carry."""
    return {addr for record in log[:prefix] for addr, _ in record.words}


@pytest.mark.parametrize("structure", ("hashmap", "bstree", "skiplist"))
def test_runs_crashes_and_oracles_leave_the_prototype_image(structure):
    spec = WorkloadSpec(structure=structure, num_threads=4,
                        initial_size=48, ops_per_thread=16, seed=3)
    clear_setup_cache()
    _proto, image, _walks = _setup_prototype(spec, CONFIG)
    before = dict(image)
    for mechanism in sorted(MECHANISMS):
        result = simulate(spec, mechanism, CONFIG)
        crash_test(result, num_points=6)
        result.verify_final_state()
        result.verify_durable_final_state()

        stores = sum(core.writes + core.rmws
                     for core in result.stats.per_core)
        assert 0 < len(result.trace.written()) <= stores, mechanism

        nvm = result.nvm
        log = nvm.persist_log()
        since = None
        for prefix in sorted({0, len(log) // 3, len(log)}):
            since = nvm.image_after_prefix(prefix, since=since)
            fresh = nvm.image_after_prefix(prefix)
            for crash in (since, fresh):
                assert crash.baseline is image, mechanism
                assert set(crash.overlay) == _carried(log, prefix)
    assert image == before
    clear_setup_cache()


def test_service_report_leaves_the_prototype_image():
    spec = KVServiceSpec(structure="hashmap", num_threads=4,
                         initial_size=64, requests_per_thread=12, seed=1)
    clear_setup_cache()
    _proto, image, _walks = _setup_prototype(spec, CONFIG)
    before = dict(image)
    for mechanism in ("sb", "bb", "lrp"):
        observer = Observer(spans=True)
        result = simulate(spec, mechanism, CONFIG, observer=observer)
        payload = slo.service_report(result, observer.spans,
                                     num_crash_points=4)
        assert payload["recovery"]["attempts"] == 4
    assert image == before
    clear_setup_cache()


def test_changes_from_outside_the_log_leave_the_baseline():
    spec = WorkloadSpec(structure="hashmap", num_threads=4,
                        initial_size=16, ops_per_thread=4, seed=2)
    clear_setup_cache()
    result = simulate(spec, "lrp", CONFIG)
    image = result.nvm.image_after_prefix(0)
    baseline = image.baseline
    before = dict(baseline)
    addr = next(iter(baseline))
    image[addr] = -1
    assert image[addr] == -1 and baseline[addr] == before[addr]
    del image[addr]
    assert addr not in image and len(image) == len(before) - 1
    assert baseline == before
    assert result.nvm.image_after_prefix(0).copy() == before
    clear_setup_cache()


def test_second_install_merges_without_writing_the_shared_image():
    shared = {0x8: 1, 0x10: 2}
    machine = Machine(CONFIG, "lrp")
    machine.install_initial_state(shared, share=True, walks={})
    machine.install_initial_state({0x10: 3, 0x18: 4}, share=True,
                                  walks={})
    assert shared == {0x8: 1, 0x10: 2}
    merged = {0x8: 1, 0x10: 3, 0x18: 4}
    assert machine.trace.memory_snapshot() == merged
    assert machine.nvm.baseline_image() == merged
    # The store belongs to the adopted dict, not to the merged copy.
    assert machine.nvm.image_after_prefix(0).baseline_walks is None
