"""Crash campaigns through one advancing image, against the full walker.

A campaign over ascending persist-log prefixes advances one crash image
(``image_after_prefix(k, since=image)``), and the hashmap, skip list
and NM tree validate it with walk memos and delta walks. Every report
must equal what a fresh image and the structure's full walker give:
the verdict, the problem texts, the reachable node count and the live
key set. The passing prefix-0 walk of a shared baseline is kept in the
baseline's walk store, and later campaigns over runs of the same setup
prototype start from it instead of walking again.
"""

import copy
import pickle

import pytest

from repro.common.params import MachineConfig
from repro.core.machine import Machine
from repro.core.recovery import exhaustive_crash_test
from repro.core.simulator import clear_setup_cache, simulate
from repro.lfds.base import field
from repro.lfds.harris import KEY as H_KEY, NEXT as H_NEXT
from repro.lfds.hashmap import HashMap
from repro.lfds.nmbst import LEFT as NM_LEFT, RIGHT as NM_RIGHT, NMTree
from repro.lfds.skiplist import HEADER_WORDS, SkipList
from repro.memory.address import HeapAllocator
from repro.memory.nvm import NVMController
from repro.workloads.harness import WorkloadSpec

CONFIG = MachineConfig(num_cores=4, l1_size_bytes=2 * 1024)
MECHANISMS = ("nop", "arp", "sb", "bb", "lrp")
GHOST = 0x666000   # a node address whose words never persisted


def _report(report):
    return (report.ok, report.problems, report.reachable_nodes,
            sorted(report.live_keys or ()))


def _full_walk(structure, image):
    """The full walker's report: a plain dict carries no memo."""
    return _report(structure.validate_image(dict(image)))


def _check_every_prefix(result):
    """Campaign over every prefix of ``result``, checked against fresh
    images and the full walker."""
    nvm = result.nvm
    structure = result.structure
    campaign = exhaustive_crash_test(result)
    assert len(campaign.outcomes) == len(nvm.persist_log()) + 1
    image = None
    for outcome in campaign.outcomes:
        prefix = outcome.prefix_len
        image = nvm.image_after_prefix(prefix, since=image)
        fresh = nvm.image_after_prefix(prefix)
        assert dict(image) == dict(fresh)
        full = _full_walk(structure, fresh)
        assert _report(outcome.report) == full, prefix
        assert _report(structure.validate_image(image)) == full, prefix
        assert _report(structure.validate_image(fresh)) == full, prefix
    # The pre-populated baseline always validates, so one memo, made at
    # prefix 0, served the whole campaign.
    assert image.walk_memos[structure][0] == 0


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("mechanism", MECHANISMS)
@pytest.mark.parametrize("structure", ("hashmap", "bstree", "skiplist"))
def test_every_prefix_matches_fresh_image_and_full_walker(
        structure, mechanism, seed):
    spec = WorkloadSpec(structure=structure, num_threads=4,
                        initial_size=32, ops_per_thread=16, seed=seed)
    _check_every_prefix(simulate(spec, mechanism, CONFIG))


def _count_record_walks(monkeypatch):
    """The prefixes at which memo-recording walks run from now on."""
    prefixes = []
    for klass in (HashMap, NMTree, SkipList):
        def counted(self, image, _record=klass._record_walk):
            prefixes.append(getattr(image, "prefix", None))
            return _record(self, image)
        monkeypatch.setattr(klass, "_record_walk", counted)
    return prefixes


@pytest.mark.parametrize("structure", ("hashmap", "bstree", "skiplist"))
def test_campaigns_over_one_prototype_walk_its_baseline_once(
        structure, monkeypatch):
    clear_setup_cache()
    recorded = _count_record_walks(monkeypatch)
    spec = WorkloadSpec(structure=structure, num_threads=4,
                        initial_size=32, ops_per_thread=16, seed=4)
    for mechanism in MECHANISMS:
        result = simulate(spec, mechanism, CONFIG)
        _check_every_prefix(result)
        # The first campaign walked the baseline; every later one
        # started from its stored walk. (The fresh images at later
        # prefixes walk for themselves.)
        assert recorded.count(0) == 1, mechanism
    # The campaigns only read the stored walk: it still equals a fresh
    # walk of the baseline.
    [stored] = result.nvm.image_after_prefix(0).baseline_walks.values()
    assert stored == result.structure._record_walk(
        result.nvm.baseline_image())
    clear_setup_cache()
    _check_every_prefix(simulate(spec, "lrp", CONFIG))
    assert recorded.count(0) == 2


def _controller(memory, *writes, walks=None):
    """A controller over the baseline ``memory`` whose log persists
    each ``{addr: value}`` of ``writes``, in order. With ``walks`` the
    baseline is shared and carries that walk store."""
    nvm = NVMController(MachineConfig(num_memory_controllers=1))
    nvm.set_baseline_image(memory, share=walks is not None, walks=walks)
    for step, words in enumerate(writes):
        nvm.issue_persist(min(words) & ~63,
                          {addr: (value, step) for addr, value in
                           words.items()}, now=1000 * step)
    return nvm


def _campaign(structure, nvm, memo=True):
    """(campaign report, full-walker report) at every prefix. With
    ``memo``, also checks that the memo made at prefix 0 served every
    later point."""
    image = None
    reports = []
    for prefix in range(len(nvm.persist_log()) + 1):
        image = nvm.image_after_prefix(prefix, since=image)
        reports.append((_report(structure.validate_image(image)),
                        _full_walk(structure, image)))
        if memo:
            assert image.walk_memos[structure][0] == 0
    return reports


def _hashmap():
    """Four buckets over keys 0..11: bucket 1 chains 1 -> 5 -> 9."""
    hashmap = HashMap(HeapAllocator(line_bytes=64), num_buckets=4)
    memory = {}
    hashmap.build_initial(range(12), memory)
    return hashmap, memory


def _skiplist():
    skiplist = SkipList(HeapAllocator(line_bytes=64), max_level=4)
    memory = {}
    skiplist.build_initial(range(0, 40, 3), memory)
    return skiplist, memory


def _nmtree():
    tree = NMTree(HeapAllocator(line_bytes=64))
    memory = {}
    tree.build_initial(range(0, 60, 4), memory)
    return tree, memory


def _chain(memory, head_ptr, next_index):
    nodes, node = [], memory[head_ptr]
    while node:
        nodes.append(node)
        node = memory[field(node, next_index)]
    return nodes


def _ghost_link(name):
    """Its structure, baseline and the link word to point at GHOST."""
    if name == "hashmap":
        hashmap, memory = _hashmap()
        return hashmap, memory, hashmap.bucket_ptr(2)
    if name == "skiplist":
        skiplist, memory = _skiplist()
        first = memory[field(skiplist.head, HEADER_WORDS)]
        return skiplist, memory, field(first, HEADER_WORDS)
    tree, memory = _nmtree()
    root = memory[field(tree.S, NM_LEFT)]
    right = memory[field(root, NM_RIGHT)]
    return tree, memory, field(right, NM_LEFT)


@pytest.mark.parametrize("name", ("hashmap", "skiplist", "bstree"))
def test_written_link_to_missing_fields_reports_as_full_walker(name):
    structure, memory, link = _ghost_link(name)
    nvm = _controller(memory, {link: GHOST}, {link: memory[link]})
    (clean, _), (broken, full), (repaired, full_repaired) = \
        _campaign(structure, nvm)
    assert clean[0] and not broken[0]
    assert any(f"{GHOST:#x}" in problem for problem in broken[1])
    assert broken == full
    assert repaired == full_repaired == clean


def test_nm_tree_written_link_to_leaf_without_value():
    tree, memory, link = _ghost_link("bstree")
    leaf = 0x700000
    # The key of the node it replaces, with no value word.
    memory.update({leaf: memory[memory[link]], leaf + 16: 0, leaf + 24: 0})
    nvm = _controller(memory, {link: leaf})
    (clean, _), (broken, full) = _campaign(tree, nvm)
    assert broken == full
    assert broken[1] == [f"leaf {leaf:#x} value never persisted"]


def test_nm_tree_right_edge_self_loop_reports_as_full_walker():
    tree, memory = _nmtree()
    root = memory[field(tree.S, NM_LEFT)]
    right = field(root, NM_RIGHT)
    nvm = _controller(memory, {right: root}, {right: memory[right]})
    (clean, _), (looped, full), (repaired, _) = _campaign(tree, nvm)
    assert looped == full
    assert looped[1] == ["tree exceeds node bound (cycle?)"]
    assert repaired == clean


def test_nm_tree_clean_subtree_moved_outside_its_bounds():
    tree, memory = _nmtree()
    root = memory[field(tree.S, NM_LEFT)]
    left = field(root, NM_LEFT)
    # Root's right subtree, untouched, now also hangs on its left.
    nvm = _controller(memory, {left: memory[field(root, NM_RIGHT)]})
    (clean, _), (moved, full) = _campaign(tree, nvm)
    assert moved == full
    assert moved[1][0].startswith("BST ordering violated")


def test_skiplist_link_back_into_a_clean_run():
    skiplist, memory = _skiplist()
    nodes = _chain(memory, field(skiplist.head, HEADER_WORDS),
                   HEADER_WORDS)
    # head -> n4 -> n2 -> n3 -> end: n2 starts an untouched run with a
    # smaller key than n4's.
    nvm = _controller(memory, {
        field(skiplist.head, HEADER_WORDS): nodes[4],
        field(nodes[4], HEADER_WORDS): nodes[2],
        field(nodes[3], HEADER_WORDS): 0,
    })
    (clean, _), (looped, full) = _campaign(skiplist, nvm)
    assert looped == full
    assert looped[1] == [f"level 0 ordering violated at {nodes[2]:#x}"]


def test_hashmap_key_in_wrong_bucket_reports_as_full_walker():
    hashmap, memory = _hashmap()
    last = _chain(memory, hashmap.bucket_ptr(1), H_NEXT)[-1]
    key = field(last, H_KEY)
    nvm = _controller(memory, {key: 10}, {key: memory[key]})
    (clean, _), (misplaced, full), (repaired, _) = _campaign(hashmap, nvm)
    assert misplaced == full
    assert misplaced[1] == ["bucket 1: key 10 hashed elsewhere"]
    assert repaired == clean


def test_hashmap_node_on_two_chains():
    hashmap, memory = _hashmap()
    shared = 0x700000
    memory.update({shared: 102, shared + 8: 1, shared + 16: 1})  # marked
    for bucket in (1, 2):
        tail = _chain(memory, hashmap.bucket_ptr(bucket), H_NEXT)[-1]
        memory[field(tail, H_NEXT)] = shared
    # Unmarking makes key 102 live: right for bucket 2, not bucket 1.
    nvm = _controller(memory, {shared + 16: 0})
    (clean, _), (unmarked, full) = _campaign(hashmap, nvm, memo=False)
    assert clean[0]
    assert unmarked == full
    assert unmarked[1] == ["bucket 1: key 102 hashed elsewhere"]


def test_nm_tree_leaves_reached_twice():
    tree, memory = _nmtree()
    leaves = {}
    stack = [memory[field(tree.S, NM_LEFT)]]
    while stack:
        node = stack.pop()
        if memory[field(node, NM_LEFT)]:
            stack += [memory[field(node, NM_LEFT)],
                      memory[field(node, NM_RIGHT)]]
        else:
            leaves[memory[node]] = node
    # R's right edge leads to a second parent of leaves 20 and 24.
    extra = 0x700000
    memory.update({extra: 24, extra + 8: 0, extra + 16: leaves[20],
                   extra + 24: leaves[24],
                   field(tree.R, NM_RIGHT): extra})
    nvm = _controller(memory, {leaves[20]: 21})
    (clean, _), (rekeyed, full) = _campaign(tree, nvm, memo=False)
    assert clean[0] and rekeyed[0]
    assert rekeyed == full
    assert 21 in rekeyed[3] and 20 not in rekeyed[3]


def test_second_structure_keeps_its_own_memo():
    allocator = HeapAllocator(line_bytes=64)
    first = HashMap(allocator, num_buckets=4)
    second = HashMap(allocator, num_buckets=2)
    memory = {}
    first.build_initial(range(8), memory)
    second.build_initial((100, 101, 102), memory)
    head = second.bucket_ptr(0)
    nvm = _controller(memory, {head: 0})   # empties second's bucket 0
    image = nvm.image_after_prefix(0)
    assert first.validate_image(image).live_keys == set(range(8))
    assert second.validate_image(image).live_keys == {100, 101, 102}
    assert set(image.walk_memos) == {first, second}
    image = nvm.image_after_prefix(1, since=image)
    for structure in (first, second):
        assert (_report(structure.validate_image(image))
                == _full_walk(structure, image))
    assert second.validate_image(image).live_keys == {101}


def test_change_outside_the_log_drops_the_memos():
    hashmap, memory = _hashmap()
    nvm = _controller(memory)
    image = nvm.image_after_prefix(0)
    assert hashmap.validate_image(image).ok
    assert image.walk_memos
    image[hashmap.bucket_ptr(3)] = GHOST
    assert not image.walk_memos
    assert _report(hashmap.validate_image(image)) == \
        _full_walk(hashmap, image)


def test_copies_are_plain_dicts():
    hashmap, memory = _hashmap()
    image = _controller(memory).image_after_prefix(0)
    assert hashmap.validate_image(image).ok
    for copied in (copy.copy(image), copy.deepcopy(image),
                   pickle.loads(pickle.dumps(image))):
        assert type(copied) is dict
        assert copied == memory


def test_since_must_be_this_controllers_image_at_a_smaller_prefix():
    hashmap, memory = _hashmap()
    head = hashmap.bucket_ptr(0)
    nvm = _controller(memory, {head: 0}, {head: memory[head]})
    other = _controller(memory, {head: 0}, {head: memory[head]})
    later = nvm.image_after_prefix(2)
    with pytest.raises(ValueError):
        nvm.image_after_prefix(1, since=later)
    with pytest.raises(ValueError):
        nvm.image_after_prefix(1, since=other.image_after_prefix(0))
    with pytest.raises(ValueError):
        nvm.image_after_prefix(1, since=dict(memory))
    stale = nvm.image_after_prefix(0)
    nvm.issue_persist(head & ~63, {head: (0, 9)}, now=9000)
    with pytest.raises(ValueError):
        nvm.image_after_prefix(1, since=stale)
    stale = nvm.image_after_prefix(0)
    nvm.set_baseline_image(memory)
    with pytest.raises(ValueError):
        nvm.image_after_prefix(1, since=stale)
    image = nvm.image_after_prefix(0)
    assert nvm.image_after_prefix(2, since=image) is image
    assert image == nvm.image_after_prefix(2)


def test_stored_walk_serves_a_copy_of_the_structure():
    hashmap, memory = _hashmap()
    store = {}
    nvm = _controller(memory, walks=store)
    first = hashmap.validate_image(nvm.image_after_prefix(0))
    assert first.ok and len(store) == 1
    walk = next(iter(store.values()))
    # A live set of its own: changing it leaves later reports intact.
    first.live_keys.clear()
    twin = copy.deepcopy(hashmap)
    image = nvm.image_after_prefix(0)
    assert _report(twin.validate_image(image)) == \
        _full_walk(hashmap, memory)
    assert image.walk_memos[twin] == (0, walk[0])
    assert list(store.values()) == [walk]
    assert hashmap.validate_image(nvm.image_after_prefix(0)).live_keys \
        == set(range(12))


def test_another_layout_over_the_same_baseline_walks_for_itself(
        monkeypatch):
    hashmap, memory = _hashmap()
    store = {}
    nvm = _controller(memory, walks=store)
    assert hashmap.validate_image(nvm.image_after_prefix(0)).ok
    recorded = _count_record_walks(monkeypatch)
    # The same bucket array read as its first two buckets.
    halved = copy.deepcopy(hashmap)
    halved.num_buckets = 2
    report = halved.validate_image(nvm.image_after_prefix(0))
    assert _report(report) == _full_walk(halved, memory)
    assert report.live_keys == {0, 1, 4, 5, 8, 9}
    assert recorded == [0] and len(store) == 2
    # Read as three buckets, bucket 1's key 5 hashes elsewhere; a walk
    # that fails stores nothing.
    thirds = copy.deepcopy(hashmap)
    thirds.num_buckets = 3
    for _ in range(2):
        report = thirds.validate_image(nvm.image_after_prefix(0))
        assert _report(report) == _full_walk(thirds, memory)
        assert not report.ok
    assert recorded == [0, 0, 0] and len(store) == 2


@pytest.mark.parametrize("name", ("hashmap", "skiplist", "bstree"))
def test_failing_baseline_stores_no_walk(name, monkeypatch):
    structure, memory, link = _ghost_link(name)
    memory[link] = GHOST
    store = {}
    nvm = _controller(memory, walks=store)
    recorded = _count_record_walks(monkeypatch)
    for _ in range(2):
        report = structure.validate_image(nvm.image_after_prefix(0))
        assert _report(report) == _full_walk(structure, memory)
        assert not report.ok
    assert recorded == [0, 0] and store == {}


def test_image_changed_outside_the_controller_leaves_the_store(
        monkeypatch):
    hashmap, memory = _hashmap()
    store = {}
    nvm = _controller(memory, walks=store)
    assert hashmap.validate_image(nvm.image_after_prefix(0)).ok
    stored = dict(store)
    recorded = _count_record_walks(monkeypatch)
    # Broken and then clean again: it must not read the stored walk of
    # the clean baseline while broken, nor store its own walk after.
    image = nvm.image_after_prefix(0)
    image[hashmap.bucket_ptr(3)] = GHOST
    broken = hashmap.validate_image(image)
    assert _report(broken) == _full_walk(hashmap, image)
    assert not broken.ok and image.baseline_walks is None
    image[hashmap.bucket_ptr(3)] = memory[hashmap.bucket_ptr(3)]
    assert copy.deepcopy(hashmap).validate_image(image).ok
    assert recorded == [0, 0]
    assert store == stored


def test_new_baselines_have_no_store():
    memory = _hashmap()[1]
    machine = Machine(CONFIG, "lrp")
    machine.install_initial_state(memory)
    assert machine.nvm.image_after_prefix(0).baseline_walks is None
    nvm = NVMController(CONFIG)
    nvm.set_baseline_image(memory, walks={})   # copied: a new baseline
    assert nvm.image_after_prefix(0).baseline_walks is None
    machine = Machine(CONFIG, "lrp")
    machine.install_initial_state(memory, share=True, walks={})
    assert machine.nvm.image_after_prefix(0).baseline_walks == {}


def test_clear_setup_cache_drops_the_stores():
    spec = WorkloadSpec(structure="hashmap", num_threads=4,
                        initial_size=32, ops_per_thread=4, seed=5)
    clear_setup_cache()
    first = simulate(spec, "sb", CONFIG).nvm.image_after_prefix(0)
    assert first.baseline_walks == {}
    again = simulate(spec, "bb", CONFIG).nvm.image_after_prefix(0)
    assert again.baseline_walks is first.baseline_walks
    clear_setup_cache()
    fresh = simulate(spec, "bb", CONFIG).nvm.image_after_prefix(0)
    assert fresh.baseline_walks == {}
    assert fresh.baseline_walks is not first.baseline_walks
