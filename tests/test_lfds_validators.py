"""Validator sensitivity tests for BST, NM tree, hash map, skip list
and queue.

Each structural recovery validator must accept clean images and
pre-populated builds, and must detect seeded corruptions of the kind a
too-weak persistency model can produce (reachable-but-uninitialized
nodes, broken ordering, dangling/overtaking pointers, cycles).
"""

import pytest

from repro.lfds.bst import (
    ALIVE,
    KEY as B_KEY,
    LEFT,
    RIGHT,
    BinarySearchTree,
)
from repro.lfds.harris import KEY as H_KEY, NEXT as H_NEXT
from repro.lfds.hashmap import HashMap
from repro.lfds.nmbst import (
    KEY as NM_KEY,
    LEFT as NM_LEFT,
    RIGHT as NM_RIGHT,
    VALUE as NM_VALUE,
    NMTree,
)
from repro.lfds.queue import NEXT as Q_NEXT, VALUE, MichaelScottQueue
from repro.lfds.skiplist import HEADER_WORDS, SkipList
from repro.lfds.base import NULL, field, mark
from repro.memory.address import HeapAllocator


def _alloc():
    return HeapAllocator(line_bytes=64)


class TestBSTValidator:
    def _tree(self, keys=(5, 2, 8, 1, 9)):
        tree = BinarySearchTree(_alloc())
        memory = {}
        tree.build_initial(keys, memory)
        return tree, memory

    def test_clean_build_passes(self):
        tree, memory = self._tree()
        report = tree.validate_image(memory)
        assert report.ok
        assert report.live_keys == {5, 2, 8, 1, 9}
        assert report.reachable_nodes == 5

    def test_empty_tree_passes(self):
        tree, memory = self._tree(keys=())
        assert tree.validate_image(memory).ok

    def test_uninitialized_child_detected(self):
        tree, memory = self._tree()
        root = memory[tree.root_ptr]
        memory[field(root, LEFT)] = 0x666000   # ghost node
        report = tree.validate_image(memory)
        assert not report.ok
        assert "never persisted" in report.problems[0]

    def test_bst_ordering_violation_detected(self):
        tree, memory = self._tree()
        root = memory[tree.root_ptr]
        left = memory[field(root, LEFT)]
        memory[field(left, B_KEY)] = 99   # > root key on the left
        report = tree.validate_image(memory)
        assert not report.ok
        assert any("ordering" in p for p in report.problems)

    def test_tombstone_not_live(self):
        tree, memory = self._tree()
        root = memory[tree.root_ptr]
        memory[field(root, ALIVE)] = 0
        report = tree.validate_image(memory)
        assert report.ok
        assert 5 not in report.live_keys

    def test_bad_alive_word_detected(self):
        tree, memory = self._tree()
        root = memory[tree.root_ptr]
        memory[field(root, ALIVE)] = 7
        assert not tree.validate_image(memory).ok

    def test_cycle_detected(self):
        tree, memory = self._tree()
        root = memory[tree.root_ptr]
        right = memory[field(root, RIGHT)]
        memory[field(right, RIGHT)] = root
        assert not tree.validate_image(memory).ok

    def test_missing_root_pointer_detected(self):
        tree, memory = self._tree()
        del memory[tree.root_ptr]
        assert not tree.validate_image(memory).ok


class TestNMTreeValidator:
    def _tree(self, keys=(1, 2, 3, 4)):
        tree = NMTree(_alloc())
        memory = {}
        tree.build_initial(keys, memory)
        return tree, memory

    def _leftmost_leaf(self, tree, memory):
        """(parent, leaf) at the bottom of the left spine under S."""
        parent, node = tree.S, memory[field(tree.S, NM_LEFT)]
        while memory[field(node, NM_LEFT)] != NULL:
            parent, node = node, memory[field(node, NM_LEFT)]
        return parent, node

    def test_clean_build_passes(self):
        tree, memory = self._tree()
        report = tree.validate_image(memory)
        assert report.ok
        assert report.live_keys == {1, 2, 3, 4}

    def test_internal_node_with_one_child_detected(self):
        tree, memory = self._tree()
        root = memory[field(tree.S, NM_LEFT)]
        memory[field(root, NM_RIGHT)] = NULL
        report = tree.validate_image(memory)
        assert not report.ok
        assert report.problems == [
            f"internal node {root:#x} has exactly one child"]

    def test_leaf_value_never_persisted_detected(self):
        tree, memory = self._tree()
        _parent, leaf = self._leftmost_leaf(tree, memory)
        del memory[field(leaf, NM_VALUE)]
        report = tree.validate_image(memory)
        assert not report.ok
        assert report.problems == [f"leaf {leaf:#x} value never persisted"]

    def test_key_outside_bounds_detected(self):
        tree, memory = self._tree()
        parent, leaf = self._leftmost_leaf(tree, memory)
        parent_key = memory[field(parent, NM_KEY)]
        memory[field(leaf, NM_KEY)] = 99   # left of parent, yet larger
        report = tree.validate_image(memory)
        assert not report.ok
        assert report.problems[0].startswith(
            f"BST ordering violated at {leaf:#x}: key 99 outside ")
        assert report.problems[0].endswith(f", {parent_key - 1}]")

    def test_right_edge_self_loop_stops_within_image_size(self):
        tree, memory = self._tree()
        root = memory[field(tree.S, NM_LEFT)]
        memory[field(root, NM_RIGHT)] = root   # key stays in [key, high]
        report = tree.validate_image(memory)
        assert not report.ok
        assert report.problems == ["tree exceeds node bound (cycle?)"]
        assert report.reachable_nodes <= len(memory) + 1


class TestHashMapValidator:
    """Four buckets over keys 0..11: bucket 1 chains 1 -> 5 -> 9."""

    def _map(self):
        hashmap = HashMap(_alloc(), num_buckets=4)
        memory = {}
        hashmap.build_initial(range(12), memory)
        return hashmap, memory

    def _chain(self, hashmap, memory, bucket):
        nodes, node = [], memory[hashmap.bucket_ptr(bucket)]
        while node != NULL:
            nodes.append(node)
            node = memory[field(node, H_NEXT)]
        return nodes

    def test_clean_build_passes(self):
        hashmap, memory = self._map()
        report = hashmap.validate_image(memory)
        assert report.ok
        assert report.live_keys == set(range(12))
        assert report.reachable_nodes == 12

    def test_missing_bucket_head_detected(self):
        hashmap, memory = self._map()
        head = hashmap.bucket_ptr(2)
        del memory[head]
        report = hashmap.validate_image(memory)
        assert not report.ok
        assert report.problems == [
            f"bucket 2: head pointer {head:#x} not in NVM"]
        assert report.live_keys == set(range(12)) - {2, 6, 10}

    def test_key_in_wrong_bucket_detected(self):
        hashmap, memory = self._map()
        last = self._chain(hashmap, memory, 1)[-1]
        memory[field(last, H_KEY)] = 10   # still sorted, hashes to 2
        report = hashmap.validate_image(memory)
        assert not report.ok
        assert report.problems == ["bucket 1: key 10 hashed elsewhere"]

    def test_dangling_link_detected(self):
        """A bucket linked to a node whose fields never persisted
        (Fig 1e)."""
        hashmap, memory = self._map()
        ghost = 0x9990000
        memory[hashmap.bucket_ptr(3)] = ghost
        report = hashmap.validate_image(memory)
        assert not report.ok
        assert report.problems == [
            f"bucket 3: node {ghost:#x} is linked into the chain but its "
            "fields never persisted (inconsistent cut)"]

    def test_ordering_violation_detected(self):
        hashmap, memory = self._map()
        first, second, _third = self._chain(hashmap, memory, 1)
        memory[field(first, H_KEY)], memory[field(second, H_KEY)] = 5, 1
        report = hashmap.validate_image(memory)
        assert not report.ok
        assert report.problems == [
            f"bucket 1: chain ordering violated at node {second:#x}: "
            "1 after 5"]

    def test_bucket_cycle_stops_within_one_lap(self):
        hashmap, memory = self._map()
        first, _second, third = self._chain(hashmap, memory, 1)
        memory[field(third, H_NEXT)] = first   # 1 -> 5 -> 9 -> 1 ...
        report = hashmap.validate_image(memory)
        assert not report.ok
        assert report.problems == [
            f"bucket 1: chain ordering violated at node {first:#x}: "
            "1 after 9"]
        assert report.reachable_nodes == 12 + 1
        assert report.live_keys == set(range(12))


class TestSkipListValidator:
    def _list(self, keys=(3, 7, 11, 20)):
        skiplist = SkipList(_alloc())
        memory = {}
        skiplist.build_initial(keys, memory)
        return skiplist, memory

    def test_clean_build_passes(self):
        skiplist, memory = self._list()
        report = skiplist.validate_image(memory)
        assert report.ok
        assert report.live_keys == {3, 7, 11, 20}

    def test_empty_passes(self):
        skiplist, memory = self._list(keys=())
        assert skiplist.validate_image(memory).ok

    def test_upper_levels_form_subchains(self):
        skiplist, memory = self._list(keys=tuple(range(64)))
        assert skiplist.validate_image(memory).ok

    def test_uninitialized_node_detected(self):
        skiplist, memory = self._list()
        first = memory[skiplist._next_addr(skiplist.head, 0)]
        memory[skiplist._next_addr(skiplist.head, 0)] = 0x777000
        report = skiplist.validate_image(memory)
        assert not report.ok
        assert "never persisted" in report.problems[0]

    def test_level0_ordering_violation_detected(self):
        skiplist, memory = self._list()
        first = memory[skiplist._next_addr(skiplist.head, 0)]
        memory[field(first, 0)] = 1000   # KEY out of order
        assert not skiplist.validate_image(memory).ok

    def test_marked_node_not_live(self):
        skiplist, memory = self._list()
        first = memory[skiplist._next_addr(skiplist.head, 0)]
        link = skiplist._next_addr(first, 0)
        memory[link] = mark(memory[link])
        report = skiplist.validate_image(memory)
        assert report.ok
        assert 3 not in report.live_keys

    def test_missing_head_level_detected(self):
        skiplist, memory = self._list()
        del memory[skiplist._next_addr(skiplist.head, 2)]
        assert not skiplist.validate_image(memory).ok

    def test_level0_cycle_stops_within_one_lap(self):
        skiplist, memory = self._list()
        first = memory[skiplist._next_addr(skiplist.head, 0)]
        last = first
        while memory[skiplist._next_addr(last, 0)] != NULL:
            last = memory[skiplist._next_addr(last, 0)]
        memory[skiplist._next_addr(last, 0)] = first   # cycle
        report = skiplist.validate_image(memory)
        assert not report.ok
        assert report.problems == [
            f"level 0 ordering violated at {first:#x}"]
        assert report.reachable_nodes == 4


class TestQueueValidator:
    def _queue(self, values=(-1, -2, -3)):
        queue = MichaelScottQueue(_alloc())
        memory = {}
        queue.build_initial(values, memory)
        return queue, memory

    def test_clean_build_passes(self):
        queue, memory = self._queue()
        report = queue.validate_image(memory)
        assert report.ok
        assert report.live_keys == {-1, -2, -3}

    def test_empty_queue_passes(self):
        queue, memory = self._queue(values=())
        assert queue.validate_image(memory).ok

    def test_uninitialized_node_detected(self):
        queue, memory = self._queue()
        head = memory[queue.head_ptr]
        memory[field(head, Q_NEXT)] = 0x888000
        report = queue.validate_image(memory)
        assert not report.ok
        assert "never persisted" in report.problems[0]

    def test_tail_overtaking_chain_detected(self):
        queue, memory = self._queue()
        memory[queue.tail_ptr] = 0x999000   # unreachable "node"
        report = queue.validate_image(memory)
        assert not report.ok
        assert any("tail" in p for p in report.problems)

    def test_missing_head_pointer_detected(self):
        queue, memory = self._queue()
        del memory[queue.head_ptr]
        assert not queue.validate_image(memory).ok

    def test_cycle_detected(self):
        queue, memory = self._queue()
        head = memory[queue.head_ptr]
        first = memory[field(head, Q_NEXT)]
        memory[field(first, Q_NEXT)] = head
        memory[queue.tail_ptr] = head
        report = queue.validate_image(memory)
        assert not report.ok
        assert report.problems == ["queue chain exceeds bound (cycle?)"]
        assert report.reachable_nodes <= len(memory) + 1
