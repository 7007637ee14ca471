"""Exact pins of the pre-populated images the structure builders make.

Every simulation starts from ``build_initial``'s image of its
structure (Section 6.1's initial size), installed as both memory and
the NVM baseline, so a builder that moves one word, one node address
or the allocator's end pointer changes every run that follows. Each
entry is built the way :func:`repro.core.simulator.simulate` builds
it (``make_structure`` then ``build_initial_memory``) and pinned by:

* ``words`` — the image's word count;
* ``bytes_allocated`` — where the allocator's bump pointer ends;
* ``layout`` — the structure's address fields (head pointers, bucket
  base, sentinels);
* ``digest`` — a sha256 over those and ``sorted(memory.items())``.

Sorted items, not insertion order: the order a builder writes its
words in is not part of the image.

``small`` covers every structure at the sizes in ``SIZES`` under the
seeds in ``SEEDS`` (the NM tree's and skip list's layouts have their
edge cases at small odd sizes); ``large`` the 64K-element quick cells
of Figure 5 at the figures' seed. ``tests/test_prepopulate_pins.py``
compares both.

Regenerate (only when a layout is meant to change) with::

    PYTHONPATH=src python -m tests.prepopulate_pins
"""

import hashlib
import json
from pathlib import Path

from repro.bench.configs import SCALED_CONFIG
from repro.lfds import STRUCTURES
from repro.workloads.harness import (
    WorkloadSpec,
    build_initial_memory,
    make_structure,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "prepopulate_pins.json"

#: The address fields each structure's operations start from.
LAYOUT = {
    "linkedlist": ("head_ptr",),
    "hashmap": ("buckets_base", "num_buckets", "_stride"),
    "bstree_tomb": ("root_ptr",),
    "bstree": ("R", "S"),
    "skiplist": ("head", "max_level"),
    "queue": ("head_ptr", "tail_ptr", "_initial_dummy"),
}

SIZES = (0, 1, 2, 3, 5, 64, 1000)
SEEDS = (1, 42)
#: The 64K-element quick cells (``repro.bench.configs``'s quick
#: scale), at ``figure_spec``'s default seed.
LARGE = ("hashmap", "bstree", "skiplist")
LARGE_SIZE = 65536
LARGE_SEED = 1


def image_pin(structure: str, size: int, seed: int) -> dict:
    """The pin of one pre-populated image."""
    spec = WorkloadSpec(structure=structure, initial_size=size, seed=seed)
    lfd = make_structure(spec, SCALED_CONFIG)
    memory = build_initial_memory(spec, lfd)
    layout = {name: getattr(lfd, name) for name in LAYOUT[structure]}
    bytes_allocated = lfd.allocator.bytes_allocated
    payload = json.dumps([layout, bytes_allocated, sorted(memory.items())],
                         separators=(",", ":"), sort_keys=True)
    return {
        "words": len(memory),
        "bytes_allocated": bytes_allocated,
        "layout": layout,
        "digest": hashlib.sha256(payload.encode("ascii")).hexdigest(),
    }


def compute_small(structure: str) -> dict:
    """Pins of ``structure`` at every size and seed, keyed
    ``"<size>/<seed>"``."""
    return {f"{size}/{seed}": image_pin(structure, size, seed)
            for seed in SEEDS for size in SIZES}


def compute_large(structure: str) -> dict:
    return image_pin(structure, LARGE_SIZE, LARGE_SEED)


def golden() -> dict:
    with GOLDEN.open() as handle:
        return json.load(handle)


def main() -> None:
    pins = {
        "small": {name: compute_small(name) for name in sorted(STRUCTURES)},
        "large": {name: compute_large(name) for name in LARGE},
    }
    GOLDEN.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    main()
