"""Collapsed-stack flamegraphs from provenance captures.

Output is Brendan Gregg's *folded* format — one stack per line,
``frame;frame;... value`` — directly loadable by ``flamegraph.pl`` and
speedscope. Two views over one serialized
:class:`~repro.obs.provenance.ProvenanceTracker` dump:

* ``stalls`` (the default): value = persist-stall **cycles**, stacks
  ``site;reason;mechanism``. The per-site totals sum exactly to
  ``RunStats.persist_stall_cycles`` (same single charge point,
  ``PersistencyMechanism._charge_stall``) — pinned by
  ``tests/test_provenance.py``.
* ``persists``: value = persist **count**, stacks
  ``site;trigger;mechanism`` — where the writebacks come from and why
  they were triggered, whether or not anyone stalled on them.

Site ids never contain ``;`` (they use dots and dashes), so the frame
separator is unambiguous.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.provenance import persist_entries

#: The two supported flamegraph views.
MODES = ("stalls", "persists")


def collapse_stacks(data: Dict[str, object],
                    mode: str = "stalls") -> Dict[str, int]:
    """Fold a provenance dump into ``stack -> value``.

    Stacks are rooted at the *site* so sibling sites sort together in
    the rendered graph; the trigger/reason and mechanism frames nest
    underneath.
    """
    if mode not in MODES:
        raise ValueError(
            f"unknown flame mode {mode!r} (expected one of {MODES})")
    mechanism = data.get("mechanism", "?")
    folds: Dict[str, int] = {}
    if mode == "stalls":
        for site, reason, cycles, _count in data.get("stalls", []):
            stack = f"{site};{reason};{mechanism}"
            folds[stack] = folds.get(stack, 0) + cycles
    else:
        for entry in persist_entries(data):
            stack = f"{entry['site']};{entry['trigger']};{mechanism}"
            folds[stack] = folds.get(stack, 0) + 1
    return folds


def write_collapsed(folds: Dict[str, int], path: str) -> None:
    """Write folds in collapsed-stack format (sorted for stable diffs)."""
    with open(path, "w") as handle:
        for stack in sorted(folds):
            handle.write(f"{stack} {folds[stack]}\n")


def total(folds: Dict[str, int]) -> int:
    return sum(folds.values())


def by_site(folds: Dict[str, int]) -> Dict[str, int]:
    """Aggregate folds to their root (site) frame."""
    sites: Dict[str, int] = {}
    for stack, value in folds.items():
        site = stack.split(";", 1)[0]
        sites[site] = sites.get(site, 0) + value
    return sites


def top_rows(folds: Dict[str, int],
             limit: int = 15) -> List[Tuple[str, int, float]]:
    """The heaviest stacks: (stack, value, share-of-total)."""
    grand = total(folds)
    ranked = sorted(folds.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        (stack, value, (value / grand) if grand else 0.0)
        for stack, value in ranked[:limit]
    ]


def render_table(data: Dict[str, object], mode: str = "stalls",
                 limit: int = 15) -> str:
    """ASCII top-N table of the flamegraph, with the grand total."""
    folds = collapse_stacks(data, mode)
    unit = "cycles" if mode == "stalls" else "persists"
    lines = [
        f"flame view: {mode} · mechanism: {data.get('mechanism', '?')} "
        f"· total {total(folds)} {unit}",
        f"{'value':>12}  {'share':>6}  stack (site;trigger;mechanism)",
    ]
    for stack, value, share in top_rows(folds, limit):
        lines.append(f"{value:>12}  {share:>6.1%}  {stack}")
    if not folds:
        lines.append(f"{'-':>12}  {'-':>6}  (no {unit} recorded)")
    remaining = len(folds) - limit
    if remaining > 0:
        lines.append(f"... {remaining} more stacks (see the collapsed "
                     "output for the full set)")
    return "\n".join(lines)
