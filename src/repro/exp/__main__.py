"""``python -m repro.exp cache {stats,prune}`` — result-cache hygiene.

``stats`` prints the entry count, total bytes and the hit rate
accumulated since the previous ``stats`` call (runners append their
per-batch counters to a sidecar; printing resets the window).
``prune`` plans deletions by age and/or size budget — a dry run by
default, ``--apply`` to actually unlink.

The runner's own contracts (serial, pooled and cached runs
bit-identical; a killed run resumes from the cache) are pinned by
``tests/test_exp_runner.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.exp.cache import (ResultCache, execute_prune, plan_prune,
                             read_stats_since_marker, write_stats_marker)
from repro.exp.runner import run_cli


def _parse_duration(text: str) -> float:
    """``"7d"`` / ``"12h"`` / ``"30m"`` / ``"90s"`` / plain seconds."""
    text = text.strip().lower()
    scale = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    try:
        if text and text[-1] in scale:
            return float(text[:-1]) * scale[text[-1]]
        return float(text)
    except ValueError:
        raise ValueError(f"--older-than: not a duration: {text!r} "
                         "(e.g. 7d, 12h, 30m, 90s)") from None


def _parse_size(text: str) -> int:
    """``"500M"`` / ``"2G"`` / ``"64K"`` / plain bytes."""
    text = text.strip().upper()
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    try:
        if text and text[-1] in scale:
            return int(float(text[:-1]) * scale[text[-1]])
        return int(text)
    except ValueError:
        raise ValueError(f"--max-bytes: not a size: {text!r} "
                         "(e.g. 500M, 2G, 64K)") from None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exp",
        description="Result-cache statistics and hygiene.")
    commands = parser.add_subparsers(dest="command")
    cache_parser = commands.add_parser(
        "cache", help="result-cache statistics and hygiene")
    actions = cache_parser.add_subparsers(dest="action")

    stats = actions.add_parser(
        "stats", help="entries, bytes, hit rate since last stats")
    stats.add_argument("--dir", default=None, metavar="DIR",
                       help="cache directory (default: "
                            "$REPRO_EXP_CACHE_DIR or ~/.cache/repro-exp)")
    stats.add_argument("--keep-window", action="store_true",
                       help="do not reset the since-last-stats window")

    prune = actions.add_parser(
        "prune", help="delete old entries (dry-run unless --apply)")
    prune.add_argument("--dir", default=None, metavar="DIR",
                       help="cache directory (default: "
                            "$REPRO_EXP_CACHE_DIR or ~/.cache/repro-exp)")
    prune.add_argument("--older-than", default=None, metavar="AGE",
                       help="drop entries older than AGE "
                            "(e.g. 7d, 12h, 900s)")
    prune.add_argument("--max-bytes", default=None, metavar="SIZE",
                       help="evict oldest-first down to SIZE "
                            "(e.g. 500M, 2G)")
    prune.add_argument("--apply", action="store_true",
                       help="actually delete (default is a dry run)")

    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    if args.action is None:
        cache_parser.print_help()
        return 2
    cache = ResultCache(args.dir) if args.dir else ResultCache()

    if args.action == "stats":
        window = read_stats_since_marker(cache.stats_path)
        payload = {
            "dir": str(cache.root),
            "entries": cache.entry_count(),
            "bytes": cache.total_bytes(),
            "since_last_stats": window,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        if not args.keep_window:
            write_stats_marker(cache.stats_path)
        return 0

    if args.older_than is None and args.max_bytes is None:
        print("prune: nothing to do — give --older-than and/or "
              "--max-bytes", file=sys.stderr)
        return 2
    victims = plan_prune(
        cache,
        older_than_seconds=(_parse_duration(args.older_than)
                            if args.older_than is not None else None),
        max_bytes=(_parse_size(args.max_bytes)
                   if args.max_bytes is not None else None))
    total = sum(size for _path, size in victims)
    if not args.apply:
        print(f"prune (dry run): would delete {len(victims)} "
              f"entr{'y' if len(victims) == 1 else 'ies'} "
              f"({total} bytes) from {cache.root} — rerun with "
              "--apply to delete")
        return 0
    removed, freed = execute_prune(victims)
    print(f"prune: deleted {removed} "
          f"entr{'y' if removed == 1 else 'ies'} ({freed} bytes) "
          f"from {cache.root}")
    return 0


if __name__ == "__main__":
    run_cli(main, "repro.exp")
