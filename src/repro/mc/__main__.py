"""``python -m repro.mc`` — exhaustive small-scope model checking.

Two modes:

* **check** (default): model-check one litmus program (or ``all``)
  under the paper's mechanisms. Exit code enforces the Figure-1
  contract — RP-enforcing mechanisms must be proven clean over every
  Mazurkiewicz trace, ARP/NOP must yield a confirmed violating crash
  state (written as a replayable repro file with ``--out``).
* ``--list``: show the canned litmus programs.

Bad program or mechanism names and unwritable ``--out`` paths exit 2
with one ``repro.mc: error: ...`` line, the shape every CLI uses;
Ctrl-C prints one line and exits 130.

``tests/test_mc.py`` pins the construction: DPOR explores every trace
class of every suite program exactly once (class sets identical to
brute-force enumeration, strictly fewer schedules than
``count_interleavings``), verdicts match brute force, the Px86-derived
axioms agree with ``rp_model`` on every explored trace, the DPOR-only
``chain4`` keeps its contract, and every ARP/NOP witness round-trips
through the fuzzer's repro-file replay.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.exp.runner import run_cli
from repro.mc.checker import DEFAULT_MECHANISMS, ProgramCheck, \
    check_program
from repro.mc.programs import PROGRAMS


def _print_check(check: ProgramCheck, verbose: bool = True) -> None:
    stats = check.stats
    print(f"{check.program}: {stats.schedules_explored} traces / "
          f"{stats.interleavings} interleavings "
          f"(reduction {stats.reduction:.1f}x, method={check.method}, "
          f"hb={check.hb_mode})")
    for verdict in check.verdicts.values():
        print(f"  {verdict.summary()}")
        if verbose and verdict.problems:
            for line in verdict.problems[:1]:
                print(f"    {line}")
        if verdict.repro_path:
            print(f"    repro: {verdict.repro_path}")
    if check.px86_traces:
        print(f"  px86 cross-check: {check.px86_agreements}/"
              f"{check.px86_traces} traces agree; prefix cuts clean on "
              f"{check.prefix_cuts_clean}/{check.prefix_traces}")


def _check_main(args) -> int:
    names = list(PROGRAMS) if args.program == "all" else [args.program]
    mechanisms = DEFAULT_MECHANISMS if args.mechanism == "all" \
        else (args.mechanism,)
    ok = True
    for name in names:
        check = check_program(name, mechanisms=mechanisms,
                              method=args.method, hb_mode=args.hb_mode,
                              out_dir=args.out)
        _print_check(check, verbose=not args.quiet)
        ok = ok and check.contract_ok
    print(f"\ncontract {'HOLDS' if ok else 'VIOLATED'}")
    return 0 if ok else 1


def _list_main() -> int:
    for name, program in PROGRAMS.items():
        scope = "suite" if program.brute_force_ok else "dpor-only"
        print(f"{name:<16} {program.num_threads} threads, "
              f"{program.num_ops:>2} ops, "
              f"{program.interleavings:>6} interleavings [{scope}]")
        print(f"{'':16} {program.description}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.mc",
        description="Exhaustive small-scope model checking of litmus "
                    "programs via dynamic partial-order reduction.")
    parser.add_argument("--list", action="store_true",
                        help="list the canned litmus programs")
    parser.add_argument("--program", default="all",
                        help="litmus program name or 'all' "
                             "(default: %(default)s)")
    parser.add_argument("--mechanism", default="all",
                        help="mechanism name or 'all' "
                             "(default: %(default)s)")
    parser.add_argument("--method", choices=("dpor", "brute"),
                        default="dpor",
                        help="exploration method (default: %(default)s)")
    parser.add_argument("--hb-mode", choices=("rp", "rc"), default="rp",
                        help="happens-before closure judging the crash "
                             "states (default: %(default)s)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="write violation repro files here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-violation detail")
    args = parser.parse_args(argv)

    if args.list:
        return _list_main()
    try:
        return _check_main(args)
    except (ValueError, OSError) as exc:
        # Bad names and unwritable --out paths end in one line, with
        # argparse's usage-error status.
        print(f"repro.mc: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    run_cli(main, "repro.mc")
