"""``python -m repro.fuzz`` — persistency-fuzzing campaigns.

Two modes:

* **campaign** (default): one coverage-guided campaign against a
  workload x mechanism. Exit code enforces the Figure-1 contract —
  an RP-enforcing mechanism exits 0 only on a clean campaign (any
  counterexample is a mechanism bug, reported loudly with its repro
  file); ARP/NOP exit 0 only when at least one minimized
  counterexample was found (otherwise the fuzzer lost its teeth).
* ``--replay FILE``: re-derive a saved counterexample's verdict; exit
  0 iff the recorded violation reproduces.

Bad input (a missing or malformed repro file, a budget or job count
below 1, an unknown mechanism) ends in one ``repro.fuzz: error:``
line and exit status 1. ``tests/test_fuzz.py`` pins the contract on
every mechanism, the shrinking, the replay of campaign-written repro
files, and the campaign's seed determinism.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.exp.runner import run_cli
from repro.fuzz.engine import CampaignConfig, CampaignResult, run_campaign
from repro.fuzz.reprofile import replay_repro


def _print_campaign(result: CampaignResult) -> None:
    report = result.report()
    print(json.dumps(report, indent=2, sort_keys=True))
    for ce in result.counterexamples:
        where = ce.get("repro_path", "(not written; pass --out DIR)")
        print(f"counterexample: kind={ce['kind']} "
              f"nudges={ce['nudges']} prefix={ce['prefix']} -> {where}")
    if result.enforces_rp and not result.clean:
        print(f"FATAL: {result.config.mechanism} claims Release "
              f"Persistency but {len(result.candidates)} crash "
              "point(s) failed null recovery", file=sys.stderr)


def _campaign_main(args) -> int:
    config = CampaignConfig(
        workload=args.workload, mechanism=args.mechanism,
        seed=args.seed, budget=args.budget, jobs=args.jobs,
        num_threads=args.threads, initial_size=args.size,
        ops_per_thread=args.ops, crash_samples=args.crash_samples,
        continuation_checks=args.continuation_checks,
        max_counterexamples=args.max_counterexamples,
        corpus_dir=args.corpus, out_dir=args.out,
        verbose=not args.quiet)
    result = run_campaign(config)
    _print_campaign(result)
    return 0 if result.contract_ok else 1


def _replay_main(path: str) -> int:
    outcome = replay_repro(path)
    print(json.dumps(outcome, indent=2, sort_keys=True))
    status = "reproduced" if outcome["ok"] else "DID NOT reproduce"
    print(f"replay of {path}: {status}")
    return 0 if outcome["ok"] else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Coverage-guided persistency fuzzing: schedule + "
                    "crash-point exploration with counterexample "
                    "shrinking.")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="replay a saved counterexample file")
    parser.add_argument("--workload", default="hashmap",
                        help="LFD under test (default: %(default)s)")
    parser.add_argument("--mechanism", default="arp",
                        help="persistency mechanism (default: %(default)s)")
    parser.add_argument("--budget", type=int, default=48, metavar="N",
                        help="total executions (default: %(default)s)")
    parser.add_argument("--seed", type=int, default=1, metavar="S",
                        help="campaign seed (default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes (default: serial; "
                             "never changes results)")
    parser.add_argument("--threads", type=int, default=4,
                        help="workload threads (default: %(default)s)")
    parser.add_argument("--size", type=int, default=64,
                        help="initial structure size (default: %(default)s)")
    parser.add_argument("--ops", type=int, default=8,
                        help="ops per thread (default: %(default)s)")
    parser.add_argument("--crash-samples", type=int, default=16,
                        help="crash prefixes per execution "
                             "(default: %(default)s)")
    parser.add_argument("--continuation-checks", type=int, default=0,
                        help="recover-and-continue replays per "
                             "execution (default: off)")
    parser.add_argument("--max-counterexamples", type=int, default=2,
                        help="findings to shrink (default: %(default)s)")
    parser.add_argument("--corpus", metavar="DIR", default=None,
                        help="persist the corpus + coverage map here")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="write counterexample repro files here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the progress meter")
    args = parser.parse_args(argv)

    if args.replay:
        return _replay_main(args.replay)
    return _campaign_main(args)


if __name__ == "__main__":
    run_cli(main, "repro.fuzz")
