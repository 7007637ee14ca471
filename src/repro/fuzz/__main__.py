"""``python -m repro.fuzz`` — persistency-fuzzing campaigns.

Three modes:

* **campaign** (default): one coverage-guided campaign against a
  workload x mechanism. Exit code enforces the Figure-1 contract —
  an RP-enforcing mechanism exits 0 only on a clean campaign (any
  counterexample is a mechanism bug, reported loudly with its repro
  file); ARP/NOP exit 0 only when at least one minimized
  counterexample was found (otherwise the fuzzer lost its teeth).
* ``--replay FILE``: re-derive a saved counterexample's verdict; exit
  0 iff the recorded violation reproduces.
* ``--selftest``: the end-to-end contract demonstration — an ARP and a
  NOP campaign on the hashmap must find and shrink counterexamples
  (strictly smaller than the raw findings, replayable from their repro
  files, bit-identical across a re-run), while SB/BB/LRP campaigns
  must come back clean. Writes campaign throughput (execs/sec,
  coverage features) to ``--bench-out`` (default BENCH_fuzz.json).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from typing import List, Optional, Sequence

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


def _fingerprint(result: CampaignResult) -> dict:
    """The deterministic essence of a campaign (for the identity pin)."""
    return {
        "coverage": result.coverage.to_list(),
        "corpus": result.corpus.digests(),
        "counterexamples": [
            (list(ce["mutation"].nudges), ce["prefix"],
             ce["problems"][:1])
            for ce in result.counterexamples
        ],
    }


def run_selftest(jobs: int, bench_out: str, out_dir: Optional[str],
                 verbose: bool) -> dict:
    """The end-to-end contract + determinism demonstration."""
    campaigns: List[dict] = []
    checks: List[tuple] = []

    def base(mechanism: str, budget: int, seed: int = 1) -> CampaignConfig:
        return CampaignConfig(
            workload="hashmap", mechanism=mechanism, seed=seed,
            budget=budget, jobs=jobs, verbose=verbose)

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-") as tmp:
        repro_dir = out_dir or os.path.join(tmp, "repros")

        # Weak mechanisms: must find and shrink counterexamples.
        weak_results = {}
        for mechanism, budget in (("arp", 24), ("nop", 12)):
            config = CampaignConfig(
                **{**base(mechanism, budget).__dict__,
                   "out_dir": repro_dir,
                   "corpus_dir": os.path.join(tmp, f"corpus-{mechanism}")})
            result = run_campaign(config)
            weak_results[mechanism] = result
            campaigns.append(result.report())
            checks.append((f"{mechanism}_found_counterexample",
                           bool(result.counterexamples)))
            shrunk = [ce for ce in result.counterexamples
                      if ce.get("shrunk")]
            checks.append((f"{mechanism}_shrunk_strictly_smaller",
                           any(ce["strictly_smaller"] for ce in shrunk)))
            checks.append((f"{mechanism}_cut_checker_confirms",
                           any(ce["verdict"].get("cut_violations", 0) > 0
                               for ce in shrunk)))

        # Replay: every written ARP repro must reproduce its verdict.
        arp = weak_results["arp"]
        replays = [replay_repro(ce["repro_path"])
                   for ce in arp.counterexamples
                   if "repro_path" in ce]
        checks.append(("repro_files_replay",
                       bool(replays) and all(r["ok"] for r in replays)))

        # Determinism: the identical ARP campaign, re-run (and through
        # a different corpus dir), must be bit-identical.
        rerun = run_campaign(CampaignConfig(
            **{**base("arp", 24).__dict__,
               "corpus_dir": os.path.join(tmp, "corpus-arp-rerun")}))
        checks.append(("deterministic_rerun",
                       _fingerprint(arp) == _fingerprint(rerun)))

        # Enforcing mechanisms: must come back clean.
        for mechanism in ("sb", "bb", "lrp"):
            result = run_campaign(base(mechanism, 8))
            campaigns.append(result.report())
            checks.append((f"{mechanism}_clean", result.clean))

    ok = all(passed for _name, passed in checks)
    report = {
        "campaigns": campaigns,
        "checks": {name: passed for name, passed in checks},
        "total_executions": sum(c["executions"] for c in campaigns),
        "total_seconds": round(sum(c["seconds"] for c in campaigns), 3),
        "ok": ok,
    }
    if bench_out:
        with open(bench_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Coverage-guided persistency fuzzing: schedule + "
                    "crash-point exploration with counterexample "
                    "shrinking.")
    parser.add_argument("--selftest", action="store_true",
                        help="run the end-to-end contract demonstration")
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
    parser.add_argument("--bench-out", metavar="FILE",
                        default="BENCH_fuzz.json",
                        help="selftest throughput JSON "
                             "(default: %(default)s)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the progress meter")
    args = parser.parse_args(argv)

    if args.replay:
        return _replay_main(args.replay)
    if args.selftest:
        report = run_selftest(args.jobs, args.bench_out, args.out,
                              verbose=not args.quiet)
        print(json.dumps(report, indent=2, sort_keys=True))
        print(f"\nselftest {'PASSED' if report['ok'] else 'FAILED'}: "
              f"wrote {args.bench_out}")
        return 0 if report["ok"] else 1
    return _campaign_main(args)


if __name__ == "__main__":
    run_cli(main, "repro.fuzz")
