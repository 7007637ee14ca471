#!/usr/bin/env python3
"""Observability demo: where does each mechanism's makespan go?

Runs one workload under every persistency mechanism with a
:class:`repro.obs.Observer` attached, then prints the critical-path
attribution report: the slowest core's clock split into compute /
coherence / persist-stall segments, plus the dominant stall reasons.
This is the quantified version of the paper's core argument — SB puts
persists *on* the critical path, LRP takes them off it.

Also exports a Chrome trace-event timeline of the LRP run; load it in
chrome://tracing or https://ui.perfetto.dev to see op spans, persist
stalls, persist-engine scans and NVM-channel activity per cycle.

Run:  python examples/obs_attribution_demo.py [trace-out.json]
"""

import sys

from repro import WorkloadSpec, simulate
from repro.common.params import MachineConfig
from repro.obs import Observer, write_chrome_trace
from repro.obs.report import attribute_run, render_attribution

MECHANISMS = ("nop", "sb", "bb", "lrp")


def main() -> None:
    spec = WorkloadSpec(structure="hashmap", num_threads=8,
                        initial_size=1024, ops_per_thread=32, seed=42)
    config = MachineConfig(num_cores=8)

    attributions = []
    lrp_observer = None
    for mechanism in MECHANISMS:
        observer = Observer(trace=(mechanism == "lrp"))
        result = simulate(spec, mechanism, config, observer=observer)
        attributions.append(
            attribute_run(result.stats, observer.counters))
        if mechanism == "lrp":
            lrp_observer = observer

    print(render_attribution(
        attributions,
        title=f"Critical-path attribution: {spec.structure}, "
              f"{spec.num_threads} threads, "
              f"{spec.ops_per_thread} ops/thread"))

    sb, lrp = attributions[1], attributions[3]
    print(f"\nSB spends {100 * sb.critical_core.persist_stall / sb.makespan:.1f}% "
          f"of its critical path stalled on persists; "
          f"LRP {100 * lrp.critical_core.persist_stall / lrp.makespan:.1f}% "
          "— the paper's argument, measured.")

    out = sys.argv[1] if len(sys.argv) > 1 else "lrp-hashmap-trace.json"
    events = lrp_observer.trace.chrome_events()
    write_chrome_trace(events, out)
    print(f"wrote {len(events)} LRP trace events to {out} "
          "(open in https://ui.perfetto.dev)")


if __name__ == "__main__":
    main()
