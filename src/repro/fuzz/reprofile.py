"""Replayable counterexample files.

A repro file is a self-contained JSON description of one minimized
counterexample: workload spec, machine config, mechanism, schedule
mutation, crash prefix, and the recorded verdict. Simulations are
deterministic, so replaying the file re-derives the *same* violation
— ``python -m repro.fuzz --replay FILE`` exits 0 iff the recorded
verdict reproduces bit-for-bit (kind and first problem line).

The file is the hand-off artifact: a failing CI fuzz campaign drops
repro files, and anyone can replay them locally without the campaign.

Two formats share the replay entry point:

* :data:`FORMAT` (:class:`ReproFile`) — a fuzzer counterexample,
  replayed by re-simulating the full machine;
* :data:`LITMUS_FORMAT` (:class:`LitmusReproFile`) — a model-checker
  witness from :mod:`repro.mc`: a litmus schedule plus the violating
  crash state, replayed by re-running the interleaving and re-judging
  the materialized persist log with the stock
  :class:`~repro.persistency.checker.RPChecker`.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os
from typing import Dict, List, Optional

from repro.common.params import MachineConfig, NVMMode
from repro.core.simulator import SimulationResult, simulate
from repro.fuzz.mutation import ScheduleMutation
from repro.workloads.harness import WorkloadSpec

FORMAT = "repro-fuzz-repro-v1"
LITMUS_FORMAT = "repro-mc-litmus-v1"


def config_to_dict(config: MachineConfig) -> Dict[str, object]:
    """JSON-able dump of a machine config (enums by value)."""
    data = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        data[field.name] = value.value if isinstance(value, enum.Enum) \
            else value
    return data


def config_from_dict(data: Dict[str, object]) -> MachineConfig:
    kwargs = dict(data)
    if "nvm_mode" in kwargs:
        kwargs["nvm_mode"] = NVMMode(kwargs["nvm_mode"])
    return MachineConfig(**kwargs)


@dataclasses.dataclass
class ReproFile:
    """One minimized counterexample, ready to serialize/replay."""

    workload: Dict[str, object]
    mechanism: str
    config: Dict[str, object]
    mutation: List[List[int]]
    prefix: int
    verdict: Dict[str, object]
    campaign: Dict[str, object]

    # -- (de)serialization --------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": FORMAT,
            "workload": self.workload,
            "mechanism": self.mechanism,
            "config": self.config,
            "mutation": self.mutation,
            "prefix": self.prefix,
            "verdict": self.verdict,
            "campaign": self.campaign,
        }

    def save(self, path: str) -> None:
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "ReproFile":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("format") != FORMAT:
            raise ValueError(
                f"{path}: not a fuzz repro file "
                f"(format={data.get('format')!r})")
        try:
            return cls(workload=data["workload"],
                       mechanism=data["mechanism"],
                       config=data["config"],
                       mutation=[list(n) for n in data["mutation"]],
                       prefix=int(data["prefix"]),
                       verdict=data["verdict"],
                       campaign=data.get("campaign", {}))
        except KeyError as exc:
            raise ValueError(f"{path}: repro file has no {exc} field") \
                from None

    # -- replay --------------------------------------------------------

    def run(self) -> SimulationResult:
        """Re-simulate the counterexample's exact run."""
        spec = WorkloadSpec(**self.workload)
        config = config_from_dict(self.config)
        mutation = ScheduleMutation.make(
            (int(d), int(r)) for d, r in self.mutation)
        return simulate(spec, self.mechanism, config,
                        schedule_nudges=mutation.as_dict())

    def replay(self) -> Dict[str, object]:
        """Re-derive the verdict at the recorded crash prefix."""
        result = self.run()
        log_len = len(result.nvm.persist_log())
        if not 0 <= self.prefix <= log_len:
            return {"kind": "mismatch",
                    "problems": [f"prefix {self.prefix} out of range "
                                 f"[0, {log_len}]"]}
        if self.verdict.get("kind") == "continuation":
            return self._replay_continuation(result)
        report = result.structure.validate_image(
            result.nvm.image_after_prefix(self.prefix))
        if report.ok:
            return {"kind": "recovered", "problems": []}
        verdict: Dict[str, object] = {
            "kind": "structural",
            "problems": [str(p) for p in report.problems[:3]],
        }
        if result.config.record_trace:
            from repro.persistency.checker import RPChecker

            checker = RPChecker(result.trace, result.nvm)
            verdict["cut_violations"] = len(
                checker.check_cut(self.prefix))
        return verdict

    def _replay_continuation(self, result) -> Dict[str, object]:
        from repro.core.replay import RecoveryReplayError, \
            recover_and_continue

        params = dict(self.verdict.get("continuation", {}))
        try:
            recover_and_continue(result, self.prefix, **params)
        except RecoveryReplayError as exc:
            return {"kind": "continuation", "problems": [str(exc)],
                    "continuation": params}
        return {"kind": "recovered", "problems": []}

    def verdict_matches(self, replayed: Dict[str, object]) -> bool:
        """Same violation: kind matches, and the first problem line
        (the validator's primary diagnosis) is identical."""
        if replayed.get("kind") != self.verdict.get("kind"):
            return False
        mine = list(self.verdict.get("problems", []))
        theirs = list(replayed.get("problems", []))
        return (mine[:1] == theirs[:1])


@dataclasses.dataclass
class LitmusReproFile:
    """A model-checker witness: schedule + violating crash state."""

    program: str                  # canned program name (repro.mc)
    mechanism: str
    schedule: List[int]
    persist_sequence: List[int]   # write event ids, durability order
    verdict: Dict[str, object]
    hb_mode: str = "rp"
    source: Dict[str, object] = dataclasses.field(default_factory=dict)

    # -- (de)serialization --------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": LITMUS_FORMAT,
            "program": self.program,
            "mechanism": self.mechanism,
            "schedule": self.schedule,
            "persist_sequence": self.persist_sequence,
            "verdict": self.verdict,
            "hb_mode": self.hb_mode,
            "source": self.source,
        }

    def save(self, path: str) -> None:
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "LitmusReproFile":
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("format") != LITMUS_FORMAT:
            raise ValueError(
                f"{path}: not a litmus repro file "
                f"(format={data.get('format')!r})")
        try:
            return cls(program=data["program"],
                       mechanism=data["mechanism"],
                       schedule=[int(t) for t in data["schedule"]],
                       persist_sequence=[int(e) for e in
                                         data["persist_sequence"]],
                       verdict=data["verdict"],
                       hb_mode=data.get("hb_mode", "rp"),
                       source=data.get("source", {}))
        except KeyError as exc:
            raise ValueError(f"{path}: repro file has no {exc} field") \
                from None

    # -- replay --------------------------------------------------------

    def replay(self) -> Dict[str, object]:
        """Re-run the schedule and re-judge the crash state.

        The interleaving runner validates the schedule (bad thread ids
        raise) and the recorded persist sequence is re-checked with
        RPChecker on a freshly materialized persist log — nothing from
        the recorded verdict is trusted.
        """
        from repro.consistency.litmus import run_interleaving
        from repro.mc.judge import cut_violations
        from repro.mc.programs import get_program

        program = get_program(self.program)
        trace = run_interleaving(program.program(), self.schedule,
                                 init=program.initial_memory())
        write_ids = {e.event_id for e in trace.writes()}
        bad = [e for e in self.persist_sequence if e not in write_ids]
        if bad:
            return {"kind": "mismatch",
                    "problems": [f"persist sequence references "
                                 f"non-write events {bad}"]}
        count, problems = cut_violations(trace, self.persist_sequence,
                                         hb_mode=self.hb_mode)
        if not count:
            return {"kind": "recovered", "problems": []}
        return {"kind": "litmus-cut", "problems": problems,
                "cut_violations": count}

    def verdict_matches(self, replayed: Dict[str, object]) -> bool:
        """Same violation: kind and first problem line identical."""
        if replayed.get("kind") != self.verdict.get("kind"):
            return False
        mine = list(self.verdict.get("problems", []))
        theirs = list(replayed.get("problems", []))
        return mine[:1] == theirs[:1]


def replay_repro(path: str) -> Dict[str, object]:
    """Load, replay and judge a repro file (either format).

    Returns ``{"ok": bool, "recorded": ..., "replayed": ...}``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a repro file (a JSON "
                         f"{type(data).__name__}, not an object)")
    if data.get("format") == LITMUS_FORMAT:
        litmus = LitmusReproFile.load(path)
        replayed = litmus.replay()
        return {
            "ok": litmus.verdict_matches(replayed),
            "recorded": litmus.verdict,
            "replayed": replayed,
            "mechanism": litmus.mechanism,
            "program": litmus.program,
            "prefix": len(litmus.persist_sequence),
            "nudges": 0,
        }
    repro = ReproFile.load(path)
    replayed = repro.replay()
    return {
        "ok": repro.verdict_matches(replayed),
        "recorded": repro.verdict,
        "replayed": replayed,
        "mechanism": repro.mechanism,
        "prefix": repro.prefix,
        "nudges": len(repro.mutation),
    }
