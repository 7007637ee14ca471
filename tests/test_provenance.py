"""Tests for persist provenance (repro.obs.provenance / flame / diff).

The load-bearing guarantees:

* provenance tracking is opt-in and *passive*: enabling it yields
  bit-identical makespans, stats and persist logs;
* every trigger in the taxonomy — barrier, eviction, downgrade,
  epoch-drain — is actually observed on the mechanism whose design
  produces it (plus release/rmw-acquire/store-buffer/drain);
* per-site stall cycles reconcile EXACTLY with
  ``RunStats.persist_stall_cycles`` (the flame view is accounting,
  not sampling);
* the LRP-vs-BB diff on the same workload/seed reports nonzero
  persists-avoided with per-site attribution and a first divergence;
* the ``provenance``/``flame``/``diff`` CLI verbs work end to end and
  create missing output-parent directories instead of crashing.
"""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.common.params import MachineConfig
from repro.core.simulator import simulate
from repro.exp.runner import Job, execute_job
from repro.obs import Observer
from repro.obs import diff as diff_mod
from repro.obs import flame
from repro.obs.provenance import (
    TRIGGERS,
    UNTAGGED_SITE,
    persist_entries,
    site_persist_counts,
    site_stall_cycles,
    stall_folds,
)
from repro.obs.__main__ import main as obs_main
from repro.workloads.harness import WorkloadSpec

MECHANISMS = ("nop", "sb", "bb", "lrp", "arp", "dpo", "hops")


def tiny_spec(seed=1):
    return WorkloadSpec(structure="hashmap", num_threads=8,
                        initial_size=128, ops_per_thread=24, seed=seed)


def eviction_config():
    """A 1 KiB L1 (16 lines) so the tiny workload actually evicts."""
    return dataclasses.replace(MachineConfig(num_cores=8),
                               l1_size_bytes=1024)


def persist_digest(result):
    hasher = hashlib.sha256()
    for record in result.nvm.persist_log():
        hasher.update(repr((record.line_addr, record.words,
                            record.complete_time)).encode("ascii"))
    return hasher.hexdigest()


@pytest.fixture(scope="module")
def runs():
    """(plain result, provenance-observed result, observer) per mech."""
    spec, config = tiny_spec(), eviction_config()
    out = {}
    for mech in MECHANISMS:
        plain = simulate(spec, mech, config)
        observer = Observer(provenance=True)
        observed = simulate(spec, mech, config, observer=observer)
        out[mech] = (plain, observed, observer)
    return out


# ----------------------------------------------------------------------
# Passivity / bit-identity
# ----------------------------------------------------------------------

class TestPassivity:
    def test_bit_identical_results(self, runs):
        for mech, (plain, observed, _) in runs.items():
            assert plain.makespan == observed.makespan, mech
            assert plain.stats.summary() == observed.stats.summary(), mech
            assert persist_digest(plain) == persist_digest(observed), mech

    def test_provenance_off_by_default(self):
        assert Observer().provenance is None
        assert Observer(trace=True).provenance is None


# ----------------------------------------------------------------------
# The causal record itself
# ----------------------------------------------------------------------

class TestProvenanceRecord:
    def test_mechanism_recorded(self, runs):
        for mech, (_, _, observer) in runs.items():
            assert observer.provenance.to_dict()["mechanism"] == mech

    def test_triggers_are_in_taxonomy(self, runs):
        for mech, (_, _, observer) in runs.items():
            data = observer.provenance.to_dict()
            for entry in data["persists"]:
                assert entry["trigger"] in TRIGGERS, (mech, entry)

    def test_trigger_taxonomy_observed(self, runs):
        """Each mechanism exhibits the triggers its design produces."""
        def triggers_of(mech):
            data = runs[mech][2].provenance.to_dict()
            return {e["trigger"] for e in data["persists"]}

        assert "barrier" in triggers_of("sb")
        assert "eviction" in triggers_of("sb")
        assert "downgrade" in triggers_of("sb")
        assert "epoch-drain" in triggers_of("bb")
        assert "downgrade" in triggers_of("bb")
        assert "eviction" in triggers_of("lrp")
        assert "downgrade" in triggers_of("lrp")
        assert triggers_of("arp") == {"store-buffer"}
        # All four headline trigger kinds are covered somewhere.
        everything = set()
        for mech in MECHANISMS:
            everything |= triggers_of(mech)
        assert {"barrier", "eviction", "downgrade",
                "epoch-drain"} <= everything

    def test_sites_are_tagged(self, runs):
        """Persists resolve to workload source sites, not (untagged)."""
        for mech in ("sb", "bb", "lrp"):
            data = runs[mech][2].provenance.to_dict()
            sites = {e["site"] for e in data["persists"]}
            tagged = {s for s in sites
                      if s.startswith("hashmap.")}
            assert tagged, (mech, sites)
            assert UNTAGGED_SITE not in sites, mech

    def test_downgrade_carries_hb_edge(self, runs):
        """Downgrade persists record the (owner, requester) edge."""
        for mech in ("sb", "lrp", "nop"):
            data = runs[mech][2].provenance.to_dict()
            downgrades = [e for e in data["persists"]
                          if e["trigger"] == "downgrade"]
            assert downgrades, mech
            for entry in downgrades:
                owner, requester = entry["edge"]
                assert owner == entry["core"], (mech, entry)
                assert owner != requester, (mech, entry)

    def test_persist_entries_ordered_and_complete(self, runs):
        for mech in ("sb", "bb", "lrp"):
            result, _, observer = runs[mech][0], None, runs[mech][2]
            data = observer.provenance.to_dict()
            entries = persist_entries(data)
            seqs = [e["seq"] for e in entries]
            assert seqs == sorted(seqs)
            # One provenance entry per persist-log record.
            assert len(entries) == len(result.nvm.persist_log()), mech


# ----------------------------------------------------------------------
# Exact stall reconciliation
# ----------------------------------------------------------------------

class TestReconciliation:
    def test_stall_cycles_reconcile_exactly(self, runs):
        for mech, (plain, _, observer) in runs.items():
            data = observer.provenance.to_dict()
            folded = sum(stall_folds(data).values())
            assert folded == plain.stats.persist_stall_cycles, mech
            by_site = sum(site_stall_cycles(data).values())
            assert by_site == plain.stats.persist_stall_cycles, mech

    def test_flame_totals_reconcile(self, runs):
        for mech, (plain, _, observer) in runs.items():
            data = observer.provenance.to_dict()
            stalls = flame.collapse_stacks(data, "stalls")
            assert flame.total(stalls) == \
                plain.stats.persist_stall_cycles, mech
            persists = flame.collapse_stacks(data, "persists")
            assert flame.total(persists) == len(data["persists"]), mech

    def test_collapsed_stack_format(self, runs):
        data = runs["lrp"][2].provenance.to_dict()
        for mode in flame.MODES:
            for stack, value in flame.collapse_stacks(data, mode).items():
                frames = stack.split(";")
                assert len(frames) == 3, stack
                assert frames[-1] == "lrp"
                assert value > 0


# ----------------------------------------------------------------------
# Captures and the differential comparison
# ----------------------------------------------------------------------

class TestDiff:
    @pytest.fixture(scope="class")
    def captures(self):
        spec, config = tiny_spec(), eviction_config()
        out = {}
        for mech in ("bb", "lrp"):
            summary = execute_job(Job(spec=spec, mechanism=mech,
                                      config=config,
                                      collect_provenance=True))
            out[mech] = diff_mod.make_capture(summary)
        return out

    def test_summary_carries_provenance(self):
        summary = execute_job(Job(spec=tiny_spec(), mechanism="lrp",
                                  config=eviction_config(),
                                  collect_provenance=True))
        assert "provenance" in summary.obs
        assert summary.obs["provenance"]["mechanism"] == "lrp"

    def test_capture_without_provenance_rejected(self):
        summary = execute_job(Job(spec=tiny_spec(), mechanism="lrp",
                                  config=eviction_config(),
                                  collect_obs=True))
        with pytest.raises(ValueError, match="no provenance"):
            diff_mod.make_capture(summary)

    def test_capture_roundtrip(self, captures, tmp_path):
        path = str(tmp_path / "cap.json")
        diff_mod.write_capture(captures["lrp"], path)
        loaded = diff_mod.load_capture(path)
        assert loaded == json.loads(json.dumps(captures["lrp"]))

    def test_diff_reports_avoided_persists(self, captures):
        gap = diff_mod.diff_captures(captures["bb"], captures["lrp"])
        assert gap["base_mechanism"] == "bb"
        assert gap["other_mechanism"] == "lrp"
        assert gap["persists"]["avoided"] > 0
        assert gap["per_site_persists"], "per-site attribution missing"
        for row in gap["per_site_persists"]:
            assert row["delta"] == row["other"] - row["base"]
        # avoided/moved decompose the per-site deltas exactly.
        base_sites = site_persist_counts(captures["bb"]["provenance"])
        other_sites = site_persist_counts(captures["lrp"]["provenance"])
        avoided = sum(max(0, base_sites.get(s, 0) - other_sites.get(s, 0))
                      for s in set(base_sites) | set(other_sites))
        assert gap["persists"]["avoided"] == avoided

    def test_diff_first_divergence(self, captures):
        gap = diff_mod.diff_captures(captures["bb"], captures["lrp"])
        div = gap["first_divergence"]
        assert div is not None
        streams = {
            mech: [(e["site"], e["trigger"])
                   for e in persist_entries(captures[mech]["provenance"])]
            for mech in ("bb", "lrp")
        }
        index = div["index"]
        assert streams["bb"][:index] == streams["lrp"][:index]
        if "base" in div and "other" in div:
            assert (div["base"]["site"], div["base"]["trigger"]) \
                != (div["other"]["site"], div["other"]["trigger"])

    def test_diff_self_is_empty(self, captures):
        gap = diff_mod.diff_captures(captures["lrp"], captures["lrp"])
        assert gap["persists"]["avoided"] == 0
        assert gap["persists"]["moved"] == 0
        assert gap["first_divergence"] is None
        assert gap["per_site_persists"] == []

    def test_diff_rejects_identity_mismatch(self, captures):
        other_seed = execute_job(Job(spec=tiny_spec(seed=2),
                                     mechanism="lrp",
                                     config=eviction_config(),
                                     collect_provenance=True))
        with pytest.raises(ValueError, match="not comparable"):
            diff_mod.diff_captures(captures["bb"],
                                   diff_mod.make_capture(other_seed))


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------

ARGS = ["--threads", "4", "--size", "64", "--ops", "12"]


class TestCLI:
    def test_provenance_verb_creates_parent_dirs(self, tmp_path, capsys):
        out = str(tmp_path / "deep" / "nested" / "cap.json")
        rc = obs_main(["provenance", out, "--mechanism", "lrp"] + ARGS)
        assert rc == 0
        assert os.path.exists(out)
        assert "provenance" in diff_mod.load_capture(out)
        assert "wrote provenance capture" in capsys.readouterr().out

    def test_flame_verb_reconciles(self, tmp_path, capsys):
        cap = str(tmp_path / "cap.json")
        assert obs_main(["provenance", cap,
                         "--mechanism", "lrp"] + ARGS) == 0
        folded = str(tmp_path / "lrp.folded")
        rc = obs_main(["flame", folded, "--from-capture", cap])
        assert rc == 0
        capture = diff_mod.load_capture(cap)
        total = 0
        with open(folded) as handle:
            for line in handle:
                stack, value = line.rsplit(" ", 1)
                assert len(stack.split(";")) == 3
                total += int(value)
        assert total == capture["persist_stall_cycles"]
        assert "flame view" in capsys.readouterr().out

    def test_diff_verb_json_out_creates_parent(self, tmp_path, capsys):
        json_out = str(tmp_path / "missing" / "diff.json")
        rc = obs_main(["diff", "--base", "bb", "--other", "lrp",
                       "--json-out", json_out] + ARGS)
        assert rc == 0
        with open(json_out) as handle:
            gap = json.load(handle)
        assert gap["persists"]["avoided"] > 0
        assert "first divergence" in capsys.readouterr().out


class TestCommittedCaptures:
    """``examples/obs/hashmap-{bb,lrp}.provenance.json`` are the output
    of ``python -m repro.obs provenance OUT --mechanism M`` with the
    default workload arguments; rerunning that command must write the
    same capture."""

    EXAMPLES = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "examples", "obs")

    @pytest.mark.parametrize("mechanism", ["bb", "lrp"])
    def test_capture_regenerates(self, tmp_path, mechanism):
        out = tmp_path / "capture.json"
        assert obs_main(["provenance", str(out),
                         "--mechanism", mechanism]) == 0
        committed = os.path.join(self.EXAMPLES,
                                 f"hashmap-{mechanism}.provenance.json")
        with open(committed) as handle:
            assert json.loads(out.read_text()) == json.load(handle)

    def test_diff_of_saved_captures_matches_committed_diff(self, tmp_path,
                                                           capsys):
        """``diff --captures A B`` reads two saved captures (the last
        step of ``make provenance``) and writes the committed diff."""
        out = tmp_path / "diff.json"
        assert obs_main([
            "diff", "--captures",
            os.path.join(self.EXAMPLES, "hashmap-bb.provenance.json"),
            os.path.join(self.EXAMPLES, "hashmap-lrp.provenance.json"),
            "--json-out", str(out)]) == 0
        committed = os.path.join(self.EXAMPLES, "hashmap-lrp-vs-bb.diff.json")
        with open(committed) as handle:
            assert json.loads(out.read_text()) == json.load(handle)
        assert "first divergence" in capsys.readouterr().out
