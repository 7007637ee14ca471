"""Tests for the coverage-guided persistency fuzzer (repro.fuzz).

Covers the four tentpole pieces — schedule mutation + coverage
feedback, coverage-weighted crash sampling, counterexample shrinking,
and the corpus/campaign layer — plus the determinism contract: a
campaign is a pure function of (workload, mechanism, seed, budget).
"""

import dataclasses
import json

import pytest

from repro.common.params import MachineConfig
from repro.common.rng import make_rng
from repro.common.stats import CoreStats, RunStats
from repro.core.simulator import simulate
from repro.exp.runner import Job, execute_job
from repro.fuzz.corpus import Corpus, CorpusEntry, load_coverage
from repro.fuzz.crashpoints import (
    TRIGGER_WEIGHTS,
    prefix_weights,
    sample_prefixes,
    trigger_map,
)
from repro.fuzz.engine import CampaignConfig, run_campaign
from repro.fuzz.leg import FuzzLegSpec
from repro.fuzz.mutation import (
    MAX_NUDGES,
    MAX_RANK,
    ScheduleMutation,
    mutate,
)
from repro.fuzz.reprofile import ReproFile, replay_repro
from repro.fuzz.shrink import first_failing_prefix, shrink_counterexample
from repro.obs.coverage import CoverageMap, bucket, coverage_from_obs
from repro.workloads.harness import WorkloadSpec

CFG = MachineConfig(num_cores=8, l1_size_bytes=4 * 1024,
                    record_trace=True)


def _spec(seed=1):
    return WorkloadSpec(structure="hashmap", num_threads=4,
                        initial_size=64, ops_per_thread=8, seed=seed)


class TestBucketing:
    def test_small_counts_exact(self):
        assert [bucket(n) for n in (0, 1, 2, 3)] == [0, 1, 2, 3]

    def test_power_of_two_buckets(self):
        assert bucket(4) == 4
        assert bucket(7) == 4
        assert bucket(8) == 8
        assert bucket(100) == 64

    def test_jitter_inside_bucket_is_not_new_coverage(self):
        a, b = CoverageMap(), CoverageMap()
        a.add_count("persist", "release", "site", count=9)
        b.add_count("persist", "release", "site", count=15)
        assert a.new_features(b) == 0

    def test_bucket_jump_is_new_coverage(self):
        a, b = CoverageMap(), CoverageMap()
        a.add_count("persist", "release", "site", count=9)
        b.add_count("persist", "release", "site", count=16)
        assert a.new_features(b) == 1


class TestCoverageMap:
    def test_merge_returns_new_feature_count(self):
        a = CoverageMap(["x|y|b1"])
        b = CoverageMap(["x|y|b1", "x|z|b2"])
        assert a.merge(b) == 1
        assert a.merge(b) == 0
        assert len(a) == 2

    def test_roundtrip_is_sorted_and_stable(self):
        cov = CoverageMap(["b|b|b1", "a|a|b1"])
        assert cov.to_list() == sorted(cov.to_list())
        assert CoverageMap.from_list(cov.to_list()).to_list() == \
            cov.to_list()

    def test_zero_count_ignored(self):
        cov = CoverageMap()
        cov.add_count("coh", "coh.evictions", count=0)
        assert len(cov) == 0

    def test_harvest_from_synthetic_export(self):
        stats = RunStats(mechanism="lrp", workload="hashmap",
                         num_threads=2,
                         per_core=[CoreStats(downgrades_received=3),
                                   CoreStats(downgrades_received=2)])
        export = {
            "metrics": {"counters": {}},
            "provenance": {
                "persists": [
                    {"seq": 0, "trigger": "release", "site": "s.a"},
                    {"seq": 1, "trigger": "downgrade", "site": "s.b",
                     "edge": [0, 1]},
                ],
                "stalls": [["s.a", "drain", 40, 2]],
            },
        }
        cov = coverage_from_obs(export, stats)
        features = cov.to_list()
        assert "coh|coh.downgrades|b4" in features
        # Transitions that never happened add no feature.
        assert not [f for f in features if f.startswith("coh|coh.ev")]
        assert "persist|release|s.a|b1" in features
        assert "persist|downgrade|s.b|b1" in features
        assert "edge|downgrade|0|1|b1" in features
        assert "stall|drain|s.a|b2" in features
        # Persist-order adjacency: s.a persisted immediately before s.b.
        assert "order|s.a|s.b|b1" in features

    def test_order_features_follow_seq_not_list_order(self):
        export = {
            "metrics": {"counters": {}},
            "provenance": {
                "persists": [
                    {"seq": 5, "trigger": "release", "site": "late"},
                    {"seq": 1, "trigger": "release", "site": "early"},
                ],
                "stalls": [],
            },
        }
        stats = RunStats(mechanism="lrp", workload="hashmap",
                         num_threads=1,
                         per_core=[CoreStats(evictions=1)])
        features = coverage_from_obs(export, stats).to_list()
        assert "order|early|late|b1" in features
        assert "coh|coh.evictions|b1" in features


class TestScheduleMutation:
    def test_make_canonicalizes(self):
        m = ScheduleMutation.make([(7, 2), (3, 1), (7, 3)])
        assert m.nudges == ((3, 1), (7, 3))  # sorted, last rank wins

    def test_digest_depends_on_content(self):
        assert ScheduleMutation.make([(1, 1)]).digest() != \
            ScheduleMutation.make([(1, 2)]).digest()
        assert ScheduleMutation.make([(1, 1)]).digest() == \
            ScheduleMutation.make([(1, 1)]).digest()

    def test_mutate_is_deterministic(self):
        parent = ScheduleMutation.make([(4, 1)])
        children = [mutate(parent, make_rng(9, "mutate", 3), 100)
                    for _ in range(2)]
        assert children[0] == children[1]

    def test_mutate_respects_bounds(self):
        rng = make_rng(0, "bounds")
        m = ScheduleMutation()
        for _ in range(200):
            m = mutate(m, rng, 50)
            assert len(m) <= MAX_NUDGES
            for index, rank in m.nudges:
                assert 0 <= index < 50
                assert 1 <= rank <= MAX_RANK

    def test_empty_decision_space_is_identity(self):
        parent = ScheduleMutation.make([(1, 1)])
        assert mutate(parent, make_rng(0, "x"), 0) is parent


class TestNudgedScheduler:
    def test_empty_nudges_bit_identical_to_heap_path(self):
        base = simulate(_spec(), "lrp", CFG)
        nudged = simulate(_spec(), "lrp", CFG, schedule_nudges={})
        assert nudged.executed_ops == base.executed_ops
        assert [(r.complete_time, r.issue_seq)
                for r in nudged.nvm.persist_log()] == \
            [(r.complete_time, r.issue_seq)
             for r in base.nvm.persist_log()]

    def test_noop_rank_zero_nudge_changes_nothing(self):
        base = simulate(_spec(), "lrp", CFG)
        nudged = simulate(_spec(), "lrp", CFG, schedule_nudges={5: 0})
        assert [(r.complete_time, r.issue_seq)
                for r in nudged.nvm.persist_log()] == \
            [(r.complete_time, r.issue_seq)
             for r in base.nvm.persist_log()]

    def test_effective_nudge_changes_interleaving(self):
        """Perturbing the very first decision (all clocks equal) must
        change which thread's ops hit the memory system first."""
        base = simulate(_spec(), "lrp", CFG)
        nudged = simulate(_spec(), "lrp", CFG, schedule_nudges={0: 3})
        assert [(r.complete_time, r.issue_seq)
                for r in nudged.nvm.persist_log()] != \
            [(r.complete_time, r.issue_seq)
             for r in base.nvm.persist_log()]

    def test_nudged_run_is_deterministic(self):
        runs = [simulate(_spec(), "lrp", CFG, schedule_nudges={0: 3})
                for _ in range(2)]
        assert [(r.complete_time, r.issue_seq)
                for r in runs[0].nvm.persist_log()] == \
            [(r.complete_time, r.issue_seq)
             for r in runs[1].nvm.persist_log()]

    def test_final_state_still_linearizable(self):
        nudged = simulate(_spec(), "lrp", CFG, schedule_nudges={0: 2})
        nudged.verify_final_state()


class _Record:
    def __init__(self, issue_seq):
        self.issue_seq = issue_seq


class TestCrashPointWeights:
    LOG = [_Record(0), _Record(1), _Record(2), _Record(3)]

    def test_release_adjacent_prefixes_weighted_up(self):
        triggers = {1: "release"}
        weights = prefix_weights(self.LOG, triggers)
        assert len(weights) == len(self.LOG) + 1
        # Prefixes flanking record seq 1 inherit the release weight.
        assert weights[1] == TRIGGER_WEIGHTS["release"]
        assert weights[2] == TRIGGER_WEIGHTS["release"]
        assert weights[0] == 1
        assert weights[4] == 1

    def test_sampling_always_includes_endpoints(self):
        weights = prefix_weights(self.LOG, {})
        picks = sample_prefixes(weights, 3, make_rng(0, "cp"))
        assert 0 in picks and len(self.LOG) in picks
        assert picks == sorted(picks)
        assert len(picks) == len(set(picks)) == 3

    def test_big_budget_returns_every_prefix(self):
        weights = prefix_weights(self.LOG, {})
        assert sample_prefixes(weights, 99, make_rng(0, "cp")) == \
            list(range(len(self.LOG) + 1))

    def test_sampling_deterministic(self):
        weights = prefix_weights(self.LOG, {1: "downgrade"})
        a = sample_prefixes(weights, 3, make_rng(4, "cp"))
        b = sample_prefixes(weights, 3, make_rng(4, "cp"))
        assert a == b

    def test_trigger_map_from_provenance(self):
        prov = {"persists": [{"seq": 3, "trigger": "release",
                              "site": "x"}]}
        assert trigger_map(prov) == {3: "release"}


class TestFuzzLeg:
    def test_leg_attaches_coverage_and_failures(self):
        job = Job(spec=_spec(), mechanism="arp", config=CFG,
                  fuzz=FuzzLegSpec(crash_samples=16, crash_seed=1))
        summary = execute_job(job)
        assert summary.fuzz is not None
        assert summary.fuzz["coverage"] == summary.obs["coverage"]
        assert summary.fuzz["log_length"] > 0
        assert summary.fuzz["sampled_prefixes"]
        # ARP on this spec leaves unrecoverable prefixes (pinned by
        # TestExpectedFailureContract in test_recovery.py too).
        kinds = {f["kind"] for f in summary.fuzz["failures"]}
        assert "structural" in kinds

    def test_enforcing_mechanism_leg_is_clean(self):
        job = Job(spec=_spec(), mechanism="lrp", config=CFG,
                  fuzz=FuzzLegSpec(crash_samples=12, crash_seed=1))
        summary = execute_job(job)
        assert summary.fuzz["failures"] == []


class TestShrinker:
    def _run(self, mutation):
        return simulate(_spec(), "arp", CFG,
                        schedule_nudges=(mutation.as_dict()
                                         if len(mutation) else None))

    def test_first_failing_prefix_is_minimal(self):
        result = self._run(ScheduleMutation())
        found = first_failing_prefix(result)
        assert found is not None
        prefix, problems = found
        assert problems
        for earlier in range(prefix):
            report = result.structure.validate_image(
                result.nvm.image_after_prefix(earlier))
            assert report.ok

    def test_shrink_strips_irrelevant_nudges(self):
        # ARP fails even unperturbed, so junk nudges must all go.
        raw = ScheduleMutation.make([(200, 1), (250, 2)])
        shrunk = shrink_counterexample(raw, 40, self._run)
        assert shrunk is not None
        assert len(shrunk.mutation) == 0
        assert shrunk.prefix < 40
        assert shrunk.strictly_smaller
        assert shrunk.probes >= 2

    def test_clean_mechanism_does_not_shrink(self):
        def run(mutation):
            return simulate(_spec(), "lrp", CFG,
                            schedule_nudges=(mutation.as_dict()
                                             if len(mutation) else None))

        assert shrink_counterexample(ScheduleMutation(), 5, run) is None


class TestReproFile:
    def _campaign(self, tmp_path):
        return run_campaign(CampaignConfig(
            mechanism="arp", budget=6, crash_samples=12,
            out_dir=str(tmp_path)))

    def test_saved_counterexample_replays(self, tmp_path):
        result = self._campaign(tmp_path)
        assert result.counterexamples
        path = result.counterexamples[0]["repro_path"]
        outcome = replay_repro(path)
        assert outcome["ok"], outcome

    @pytest.mark.parametrize("mechanism", ["arp", "nop"])
    def test_every_written_repro_replays(self, tmp_path, mechanism):
        result = run_campaign(CampaignConfig(
            mechanism=mechanism, budget=12, out_dir=str(tmp_path)))
        paths = [ce["repro_path"] for ce in result.counterexamples]
        assert paths
        for path in paths:
            assert replay_repro(path)["ok"], path

    def test_roundtrip_preserves_fields(self, tmp_path):
        result = self._campaign(tmp_path)
        path = result.counterexamples[0]["repro_path"]
        loaded = ReproFile.load(path)
        assert loaded.mechanism == "arp"
        assert loaded.prefix == result.counterexamples[0]["prefix"]
        assert loaded.verdict["kind"] == "structural"

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError):
            ReproFile.load(str(path))

    def test_tampered_prefix_does_not_reproduce(self, tmp_path):
        result = self._campaign(tmp_path)
        path = result.counterexamples[0]["repro_path"]
        data = json.loads(open(path).read())
        data["prefix"] = 0  # empty NVM image always recovers
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(data))
        assert not replay_repro(str(tampered))["ok"]


class TestCorpus:
    def test_save_load_roundtrip(self, tmp_path):
        corpus = Corpus()
        corpus.add(CorpusEntry(ScheduleMutation(), 0, None, 10))
        corpus.add(CorpusEntry(ScheduleMutation.make([(3, 1)]), 4,
                               corpus.entries[0].mutation.digest(), 2))
        coverage = CoverageMap(["a|b|b1"])
        written = corpus.save(str(tmp_path), coverage)
        assert "coverage.json" in written
        loaded = Corpus.load(str(tmp_path))
        assert loaded.digests() == corpus.digests()
        assert [e.exec_index for e in loaded.entries] == [0, 4]
        assert load_coverage(str(tmp_path)).to_list() == ["a|b|b1"]

    def test_select_deterministic(self):
        corpus = Corpus()
        for i in range(5):
            corpus.add(CorpusEntry(ScheduleMutation.make([(i, 1)]),
                                   i, None, 1))
        picks = [corpus.select(make_rng(2, "sel", i)).exec_index
                 for i in range(8)]
        assert picks == [corpus.select(make_rng(2, "sel", i)).exec_index
                         for i in range(8)]

    def test_select_empty_raises(self):
        with pytest.raises(ValueError):
            Corpus().select(make_rng(0, "sel"))


def _fingerprint(result):
    return {
        "coverage": result.coverage.to_list(),
        "corpus": result.corpus.digests(),
        "counterexamples": [
            (list(ce["mutation"].nudges), ce["prefix"],
             ce["problems"][:1])
            for ce in result.counterexamples
        ],
    }


class TestCampaign:
    def test_arp_campaign_finds_and_shrinks(self):
        result = run_campaign(CampaignConfig(
            mechanism="arp", budget=10, crash_samples=12))
        assert not result.clean
        assert result.contract_ok
        assert result.counterexamples
        ce = result.counterexamples[0]
        assert ce["shrunk"] and ce["strictly_smaller"]
        assert ce["verdict"]["cut_violations"] > 0

    def test_nop_campaign_finds_and_shrinks(self):
        result = run_campaign(CampaignConfig(mechanism="nop", budget=12))
        assert not result.clean
        assert result.contract_ok
        shrunk = [ce for ce in result.counterexamples if ce["shrunk"]]
        assert any(ce["strictly_smaller"] for ce in shrunk)
        assert any(ce["verdict"]["cut_violations"] > 0 for ce in shrunk)

    def test_lrp_campaign_is_clean(self):
        result = run_campaign(CampaignConfig(
            mechanism="lrp", budget=10, crash_samples=12))
        assert result.clean and result.contract_ok
        assert not result.counterexamples

    @pytest.mark.parametrize("mechanism", ["sb", "bb"])
    def test_eager_campaigns_are_clean(self, mechanism):
        result = run_campaign(CampaignConfig(mechanism=mechanism,
                                             budget=8))
        assert result.clean and result.contract_ok
        assert not result.counterexamples

    def test_same_seed_is_bit_identical(self, tmp_path):
        config = CampaignConfig(mechanism="arp", budget=12,
                                crash_samples=12, seed=3)
        # Saving the corpus to a directory changes nothing either.
        rerun = dataclasses.replace(config, corpus_dir=str(tmp_path))
        assert _fingerprint(run_campaign(config)) == \
            _fingerprint(run_campaign(rerun))

    def test_different_seed_differs(self):
        a = run_campaign(CampaignConfig(mechanism="lrp", budget=16,
                                        seed=1))
        b = run_campaign(CampaignConfig(mechanism="lrp", budget=16,
                                        seed=2))
        # Different workload seeds explore different runs entirely.
        assert _fingerprint(a) != _fingerprint(b)

    def test_corpus_directory_written(self, tmp_path):
        run_campaign(CampaignConfig(mechanism="arp", budget=8,
                                    corpus_dir=str(tmp_path)))
        assert (tmp_path / "coverage.json").exists()
        loaded = Corpus.load(str(tmp_path))
        assert len(loaded) >= 1  # at least the baseline entry

    def test_report_shape(self):
        result = run_campaign(CampaignConfig(mechanism="lrp", budget=4))
        report = result.report()
        assert report["mechanism"] == "lrp"
        assert report["enforces_rp"] is True
        assert report["executions"] == 4
        json.dumps(report)  # must be JSON-serializable

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            run_campaign(CampaignConfig(budget=0))


class TestCampaignCLI:
    def test_campaign_exit_codes(self, capsys):
        from repro.fuzz.__main__ import main

        assert main(["--mechanism", "arp", "--budget", "8",
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["--mechanism", "lrp", "--budget", "4",
                     "--quiet"]) == 0
        capsys.readouterr()

    def test_weak_mechanism_without_findings_fails(self, capsys):
        from repro.fuzz.__main__ import main

        # Budget 1 on a clean mechanism is fine; on ARP the baseline
        # already fails, so force the "no findings" branch via sb.
        # sb enforces RP -> clean run exits 0; an ARP run that found
        # nothing would exit 1 (contract): simulate that by checking
        # the contract property directly.
        result = run_campaign(CampaignConfig(mechanism="arp", budget=2,
                                             crash_samples=2,
                                             max_counterexamples=0))
        assert not result.contract_ok
