"""Tests for the DPOR small-scope model checker (repro.mc).

The load-bearing pins: DPOR covers every Mazurkiewicz trace class of
every suite program exactly once (against brute-force enumeration),
the principal-ideal verdict agrees with exhaustive crash-state
enumeration, the Px86-derived axioms agree with rp_model's obligation
pairs on every explored trace, every suite program (and the DPOR-only
``chain4``) keeps the Figure-1 contract, and every ARP/NOP witness
round-trips through the fuzzer's repro-file replay.
"""

import json

import pytest

from repro.consistency.happens_before import HappensBefore
from repro.consistency.litmus import (
    all_interleavings,
    count_interleavings,
    figure1_insert,
    figure1_initial_memory,
    figure1_sequential_schedule,
    read,
    run_interleaving,
    write,
)
from repro.fuzz.reprofile import LitmusReproFile, replay_repro
from repro.mc import __main__ as mc_main
from repro.mc.checker import DEFAULT_MECHANISMS, check_program
from repro.mc.dpor import (
    DependencyOrder,
    DPORExplorer,
    explore_program,
    trace_key,
)
from repro.mc.judge import (
    cut_violations,
    enumerate_crash_states,
    judge_trace,
    materialize_persist_log,
)
from repro.mc.programs import PROGRAMS, SUITE, get_program
from repro.mc.px86 import px86_write_pairs
from repro.persistency.rp_model import persist_sequence_from_log


def _run(program, schedule):
    return run_interleaving(program.program(), schedule,
                            init=program.initial_memory())


def _fig1_trace():
    return run_interleaving(figure1_insert(),
                            figure1_sequential_schedule(),
                            init=figure1_initial_memory())


class TestDependencyOrder:
    def test_program_order_is_dependency(self):
        # Same-thread ops depend even on disjoint words (po edge).
        trace = run_interleaving([[write(0x8, 1), read(0x10)]], [0, 0])
        dep = DependencyOrder(trace.events)
        assert dep.ordered(0, 1)

    def test_disjoint_cross_thread_ops_independent(self):
        trace = run_interleaving([[write(0x8, 1)], [write(0x10, 2)]],
                                 [0, 1])
        dep = DependencyOrder(trace.events)
        assert not dep.ordered(0, 1)
        assert not dep.ordered(1, 0)

    def test_conflicting_accesses_dependent(self):
        trace = run_interleaving([[write(0x8, 1)], [read(0x8)]], [0, 1])
        dep = DependencyOrder(trace.events)
        assert dep.ordered(0, 1)

    def test_read_read_same_word_independent(self):
        trace = run_interleaving([[read(0x8)], [read(0x8)]], [0, 1])
        dep = DependencyOrder(trace.events)
        assert not dep.ordered(0, 1)
        assert not dep.ordered(1, 0)


class TestTraceKey:
    def test_equivalent_schedules_same_key(self):
        # Disjoint writers: every interleaving is one class.
        program = [[write(0x8, 1), write(0x10, 2)],
                   [write(0x18, 3), write(0x20, 4)]]
        keys = {trace_key(run_interleaving(program, s))
                for s in all_interleavings(program)}
        assert len(keys) == 1

    def test_conflicting_orders_distinct_keys(self):
        program = [[write(0x8, 1)], [read(0x8)]]
        k_wr = trace_key(run_interleaving(program, [0, 1]))
        k_rw = trace_key(run_interleaving(program, [1, 0]))
        assert k_wr != k_rw


class TestDPORCoverage:
    @pytest.mark.parametrize("name", SUITE)
    def test_every_class_exactly_once(self, name):
        """The headline DPOR pin: class sets identical to brute force,
        no class explored twice, strictly fewer schedules run."""
        program = PROGRAMS[name]
        schedules, stats = explore_program(program.program())
        dpor_keys = [trace_key(_run(program, s)) for s in schedules]
        brute_schedules = list(all_interleavings(program.program()))
        # The enumerator agrees with the closed-form count that the
        # reduction is measured against.
        assert len(brute_schedules) == count_interleavings(
            program.program()) == stats.interleavings
        brute_keys = {trace_key(_run(program, s))
                      for s in brute_schedules}
        assert set(dpor_keys) == brute_keys
        assert len(dpor_keys) == len(set(dpor_keys))
        assert len(schedules) < stats.interleavings

    def test_bcast4_has_eight_classes(self):
        # 3 independent reader-vs-release orientations => 2^3 classes.
        schedules, _stats = explore_program(
            PROGRAMS["bcast4"].program())
        assert len(schedules) == 8

    def test_mp3_chain_interleaving_count(self):
        program = PROGRAMS["mp3_chain"]
        assert program.interleavings == 560
        assert count_interleavings(program.program()) == 560
        assert len(list(all_interleavings(program.program()))) == 560

    def test_reduction_reported(self):
        _schedules, stats = explore_program(
            PROGRAMS["figure1_insert"].program())
        assert stats.interleavings == 126
        assert stats.schedules_explored == 3
        assert stats.reduction == pytest.approx(42.0)

    def test_explorer_run_is_idempotent(self):
        explorer = DPORExplorer(PROGRAMS["mp3_chain"].program())
        first = explorer.run()
        second = explorer.run()
        assert first == second


class TestJudge:
    def test_arp_witness_on_sequential_figure1(self):
        """The paper's Figure 1(e): ARP may persist the link CAS
        before the node fields it releases."""
        trace = _fig1_trace()
        judgements = judge_trace(trace, list(DEFAULT_MECHANISMS))
        for name in ("sb", "bb", "lrp"):
            assert judgements[name].clean, name
        for name in ("arp", "nop"):
            assert not judgements[name].clean, name
        witness = judgements["arp"].witness
        # The violating state exposes the link CAS without the fields.
        rmw = next(e for e in trace.events
                   if e.kind.value == "rmw" and e.thread_id == 0)
        assert witness.visible_event == rmw.event_id
        assert witness.missing_event < rmw.event_id

    @pytest.mark.parametrize("mechanism", DEFAULT_MECHANISMS)
    def test_principal_ideal_matches_exhaustive(self, mechanism):
        """judge_trace's O(m^2) verdict == the 2^m enumeration."""
        trace = _fig1_trace()
        judgement = judge_trace(trace, [mechanism])[mechanism]
        exhaustive_clean = all(
            consistent for _seq, consistent
            in enumerate_crash_states(trace, mechanism))
        assert judgement.clean == exhaustive_clean

    def test_witness_state_is_enumerated_and_inconsistent(self):
        trace = _fig1_trace()
        witness = judge_trace(trace, ["arp"])["arp"].witness
        states = {tuple(seq): consistent for seq, consistent
                  in enumerate_crash_states(trace, "arp")}
        assert states[tuple(witness.persist_sequence)] is False

    def test_materialized_log_preserves_sequence(self):
        trace = _fig1_trace()
        witness = judge_trace(trace, ["arp"])["arp"].witness
        nvm = materialize_persist_log(trace,
                                      list(witness.persist_sequence))
        replayed = persist_sequence_from_log(
            trace, [r.word_events() for r in nvm.persist_log()])
        assert replayed == list(witness.persist_sequence)

    def test_materialize_rejects_non_write(self):
        trace = _fig1_trace()
        a_read = next(e for e in trace.events
                      if not e.is_write_effect).event_id
        with pytest.raises(ValueError, match="not a write"):
            materialize_persist_log(trace, [a_read])

    def test_witness_confirmed_by_rpchecker(self):
        trace = _fig1_trace()
        witness = judge_trace(trace, ["arp"])["arp"].witness
        count, problems = cut_violations(
            trace, list(witness.persist_sequence))
        assert count > 0
        assert problems

    def test_execution_prefixes_are_clean(self):
        trace = _fig1_trace()
        writes = [e.event_id for e in trace.events if e.is_write_effect]
        for prefix in range(len(writes) + 1):
            count, _ = cut_violations(trace, writes[:prefix])
            assert count == 0, f"prefix {prefix} flagged"


class TestPx86CrossCheck:
    def test_agrees_with_rp_model_on_all_figure1_schedules(self):
        """The independently-derived Px86 axioms reconstruct exactly
        rp-mode write_pairs on all 126 figure-1 interleavings."""
        program = PROGRAMS["figure1_insert"]
        for schedule in all_interleavings(program.program()):
            trace = _run(program, schedule)
            hb = HappensBefore.from_trace(trace, mode="rp")
            rp_pairs = {(a.event_id, b.event_id)
                        for a, b in hb.write_pairs()}
            assert px86_write_pairs(trace) == rp_pairs, schedule

    def test_agrees_on_dpor_representatives_of_suite(self):
        for name in SUITE:
            program = PROGRAMS[name]
            schedules, _ = explore_program(program.program())
            for schedule in schedules:
                trace = _run(program, schedule)
                hb = HappensBefore.from_trace(trace, mode="rp")
                rp_pairs = {(a.event_id, b.event_id)
                            for a, b in hb.write_pairs()}
                assert px86_write_pairs(trace) == rp_pairs, (name,
                                                            schedule)


class TestCheckProgram:
    def test_figure1_contract(self):
        check = check_program("figure1_insert")
        assert check.contract_ok
        assert check.clean_map() == {"sb": True, "bb": True,
                                     "lrp": True, "arp": False,
                                     "nop": False}

    @pytest.mark.slow
    @pytest.mark.parametrize("hb_mode", ["rp", "rc"])
    @pytest.mark.parametrize("name", SUITE)
    def test_dpor_verdicts_match_brute_force(self, name, hb_mode):
        """Satellite pin: DPOR == brute-force verdicts for every canned
        program under every mechanism, in both hb modes."""
        dpor = check_program(name, method="dpor", hb_mode=hb_mode,
                             cross_check=False)
        brute = check_program(name, method="brute", hb_mode=hb_mode,
                              cross_check=False)
        assert dpor.clean_map() == brute.clean_map()

    def test_unknown_program_raises(self):
        with pytest.raises(ValueError, match="unknown litmus program"):
            check_program("no_such_program")

    def test_unknown_method_raises(self):
        with pytest.raises(ValueError, match="unknown exploration"):
            check_program("figure1_insert", method="bfs")


class TestSuiteContract:
    @pytest.mark.parametrize("name", SUITE)
    def test_contract_holds_and_witnesses_replay(self, name, tmp_path):
        """The Figure-1 contract on every suite program (it includes
        Px86 agreement and clean execution-prefix cuts on every
        explored trace), and both weak mechanisms' witnesses replay
        through the fuzzer's repro machinery."""
        check = check_program(name, out_dir=str(tmp_path))
        assert check.contract_ok
        witnesses = {mechanism: verdict.repro_path
                     for mechanism, verdict in check.verdicts.items()
                     if verdict.repro_path}
        assert set(witnesses) == {"arp", "nop"}
        for path in witnesses.values():
            assert replay_repro(path)["ok"], path

    @pytest.mark.slow
    @pytest.mark.parametrize("name", SUITE)
    def test_brute_force_traces_agree_with_px86(self, name):
        brute = check_program(name, method="brute")
        assert brute.px86_traces == brute.stats.interleavings
        assert brute.px86_agreements == brute.px86_traces

    def test_chain4_contract_and_reduction(self, tmp_path):
        """The DPOR-only program, past brute-force scope."""
        check = check_program("chain4", out_dir=str(tmp_path))
        assert check.contract_ok
        assert check.stats.interleavings == 277200
        assert check.stats.schedules_explored < check.stats.interleavings


class TestWitnessRoundTrip:
    def test_repro_file_replays(self, tmp_path):
        check = check_program("figure1_insert", out_dir=str(tmp_path))
        path = check.verdicts["arp"].repro_path
        assert path is not None
        result = replay_repro(path)
        assert result["ok"]
        assert result["program"] == "figure1_insert"
        assert result["mechanism"] == "arp"
        assert result["replayed"]["kind"] == "litmus-cut"

    def test_tampered_verdict_fails_replay(self, tmp_path):
        check = check_program("figure1_insert", out_dir=str(tmp_path))
        path = check.verdicts["nop"].repro_path
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        data["verdict"]["problems"] = ["doctored diagnosis"]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        assert not replay_repro(path)["ok"]

    def test_bad_thread_id_in_schedule_raises(self, tmp_path):
        repro = LitmusReproFile(
            program="figure1_insert", mechanism="arp",
            schedule=[-1] * 9, persist_sequence=[0],
            verdict={"kind": "litmus-cut", "problems": []})
        path = tmp_path / "bad.json"
        repro.save(str(path))
        with pytest.raises(ValueError, match="invalid thread id"):
            replay_repro(str(path))

    def test_non_write_persist_sequence_is_mismatch(self, tmp_path):
        program = get_program("figure1_insert")
        trace = _run(program, figure1_sequential_schedule())
        a_read = next(e for e in trace.events
                      if not e.is_write_effect).event_id
        repro = LitmusReproFile(
            program="figure1_insert", mechanism="arp",
            schedule=figure1_sequential_schedule(),
            persist_sequence=[a_read],
            verdict={"kind": "litmus-cut", "problems": []})
        path = tmp_path / "nonwrite.json"
        repro.save(str(path))
        result = replay_repro(str(path))
        assert not result["ok"]
        assert result["replayed"]["kind"] == "mismatch"


class TestCLI:
    def test_list_exits_zero(self, capsys):
        assert mc_main.main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in PROGRAMS:
            assert name in out

    def test_check_single_program_holds(self, capsys):
        assert mc_main.main(["--program", "figure1_insert",
                             "--quiet"]) == 0
        assert "contract HOLDS" in capsys.readouterr().out

    def test_unknown_program_exits_two(self, capsys):
        assert mc_main.main(["--program", "bogus"]) == 2
        assert "unknown litmus program" in capsys.readouterr().err

    def test_unwritable_out_is_one_line(self, tmp_path, capsys):
        """An --out path under a regular file is one error line and
        status 2, not a traceback."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert mc_main.main(["--program", "figure1_insert",
                             "--mechanism", "arp", "--quiet",
                             "--out", str(blocker / "sub")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro.mc: error: ") and err.count("\n") == 1
