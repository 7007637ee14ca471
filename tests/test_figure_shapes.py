"""The paper's claims, as predicates over the committed figure integers.

The paper's evidence is a set of shapes: SB >> BB > LRP ~ NOP in
Figures 5 and 7, LRP's few critical writebacks in Figure 6, its flat
thread curve in Figure 8, the §6.4 size sweep, the RET, BB-epoch and
BST ablations, the persist-buffer extension, and SB/BB/LRP recovering
where ARP/NOP do not. Each test reads only ``BENCH_figures.json``
(``fig5_makespan``) and ``tests/data/figure_pins.json`` and simulates
nothing; the slow pin tests keep those integers equal to what the code
computes. So regenerating the pins cannot break a paper claim quietly.

Ratios are the figures' own: normalized = makespan / nop; the Figure 6
fraction = critical / total; the Figure 8 and size overhead =
100 * (makespan - nop) / nop. The bands are wider than the paper's
percentages because the substrate is a behavioral simulator.

``TestExperimentsTables`` checks every number EXPERIMENTS.md prints for
Figures 5-8, the size sweep and the extension against the same
integers, at the precision it is printed with.
"""

import json
import re
from pathlib import Path

import pytest

from tests import figure_pins

ROOT = Path(__file__).resolve().parent.parent
FIG5 = json.loads((ROOT / "BENCH_figures.json").read_text())["fig5_makespan"]
PINS = figure_pins.golden()
FIG7 = PINS["fig7"]
FIG8 = PINS["fig8"]
DOC = (ROOT / "EXPERIMENTS.md").read_text()


def normalized(cells, mech):
    return cells[mech] / cells["nop"]


def improvement(cells, slower, faster):
    """Fractional exec-time improvement of ``faster`` over ``slower``."""
    return (cells[slower] - cells[faster]) / cells[slower]


def mean_improvement(fig, slower, faster):
    gains = [improvement(cells, slower, faster) for cells in fig.values()]
    return sum(gains) / len(gains)


def overhead(cells, mech):
    """% execution-time overhead over NOP."""
    return (cells[mech] - cells["nop"]) / cells["nop"] * 100.0


def fraction(counts):
    critical, total = counts
    return critical / total


def by_int_key(table):
    """``table``'s values in numeric order of its string keys."""
    return [table[key] for key in sorted(table, key=int)]


def fig8_series(workload, mech):
    return [overhead(cells, mech) for cells in by_int_key(FIG8[workload])]


def size_series(mech):
    return [overhead(cells, mech) for cells in by_int_key(PINS["size"])]


class TestFigure5Shape:
    """Paper: BB beats SB by 24-68%, LRP beats BB by 14-44% and stays
    within 2-8% of volatile execution (cached mode, 32 threads)."""

    def test_sb_is_never_best(self):
        for cells in FIG5.values():
            sb = normalized(cells, "sb")
            assert sb >= normalized(cells, "bb") - 0.05
            assert sb >= normalized(cells, "lrp") - 0.05

    def test_bb_beats_sb_on_average(self):
        assert mean_improvement(FIG5, "sb", "bb") > 0.05

    def test_lrp_beats_bb_on_average(self):
        assert mean_improvement(FIG5, "bb", "lrp") > 0.0

    def test_lrp_close_to_nop_on_index_structures(self):
        """The queue deviates (EXPERIMENTS.md); the other four LFDs
        must stay within ~10%."""
        for workload in ("linkedlist", "hashmap", "bstree", "skiplist"):
            assert normalized(FIG5[workload], "lrp") < 1.12, workload

    def test_write_intensive_gap_larger_than_read_intensive(self):
        """Section 6.4: the LRP-over-BB gap is smaller for the
        read-heavy linked list than for the write-intensive hashmap."""
        list_gain = improvement(FIG5["linkedlist"], "bb", "lrp")
        hash_gain = improvement(FIG5["hashmap"], "bb", "lrp")
        assert hash_gain > list_gain


class TestFigure6Shape:
    """Paper: ~51% of BB's writebacks are on the critical path against
    ~10% of LRP's, which persists mostly by eviction (invariant I1)."""

    def test_lrp_lower_critical_fraction_on_index_structures(self):
        """The linked list and queue invert this in the strictly
        serialized interleaving (EXPERIMENTS.md deviations 1 and 3)."""
        index = ("hashmap", "bstree", "skiplist")
        bb = sum(fraction(PINS["fig6"][w]["bb"]) for w in index)
        lrp = sum(fraction(PINS["fig6"][w]["lrp"]) for w in index)
        assert lrp < bb + 0.05

    def test_index_structures_mostly_off_critical_path_for_lrp(self):
        for workload in ("hashmap", "bstree", "skiplist"):
            assert fraction(PINS["fig6"][workload]["lrp"]) < 0.30, workload

    def test_fractions_are_valid(self):
        for counts in PINS["fig6"].values():
            for value in counts.values():
                assert 0.0 <= fraction(value) <= 1.0


class TestFigure7Shape:
    """Paper: with 350-cycle persists LRP keeps a 3-19% overhead and
    widens its margin over BB."""

    def test_lrp_beats_bb_on_average(self):
        assert mean_improvement(FIG7, "bb", "lrp") > 0.0

    def test_sb_worst_on_average(self):
        assert mean_improvement(FIG7, "sb", "bb") > 0.0

    def test_lrp_robust_on_index_structures(self):
        for workload in ("hashmap", "bstree", "skiplist"):
            assert normalized(FIG7[workload], "lrp") < 1.25, workload

    def test_uncached_hurts_sb_more_than_lrp(self):
        for workload in ("hashmap", "skiplist"):
            sb_growth = (normalized(FIG7[workload], "sb")
                         - normalized(FIG5[workload], "sb"))
            lrp_growth = (normalized(FIG7[workload], "lrp")
                          - normalized(FIG5[workload], "lrp"))
            assert sb_growth > lrp_growth, workload


class TestFigure8Shape:
    """Paper: LRP's overhead stays flat from 1 to 32 threads, while BB
    carries a visibly larger one on write-intensive workloads."""

    WORKLOADS = ("hashmap", "bstree", "skiplist", "queue")

    def test_lrp_overhead_flat_on_index_structures(self):
        for workload in ("hashmap", "bstree", "skiplist"):
            series = fig8_series(workload, "lrp")
            assert max(series) < 15.0, (workload, series)

    def test_single_thread_lrp_near_zero(self):
        for workload in self.WORKLOADS:
            assert fig8_series(workload, "lrp")[0] < 10.0, workload

    def test_bb_overhead_exceeds_lrp_at_32_threads_on_hashmap(self):
        assert fig8_series("hashmap", "bb")[-1] > \
            fig8_series("hashmap", "lrp")[-1]

    def test_thread_counts_cover_paper_range(self):
        for workload in self.WORKLOADS:
            thread_counts = sorted(map(int, FIG8[workload]))
            assert thread_counts[0] == 1
            assert thread_counts[-1] == 32


def test_size_sensitivity():
    """Section 6.4: sizes 8K-1M "did not observe a significant change";
    the hashmap sweeps 8K-64K here."""
    assert max(size_series("lrp")) < 15.0
    for mech in ("bb", "lrp"):
        series = size_series(mech)
        assert max(series) - min(series) < 25.0, (mech, series)


def test_ret_ablation():
    """Section 5.2.1: tiny RETs force watermark drains, which stay off
    the critical path; the paper's 32 entries need (almost) none."""
    ret = PINS["ret"]
    ret_sizes = sorted(map(int, ret["lrp"]))
    cells = by_int_key(ret["lrp"])
    drains = [cell["ret_watermark_drains"] for cell in cells]
    normal = [cell["makespan"] / ret["nop"] for cell in cells]
    assert all(drains[i] >= drains[i + 1] for i in range(len(drains) - 1))
    assert drains[ret_sizes.index(32)] <= drains[0] // 4 + 1
    assert max(normal) - min(normal) < 0.10


def test_bb_epoch_ordering_ablation():
    """Ack-gated epoch drain over-orders (every epoch behind every
    epoch), the cost LRP's one-sided barriers avoid (Section 4.2)."""
    cells = FIG8["hashmap"]["16"]
    ack_gated = PINS["bb_epochs"]["ack_gated"] / cells["nop"]
    assert ack_gated >= normalized(cells, "bb")


def test_bst_write_intensity_ablation():
    """The Natarajan-Mittal tree allocates and frees two nodes per
    update, the tombstone tree none: write intensity is what opens the
    LRP-over-BB gap."""
    rows = {}
    for structure, pins in PINS["bst"].items():
        rows[structure] = {
            "bb": normalized(pins["makespan"], "bb"),
            "lrp": normalized(pins["makespan"], "lrp"),
            "persists_per_op_bb":
                pins["bb_total_persists"] / max(1, pins["bb_total_ops"]),
        }
    nm, tomb = rows["bstree"], rows["bstree_tomb"]
    assert nm["persists_per_op_bb"] > tomb["persists_per_op_bb"]
    assert nm["lrp"] < 1.10
    assert tomb["lrp"] < 1.10
    assert nm["bb"] >= tomb["bb"] - 0.02


def test_persist_buffer_class_comparison():
    """Section 2.2.1: DPO pays for its global chain and HOPS fixes it;
    the word-granular buffers issue far more NVM writes; LRP matches
    the best latency with the fewest writes (the §4.2 coalescing)."""
    nop = PINS["buffer_class"]["nop"]["makespan"]
    result = {mech: {"normalized": cell["makespan"] / nop,
                     "nvm_writes": cell["total_persists"]}
              for mech, cell in PINS["buffer_class"].items()}
    assert result["dpo"]["normalized"] >= result["hops"]["normalized"]
    assert result["hops"]["nvm_writes"] > 1.5 * result["lrp"]["nvm_writes"]
    enforcers = [row for mech, row in result.items() if mech != "nop"]
    fastest = min(row["normalized"] for row in enforcers)
    assert result["lrp"]["normalized"] <= fastest + 0.05
    assert result["lrp"]["nvm_writes"] == min(
        row["nvm_writes"] for row in enforcers)


class TestRecoveryMatrixShape:
    """Sections 3-4: RP enforcers leave a consistent cut at every crash
    point; volatile execution and ARP do not."""

    ROWS = [{"workload": workload, "mechanism": mech, **cell}
            for workload, cells in PINS["recovery"].items()
            for mech, cell in cells.items()]

    def test_rp_mechanisms_always_recover(self):
        for row in self.ROWS:
            if row["mechanism"] in ("sb", "bb", "dpo", "hops", "lrp"):
                assert row["unrecoverable"] == 0, row

    def test_nop_corrupts_most_workloads(self):
        corrupted = sum(
            1 for row in self.ROWS
            if row["mechanism"] == "nop" and row["unrecoverable"] > 0)
        assert corrupted >= 4

    def test_arp_corrupts_somewhere(self):
        total = sum(row["unrecoverable"] for row in self.ROWS
                    if row["mechanism"] == "arp")
        assert total > 0

    def test_coverage_is_complete(self):
        assert len({row["workload"] for row in self.ROWS}) == 5
        assert {row["mechanism"] for row in self.ROWS} == {
            "nop", "arp", "sb", "bb", "dpo", "hops", "lrp"}


def doc_section(heading):
    """The text under the ``## `` heading that starts with ``heading``."""
    return DOC.split("\n## " + heading, 1)[1].split("\n## ", 1)[0]


def doc_table(heading):
    """Header and body rows of the first table in a section."""
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in doc_section(heading).splitlines()
            if line.startswith("|")]
    return rows[0], rows[2:]


def printed(value, text):
    """``value`` at the number of decimals ``text`` is printed with."""
    return f"{value:.{len(text.partition('.')[2])}f}"


class TestExperimentsTables:
    @pytest.mark.parametrize("heading, fig", [("Figure 5 ", FIG5),
                                              ("Figure 7 ", FIG7)],
                             ids=["fig5", "fig7"])
    def test_normalized_tables(self, heading, fig):
        header, rows = doc_table(heading)
        assert {row[0] for row in rows} == set(fig)
        for workload, *values in rows:
            assert values == [
                printed(normalized(fig[workload], mech.lower()), text)
                for mech, text in zip(header[1:], values)], workload

    def test_figure6_table(self):
        header, rows = doc_table("Figure 6 ")
        assert {row[0] for row in rows} == set(PINS["fig6"])
        for workload, *values in rows:
            assert values == [
                printed(fraction(PINS["fig6"][workload][mech.lower()])
                        * 100, text.rstrip("%")) + "%"
                for mech, text in zip(header[1:], values)], workload

    def test_figure8_table(self):
        header, rows = doc_table("Figure 8 ")
        for workload, mech, *values in rows:
            assert values == [
                printed(overhead(FIG8[workload][threads], mech.lower()),
                        text)
                for threads, text in zip(header[2:], values)], workload

    def test_size_sentence(self):
        match = re.search(r"BB ([\d/]+) and LRP ([\d/]+) across",
                          doc_section("§6.4 "))
        for mech, text in zip(("bb", "lrp"), match.groups()):
            assert text.split("/") == [
                f"{value:.0f}" for value in size_series(mech)], mech

    def test_bb_epoch_sentence(self):
        # The Figure 5 assessment's BB epoch-ordering numbers.
        cells = dict(FIG8["hashmap"]["16"],
                     ack_gated=PINS["bb_epochs"]["ack_gated"])
        match = re.search(
            r"LRP beats the ack-gated BB by ([\d.]+)%\s+\(([\d,]+) "
            r"against ([\d,]+) cycles\) and the pipelined BB by "
            r"([\d.]+)%\s+\(([\d,]+)\)", doc_section("Figure 5 "))
        gated, lrp, gated_cycles, pipelined, bb_cycles = match.groups()
        assert [lrp, gated_cycles, bb_cycles] == [
            f"{cells[mech]:,}" for mech in ("lrp", "ack_gated", "bb")]
        assert gated == printed(
            improvement(cells, "ack_gated", "lrp") * 100, gated)
        assert pipelined == printed(
            improvement(cells, "bb", "lrp") * 100, pipelined)

    def test_extension_table(self):
        _, rows = doc_table("Extension: ")
        cells = PINS["buffer_class"]
        assert {row[0] for row in rows} == set(cells) - {"nop"}
        for mech, time, writes in rows:
            assert time == printed(
                cells[mech]["makespan"] / cells["nop"]["makespan"], time)
            assert int(writes) == cells[mech]["total_persists"]
