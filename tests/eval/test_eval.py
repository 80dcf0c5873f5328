"""Evaluation harness tests: Table-1 runner, renderers, ablations."""

import pytest

from repro.circuits import row_by_name
from repro.eval import (
    ablation_fundep,
    ablation_opt_level,
    ablation_reach_bound,
    ablation_retiming,
    ablation_simulation,
    render_table1,
    run_row,
    run_table,
)


def test_run_row_columns():
    row = row_by_name("s386")
    result = run_row(row)
    d = result.as_dict()
    assert d["circuit"] == "s386"
    assert d["regs"].startswith("6/")
    assert d["proposed"]["verdict"] is True
    assert d["proposed"]["retimes"] is not None
    assert d["traversal"]["verdict"] is True
    assert 0 <= d["eqs"] <= 100


def test_run_row_without_traversal():
    row = row_by_name("s386")
    result = run_row(row, run_traversal=False)
    assert result.traversal is None
    d = result.as_dict()
    assert d["traversal"] == {"time": None, "nodes": None, "its": None}


def test_run_row_traversal_abort_rendered():
    row = row_by_name("s838")
    result = run_row(row, traversal_time_limit=2.0,
                     traversal_max_iterations=50)
    assert result.traversal.inconclusive
    assert result.proposed.proved
    text = render_table1([result])
    assert "abort" in text
    assert "s838" in text


def test_run_table_and_render():
    rows = [row_by_name("s386"), row_by_name("s510")]
    results = run_table(rows, traversal_time_limit=30)
    text = render_table1(results)
    assert "s386" in text and "s510" in text
    assert "eqs%" in text
    lines = text.splitlines()
    assert len(lines) == 2 + len(results)


def test_ablation_simulation_shape():
    results = ablation_simulation([row_by_name("s386")])
    assert results[0]["both_proved"]
    assert results[0]["its_sim"] <= results[0]["its_nosim"]


def test_ablation_opt_level_shape():
    results = ablation_opt_level([row_by_name("s386")])
    row = results[0]
    assert row["both_proved"]
    assert row["eqs_optimized"] <= row["eqs_retime_only"] + 1e-9


def test_ablation_retiming_fig3_row():
    results = ablation_retiming(rows=[])
    fig3 = results[0]
    assert fig3["circuit"] == "fig3"
    assert fig3["proved_on"] and not fig3["proved_off"]


def test_ablation_reach_bound_shape():
    results = ablation_reach_bound()
    names = {r["circuit"] for r in results}
    assert names == {"onehot", "onehot_en"}
    for r in results:
        assert r["with_reach"] is True


# Exact values of the paper's ablations (EXPERIMENTS.md E3, E4, E5, E7).
# Every count below is deterministic.


@pytest.mark.parametrize("name,proved_off,rounds,augmented", [
    ("fig3", False, 1, 1),
    ("s298", True, 0, 0),
    ("s386", True, 0, 0),
])
def test_ablation_retiming_counts(name, proved_off, rounds, augmented):
    """E3: only Fig. 3 needs the retiming augmentation (Fig. 4)."""
    rows = [] if name == "fig3" else [row_by_name(name)]
    result = ablation_retiming(rows=rows)[-1]
    assert result["circuit"] == name
    assert result["proved_on"]
    assert result["proved_off"] is proved_off
    assert (result["rounds"], result["augmented"]) == (rounds, augmented)


@pytest.mark.parametrize("name,its_sim,its_nosim", [
    ("s298", 7, 20),
    ("s386", 1, 5),
    ("s838", 59, 68),
])
def test_ablation_simulation_iterations(name, its_sim, its_nosim):
    """E4: simulation seeding saves fixed-point iterations (§4)."""
    result, = ablation_simulation([row_by_name(name)])
    assert result["both_proved"]
    assert (result["its_sim"], result["its_nosim"]) == (its_sim, its_nosim)


@pytest.mark.parametrize("name,subs,nodes_fd,nodes_nofd,trav_plain", [
    ("s298", 112, 948, 15129, False),
    ("s386", 7, 567, 1317, True),
])
def test_ablation_fundep_counts(name, subs, nodes_fd, nodes_nofd,
                                trav_plain):
    """E5: functional-dependency substitution and peak BDD nodes (§4).

    Traversal proves both rows with register correspondence; without it,
    s298 exceeds the 200k-node budget.
    """
    result, = ablation_fundep([row_by_name(name)])
    assert result["both_proved"]
    assert result["subs"] == subs
    assert (result["nodes_fd"], result["nodes_nofd"]) == (nodes_fd,
                                                          nodes_nofd)
    assert result["trav_fd_time"] is not None
    assert (result["trav_plain_time"] is not None) is trav_plain


@pytest.mark.parametrize("name,eqs_retime_only,eqs_optimized", [
    ("s298", 95.7, 87.2),
    ("s344", 100.0, 100.0),
    ("s386", 82.4, 76.5),
    ("s953", 97.4, 93.4),
    ("s1196", 90.9, 84.8),
])
def test_ablation_opt_level_eqs(name, eqs_retime_only, eqs_optimized):
    """E7: %eqs after retiming only vs. after optimization (§5)."""
    result, = ablation_opt_level([row_by_name(name)])
    assert result["both_proved"]
    assert round(result["eqs_retime_only"], 1) == eqs_retime_only
    assert round(result["eqs_optimized"], 1) == eqs_optimized
