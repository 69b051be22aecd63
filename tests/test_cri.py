from __future__ import annotations

import math

import numpy as np
import pytest

from circuitforge.connectome import Role
from circuitforge.cri import (
    FOLD_CHANGE_LIMIT,
    CriTable,
    ExpressionMatrix,
    FoldChangeTable,
    TopK,
    ZScore,
    clip_fold_changes,
    compute_cri,
    load_cri_table,
    load_expression,
    load_fold_changes,
    select_correlated,
    write_cri_table,
)
from circuitforge.errors import (
    EmptyTable,
    InvalidConfig,
    KExceedsPopulation,
    MalformedRow,
    MissingFoldChange,
    NonFiniteValue,
    UnknownRole,
)


def test_clip_bounds():
    clipped = clip_fold_changes(FoldChangeTable({"a": 73.2, "b": -70.0, "c": 12.5}))
    assert clipped.values["a"] == FOLD_CHANGE_LIMIT == 50.0
    assert clipped.values["b"] == -50.0
    assert clipped.values["c"] == 12.5


def test_clip_rejects_non_finite():
    with pytest.raises(NonFiniteValue):
        clip_fold_changes(FoldChangeTable({"a": float("nan")}))


def test_compute_cri_hand_example():
    w = ExpressionMatrix({("g1", "n1"): 0.5, ("g1", "n2"): 0.2, ("g2", "n1"): 0.1})
    m = FoldChangeTable({"g1": 10.0, "g2": -60.0})  # g2 clips to -50
    cri = compute_cri(w, m, neurons=["n1", "n2", "n3"])
    assert cri.values["n1"] == pytest.approx(0.5 * 10 + 0.1 * 50, rel=1e-15)
    assert cri.values["n2"] == pytest.approx(2.0, rel=1e-15)
    assert cri.values["n3"] == 0.0
    assert cri.n_genes == 2


def test_compute_cri_matches_double_loop_oracle():
    rng = np.random.default_rng(11)
    for _ in range(25):
        genes = [f"g{i}" for i in range(rng.integers(2, 15))]
        neurons = [f"n{i}" for i in range(rng.integers(2, 12))]
        w = {}
        for g in genes:
            for n in neurons:
                if rng.random() < 0.6:
                    w[(g, n)] = float(rng.random())
        m = {g: float(rng.normal(0, 60)) for g in genes}
        cri = compute_cri(ExpressionMatrix(w), FoldChangeTable(m), neurons)
        for n in neurons:
            expected = 0.0
            for g in genes:
                fold = min(max(m[g], -50.0), 50.0)
                expected += w.get((g, n), 0.0) * abs(fold)
            if expected:
                assert abs(cri.values[n] - expected) / abs(expected) <= 1e-12
            else:
                assert cri.values[n] == 0.0


def test_compute_cri_requires_fold_changes_for_expressed_genes():
    w = ExpressionMatrix({("g1", "n1"): 0.5})
    with pytest.raises(MissingFoldChange):
        compute_cri(w, FoldChangeTable({}), ["n1"])


ROLES = {"A": Role.SENSORY, "B": Role.SENSORY, "C": Role.INTER, "D": Role.MOTOR}


def test_select_topk_partitions_by_role():
    cri = CriTable({"A": 9.0, "B": 3.0, "C": 7.0, "D": 5.0}, n_genes=1)
    sel = select_correlated(cri, ROLES, TopK(3))
    assert sel.sensory == {"A"}
    assert sel.inter == {"C"}
    assert sel.motor == {"D"}
    assert sel.counts == (1, 1, 1)


def test_select_topk_tie_breaks_by_name():
    cri = CriTable({"A": 5.0, "B": 5.0, "C": 5.0, "D": 1.0}, n_genes=1)
    sel = select_correlated(cri, ROLES, TopK(2))
    assert sel.all == {"A", "B"}


def test_select_topk_k_too_large():
    cri = CriTable({"A": 1.0}, n_genes=1)
    with pytest.raises(KExceedsPopulation):
        select_correlated(cri, ROLES, TopK(2))


def test_select_empty_table():
    with pytest.raises(EmptyTable):
        select_correlated(CriTable({}, n_genes=0), ROLES, TopK(1))


def test_select_requires_roles():
    cri = CriTable({"Z": 1.0}, n_genes=1)
    with pytest.raises(UnknownRole):
        select_correlated(cri, ROLES, TopK(1))


def test_select_zscore():
    values = {"A": 10.0, "B": 1.0, "C": 1.0, "D": 0.0}
    mean = sum(values.values()) / 4
    std = math.sqrt(sum((v - mean) ** 2 for v in values.values()) / 4)
    cri = CriTable(values, n_genes=1)
    sel = select_correlated(cri, ROLES, ZScore(threshold=1.0))
    expected = {n for n, v in values.items() if (v - mean) / std > 1.0}
    assert sel.all == expected == {"A"}


def test_select_zscore_flat_distribution_selects_nothing():
    cri = CriTable({"A": 2.0, "B": 2.0, "C": 2.0, "D": 2.0}, n_genes=1)
    sel = select_correlated(cri, ROLES, ZScore(threshold=1.0))
    assert sel.all == frozenset()


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf, True, "1.0", 1j, None])
def test_select_zscore_refuses_a_bad_threshold(threshold):
    cri = CriTable({"A": 10.0, "B": 1.0, "C": 1.0, "D": 0.0}, n_genes=1)
    with pytest.raises(InvalidConfig, match=r"^threshold must be a finite number, got "):
        select_correlated(cri, ROLES, ZScore(threshold))


def test_select_zscore_takes_an_int_or_negative_threshold():
    cri = CriTable({"A": 10.0, "B": 1.0, "C": 1.0, "D": 0.0}, n_genes=1)
    assert select_correlated(cri, ROLES, ZScore(1)).all == {"A"}
    assert select_correlated(cri, ROLES, ZScore(-5.0)).all == {"A", "B", "C", "D"}


def test_load_fold_changes(tmp_path):
    path = tmp_path / "fc.csv"
    path.write_text("gene,fold_change\nodr-10,12.5\nstr-2,-60\n")
    table = load_fold_changes(path)
    assert table.values == {"odr-10": 12.5, "str-2": -60.0}


def test_load_expression_fraction_and_percent(tmp_path):
    frac = tmp_path / "wf.csv"
    frac.write_text("gene,neuron,proportion\ng1,n1,0.5\n")
    assert load_expression(frac).w[("g1", "n1")] == 0.5

    pct = tmp_path / "wp.csv"
    pct.write_text("#units=percent\ngene,neuron,proportion\ng1,n1,50\n")
    assert load_expression(pct).w[("g1", "n1")] == pytest.approx(0.5)


def test_load_expression_rejects_out_of_range(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("gene,neuron,proportion\ng1,n1,1.4\n")
    with pytest.raises(MalformedRow):
        load_expression(path)


def test_cri_table_round_trip(tmp_path):
    cri = CriTable({"A": 3.25, "B": 10.0}, n_genes=2)
    path = tmp_path / "cri.csv"
    write_cri_table(cri, ROLES, path)
    text = path.read_text()
    assert text.splitlines()[0] == "neuron,role,cri"
    assert text.splitlines()[1].startswith("B,")  # sorted by index, descending
    back, roles = load_cri_table(path)
    assert back.values == cri.values
    assert roles["A"] is Role.SENSORY
