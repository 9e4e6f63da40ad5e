"""Tests of the benchmark's own logic.  Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import run  # noqa: E402
from checks import Model, Tally, artifact_digests, coef_max_rel_err, support_errors  # noqa: E402
from spans import (  # noqa: E402
    Span, Tracer, TraceError, check_expected, dp45_step_attempts, installed, layer_metrics,
    self_time, self_time_table,
)
from workloads import WORKLOADS, Workload, derive_config, true_model  # noqa: E402


def span(id, name, start, end, parent=None):
    return Span(id, name, parent, "r", start, end)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    parent = span(0, "p", 0.0, 10.0)
    kids = [span(1, "a", 1.0, 3.0, 0), span(2, "b", 2.0, 4.0, 0), span(3, "c", 9.0, 12.0, 0)]
    # covered: [1, 4] and [9, 10] -> 4 of 10
    assert self_time(parent, kids) == pytest.approx(6.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_self_time_table_sums_per_name():
    spans = [span(0, "p", 0.0, 10.0), span(1, "c", 1.0, 3.0, 0), span(2, "c", 4.0, 5.0, 0)]
    rows = {r["name"]: r for r in self_time_table(spans)}
    assert rows["p"] == {"name": "p", "calls": 1, "total_s": 10.0, "self_s": 7.0}
    assert rows["c"]["calls"] == 2 and rows["c"]["self_s"] == pytest.approx(3.0)


def test_dp45_step_attempts_matches_counted_right_hand_side_calls():
    from sindykit.integrate import dp45_adaptive

    calls = 0

    def f(x):
        nonlocal calls
        calls += 1
        return np.array([x[1], -x[0]])

    _, accepted = dp45_adaptive(f, np.array([1.0, 0.0]), np.linspace(0.0, 5.0, 51),
                                record_steps=True)
    attempts = dp45_step_attempts(calls, 1)
    assert attempts == int(attempts)  # one start-up call, then six per attempt
    assert attempts >= len(accepted)
    assert dp45_step_attempts(6 * 10 + 3, 3) == 10


def test_support_errors_and_coefficient_error_on_a_hand_built_model():
    names, truth = true_model({"system": {"kind": "lorenz",
                                          "params": {"sigma": 10.0, "beta": 2.0, "rho": 28.0}}})
    terms = ("1", "x", "y", "z", "xy", "xz")
    coef = {t: [0.0, 0.0, 0.0] for t in terms}
    for k, row in enumerate(truth):
        for term, value in row.items():
            coef[term][k] = value
    coef["x"][0] = -10.5  # 5% off, support unchanged
    coef["xz"][1] = 0.0   # missing true term
    coef["1"][2] = 0.3    # spurious term
    model = Model(names, terms, tuple(tuple(coef[t]) for t in terms))
    assert support_errors(model, truth) == 2
    assert coef_max_rel_err(model, truth) == pytest.approx(1.0)  # the dropped xz term


def test_failed_ops_counts_a_nonzero_exit_and_a_raise(tmp_path):
    workload = Workload("w", "w.json", ("generate", "fit", "sweep"), "", frozenset(),
                        frozenset(), 0.0)

    def fake_main(argv):
        if argv[0] == "fit":
            return 3
        if argv[0] == "sweep":
            raise IndexError("boom")
        return 0

    runs, _ = run.run_pass(workload, fake_main, tmp_path / "cfg.json", tmp_path / "p")
    tally = Tally(runs)
    assert [r.exit_code for r in runs] == [0, 3, None]
    assert "IndexError" in runs[2].error
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_share == pytest.approx(2 / 3)


def without_seeds(cfg):
    cfg = copy.deepcopy(cfg)
    cfg.pop("seed", None)
    cfg.get("noise", {}).pop("seed", None)
    return cfg


def test_seed_zero_reproduces_every_shipped_config_and_seed_shifts_only_seeds():
    for path in sorted((HERE.parent / "configs").glob("*.json")):
        shipped = json.loads(path.read_text())
        assert derive_config(shipped, 0) == shipped
        shifted = derive_config(shipped, 3)
        assert shifted["seed"] == shipped["seed"] + 3
        if "seed" in shipped.get("noise", {}):
            assert shifted["noise"]["seed"] == shipped["noise"]["seed"] + 3
        assert without_seeds(shifted) == without_seeds(shipped)


def test_artifact_digests_ignore_the_pass_directory(tmp_path):
    for name in ("a", "b"):
        d = tmp_path / name
        d.mkdir()
        (d / "run_report.json").write_text(json.dumps({"model": f"{d}/model.json"}))
    assert artifact_digests(tmp_path / "a") == artifact_digests(tmp_path / "b")


def test_installed_wraps_every_binding_and_restores_it():
    import sindykit
    import sindykit.cli
    import sindykit.regression

    original, original_rhs = sindykit.regression.fit, sindykit.SparseModel.rhs
    tracer = Tracer("t")
    with installed(tracer):
        assert sindykit.fit is sindykit.regression.fit is sindykit.cli.fit is not original
        spec = sindykit.SystemSpec("lorenz", x0=(-8.0, 7.0, 27.0), t_span=(0.0, 2.0),
                                   dt=0.01, params={"sigma": 10.0, "beta": 8 / 3, "rho": 28.0})
        data = sindykit.simulate(spec)
        model, _ = sindykit.fit(data, sindykit.LibrarySpec(3, 2),
                                sindykit.StlsqConfig(threshold=0.025))
        model.rhs()(np.array([1.0, 2.0, 3.0]))
    assert sindykit.fit is sindykit.regression.fit is sindykit.cli.fit is original
    assert sindykit.SparseModel.rhs is original_rhs
    check_expected(tracer.spans, tracer.loose,
                   frozenset({"systems.simulate", "regression.stlsq"}),
                   frozenset({"systems.rhs_evals", "model.rhs_evals"}))
    with pytest.raises(TraceError, match="selection.sweep"):
        check_expected(tracer.spans, tracer.loose, frozenset({"selection.sweep"}), frozenset())
    metrics = layer_metrics(tracer.spans, tracer.loose)
    assert metrics["systems.samples"][0] == 201
    # RK4 calls the RHS four times per step; the derivative loop once per sample
    assert metrics["systems.rhs_evals"][0] == 4 * 200 + 201
    assert metrics["library.cells"][0] == 201 * 10
    assert metrics["model.rhs_evals"][0] == 1
    assert metrics["regression.fit_calls"][0] == 1


def test_every_workload_has_a_true_model_for_its_shipped_config():
    for workload in WORKLOADS.values():
        cfg = json.loads((HERE.parent / "configs" / workload.config).read_text())
        names, truth = true_model(cfg)
        assert len(names) == len(truth)
