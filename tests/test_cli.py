"""End-to-end command-line checks through in-process main() calls."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from interval_lab.cli import _design_config, main
from interval_lab.kg_core import GammaGrid, kg_interval, spline_pair_from_json
from interval_lab.kg_design import DesignConfig
from interval_lab.model_prep import SufficientStats
from interval_lab.special_fn import t_pdf, t_two_sided

GOLDEN = Path(__file__).parent / "golden" / "designed_pair.json"

FIG1_FLAGS = [
    "--theta-hat", "0", "--tau-hat", "0.3", "--sigma-hat", "0.1",
    "--m", "100", "--rho", "0.98",
]


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    lines = [ln for ln in text.strip().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    data = np.array([[float(tok) for tok in ln.split(",")] for ln in lines[1:]])
    return header, data


class TestPosterior:
    def test_slab_only_density_is_scaled_t(self, capsys):
        code, out, _ = run(
            capsys, "posterior", "--theta-hat", "1.0", "--tau-hat", "0.5",
            "--sigma-hat", "2.0", "--m", "20", "--rho", "0.4", "--xi", "0",
        )
        assert code == 0
        header, data = parse_csv(out)
        assert header == ["theta", "density"]
        expected = t_pdf((data[:, 0] - 1.0) / 2.0, 20) / 2.0
        np.testing.assert_allclose(data[:, 1], expected, rtol=1e-9, atol=1e-12)
        assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-4)

    def test_bimodal_fixture(self, capsys):
        code, out, _ = run(capsys, "posterior", *FIG1_FLAGS, "--xi", "0.8")
        assert code == 0
        _, data = parse_csv(out)
        assert len(data) == 2001
        signs = np.sign(np.diff(data[:, 1]))
        assert int(np.sum(signs[:-1] * signs[1:] < 0)) == 3

    def test_points_flag(self, capsys):
        code, out, _ = run(
            capsys, "posterior", *FIG1_FLAGS, "--xi", "0.8", "--points", "101",
        )
        assert code == 0
        _, data = parse_csv(out)
        assert len(data) == 101

    def test_provenance_header(self, capsys):
        code, out, _ = run(capsys, "posterior", *FIG1_FLAGS)
        first = out.splitlines()[0]
        assert first.startswith("# interval-lab posterior")
        assert "numpy" in first and "scipy" in first

    def test_requires_single_source(self, capsys):
        code, _, err = run(capsys, "posterior", "--theta-hat", "1.0")
        assert code == 1
        assert "error:" in err


class TestCredible:
    def test_classical_limit(self, capsys, tmp_path):
        out_path = tmp_path / "iv.json"
        code, _, _ = run(
            capsys, "credible", "--theta-hat", "2.0", "--tau-hat", "1.0",
            "--sigma-hat", "0.5", "--m", "8", "--rho", "0.3", "--xi", "0",
            "--output", str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        crit = t_two_sided(0.05, 8)
        assert doc["kind"] == "equi"
        (iv,) = doc["intervals"]
        assert iv["lower"] == pytest.approx(2.0 - crit * 0.5, rel=1e-9)
        assert iv["upper"] == pytest.approx(2.0 + crit * 0.5, rel=1e-9)
        assert iv["scaled_offset"] == pytest.approx(0.0, abs=1e-9)
        assert iv["scaled_half_length"] == pytest.approx(crit, rel=1e-9)

    def test_hpd_two_intervals(self, capsys):
        code, out, _ = run(
            capsys, "credible", *FIG1_FLAGS, "--xi", "0.8", "--kind", "hpd",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["intervals"]) == 2
        assert doc["total_length"] == pytest.approx(
            sum(iv["upper"] - iv["lower"] for iv in doc["intervals"]), rel=1e-9
        )

    def test_shortest_not_longer_than_equi(self, capsys):
        flags = ["--theta-hat", "0", "--tau-hat", "2.0", "--sigma-hat", "1.0",
                 "--m", "4", "--rho", "-0.707", "--xi", "0.8"]
        _, out_eq, _ = run(capsys, "credible", *flags)
        _, out_sh, _ = run(capsys, "credible", *flags, "--kind", "shortest")
        eq = json.loads(out_eq)["total_length"]
        sh = json.loads(out_sh)["total_length"]
        assert sh <= eq + 1e-9


class TestApply:
    def test_reverted_for_large_r(self, capsys):
        code, out, _ = run(
            capsys, "apply", "--spline", str(GOLDEN), "--theta-hat", "1.0",
            "--tau-hat", "13.0", "--sigma-hat", "1.0", "--m", "4", "--rho", "-0.707",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["reverted_to_standard"] is True
        crit = t_two_sided(0.05, 4)
        assert doc["lower"] == pytest.approx(1.0 - crit, rel=1e-9)
        assert doc["upper"] == pytest.approx(1.0 + crit, rel=1e-9)

    def test_matches_library_interval(self, capsys):
        sp = spline_pair_from_json(GOLDEN.read_text())
        stats = SufficientStats(theta_hat=0.2, tau_hat=3.0, sigma_hat=1.5, m=4, rho=sp.rho)
        code, out, _ = run(
            capsys, "apply", "--spline", str(GOLDEN), "--theta-hat", "0.2",
            "--tau-hat", "3.0", "--sigma-hat", "1.5", "--m", "4", "--rho", str(sp.rho),
        )
        assert code == 0
        doc = json.loads(out)
        iv = kg_interval(stats, sp)
        assert doc["lower"] == pytest.approx(iv.lower, rel=1e-9)
        assert doc["upper"] == pytest.approx(iv.upper, rel=1e-9)
        assert doc["reverted_to_standard"] is False
        assert doc["r"] == pytest.approx(2.0, rel=1e-12)


class TestEvaluate:
    def test_small_grid(self, capsys):
        code, out, _ = run(
            capsys, "evaluate", "--spline", str(GOLDEN),
            "--gamma-upper", "2", "--gamma-step", "0.5",
        )
        assert code == 0
        header, data = parse_csv(out)
        assert header == ["gamma", "coverage", "e", "e2"]
        np.testing.assert_allclose(data[:, 0], np.linspace(0.0, 2.0, 5), atol=1e-12)
        assert np.all(data[:, 1] >= 0.9499)
        np.testing.assert_allclose(data[:, 3], data[:, 2] ** 2, rtol=1e-9)

    def test_sel_dips_at_origin(self, capsys):
        code, out, _ = run(
            capsys, "evaluate", "--spline", str(GOLDEN),
            "--gamma-upper", "1", "--gamma-step", "1",
        )
        assert code == 0
        _, data = parse_csv(out)
        assert data[0, 3] == pytest.approx(0.8522, abs=1e-3)


class TestSimulate:
    def test_standard_json_and_determinism(self, capsys):
        argv = [
            "simulate", "--standard", "--m", "4", "--rho", "0.0",
            "--gamma", "0", "--n-rep", "20000", "--seed", "7",
        ]
        code, out1, _ = run(capsys, *argv)
        assert code == 0
        code, out2, _ = run(capsys, *argv)
        assert out1 == out2
        doc = json.loads(out1)
        assert doc["n_rep"] == 20000
        assert doc["procedure_id"].startswith("standard")
        assert abs(doc["coverage_estimate"] - 0.95) <= 4.0 * doc["coverage_se"]

    def test_spline_mode(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--spline", str(GOLDEN),
            "--gamma", "0", "--n-rep", "20000", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["procedure_id"].startswith("kg(")

    def test_requires_one_mode(self, capsys):
        code, _, err = run(
            capsys, "simulate", "--spline", str(GOLDEN), "--standard", "--gamma", "0",
            "--m", "4", "--rho", "0.0",
        )
        assert code == 1 and "error:" in err
        code, _, err = run(capsys, "simulate", "--gamma", "0")
        assert code == 1 and "error:" in err


class TestFigures:
    def test_scaled_summaries_depend_on_family(self, capsys):
        _, out2, _ = run(capsys, "figure", "fig2", "--step", "1")
        _, out4, _ = run(capsys, "figure", "fig4", "--step", "1")
        h2, d2 = parse_csv(out2)
        h4, d4 = parse_csv(out4)
        assert h2 == ["r", "offset_sigma1", "halflen_sigma1", "offset_sigma10", "halflen_sigma10"]
        assert h2 == h4
        # the scale-graded family is invariant in sigma_hat, the
        # variance-flat family is not
        np.testing.assert_allclose(d4[:, 1], d4[:, 3], atol=1e-9)
        np.testing.assert_allclose(d4[:, 2], d4[:, 4], atol=1e-9)
        i = int(np.argmin(np.abs(d2[:, 0] - 2.0)))
        assert abs(d2[i, 2] - d2[i, 4]) > 1e-3

    def test_offset_parity(self, capsys):
        _, out, _ = run(capsys, "figure", "fig2", "--step", "2.5")
        _, data = parse_csv(out)
        r = data[:, 0]
        for col in (1, 3):
            np.testing.assert_allclose(
                data[:, col], -data[::-1, col], atol=1e-8
            ), (col, r)
        for col in (2, 4):
            np.testing.assert_allclose(data[:, col], data[::-1, col], atol=1e-8)

    def test_fig1_density(self, capsys):
        code, out, _ = run(capsys, "figure", "fig1")
        assert code == 0
        _, data = parse_csv(out)
        assert len(data) == 2001
        signs = np.sign(np.diff(data[:, 1]))
        assert int(np.sum(signs[:-1] * signs[1:] < 0)) == 3

    def test_fig6_values(self, capsys):
        code, out, _ = run(capsys, "figure", "fig6", "--spline", str(GOLDEN), "--step", "2")
        assert code == 0
        header, data = parse_csv(out)
        assert header == ["gamma", "e2"]
        assert data[0, 0] == 0.0 and data[-1, 0] == 20.0
        assert data[0, 1] == pytest.approx(0.8522, abs=1e-3)
        assert data[-1, 1] == pytest.approx(1.0, abs=1e-3)

    def test_fig7_spline_trace(self, capsys):
        code, out, _ = run(capsys, "figure", "fig7", "--spline", str(GOLDEN), "--step", "0.5")
        assert code == 0
        header, data = parse_csv(out)
        assert header == ["r", "offset", "halflen", "is_knot"]
        sp = spline_pair_from_json(GOLDEN.read_text())
        knots = {0.0, 2.0, 4.0, 6.0, 8.0, 10.0}
        for r, off, half, isk in data:
            assert isk == (1.0 if abs(r) in knots or abs(abs(r) - 12.0) < 1e-9 else 0.0)
        mid = len(data) // 2
        assert data[mid, 0] == 0.0
        # negative zero must not leak into the offset column
        zero_row = out.strip().splitlines()[2 + mid]
        assert zero_row.split(",")[1] == "0"

    def test_fig6_requires_spline(self, capsys):
        code, _, err = run(capsys, "figure", "fig6")
        assert code == 1 and "error:" in err


class TestErrorsAndOutput:
    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_figure_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig9"])
        assert exc.value.code == 2

    def test_missing_spline_file(self, capsys):
        code, _, err = run(capsys, "apply", "--spline", "/nonexistent.json",
                           "--theta-hat", "0", "--tau-hat", "0", "--sigma-hat", "1",
                           "--m", "4", "--rho", "0")
        assert code == 1 and "error:" in err

    def test_bad_spline_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"d": 12.0}')
        code, _, err = run(capsys, "apply", "--spline", str(bad),
                           "--theta-hat", "0", "--tau-hat", "0", "--sigma-hat", "1",
                           "--m", "4", "--rho", "0")
        assert code == 1 and "missing" in err

    def test_output_file_matches_stdout_payload(self, capsys, tmp_path):
        _, out, _ = run(capsys, "figure", "fig7", "--spline", str(GOLDEN), "--step", "5")
        path = tmp_path / "fig7.csv"
        code, _, _ = run(capsys, "figure", "fig7", "--spline", str(GOLDEN), "--step", "5",
                         "--output", str(path))
        assert code == 0
        payload = lambda text: [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert payload(path.read_text()) == payload(out)

    def test_thread_env_does_not_change_output(self, capsys, monkeypatch):
        argv = ["figure", "fig2", "--step", "2.5"]
        monkeypatch.setenv("INTERVAL_LAB_THREADS", "1")
        _, out1, _ = run(capsys, *argv)
        monkeypatch.setenv("INTERVAL_LAB_THREADS", "2")
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2

    def test_bad_thread_env(self, capsys, monkeypatch):
        monkeypatch.setenv("INTERVAL_LAB_THREADS", "0")
        code, _, err = run(capsys, "figure", "fig2", "--step", "5")
        assert code == 1 and "INTERVAL_LAB_THREADS" in err


class TestGoldenFigures:
    """Regenerate each stored figure and compare numerically."""

    CASES = {
        "fig1.csv": ["figure", "fig1"],
        "fig2.csv": ["figure", "fig2", "--step", "0.5"],
        "fig3.csv": ["figure", "fig3", "--step", "0.5"],
        "fig4.csv": ["figure", "fig4", "--step", "0.5"],
        "fig5.csv": ["figure", "fig5", "--step", "0.5"],
        "fig6.csv": ["figure", "fig6", "--spline", str(GOLDEN), "--step", "0.5"],
        "fig7.csv": ["figure", "fig7", "--spline", str(GOLDEN), "--step", "0.25"],
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_stored_csv(self, capsys, name):
        code, out, _ = run(capsys, *self.CASES[name])
        assert code == 0
        head_new, data_new = parse_csv(out)
        head_old, data_old = parse_csv((GOLDEN.parent / name).read_text())
        assert head_new == head_old
        np.testing.assert_allclose(data_new, data_old, rtol=1e-6, atol=1e-12)


class TestDesignConfigParsing:
    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run(capsys, "design", "--config", str(cfg))
        assert code == 1 and "unknown design config fields" in err

    @pytest.mark.parametrize(
        "key",
        ["coverage_pad", "order_x", "order_w", "fd_step", "penalty_init", "penalty_growth",
         "obj_tol"],
    )
    def test_removed_knob_rejected(self, capsys, tmp_path, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 8}))
        code, _, err = run(capsys, "design", "--config", str(cfg))
        assert code == 1 and f"unknown design config fields: {key}" in err

    @pytest.mark.parametrize(
        "doc",
        [
            {"penalty_stages": 2.5},
            {"penalty_stages": "3"},
            {"knots": 5},
            {"rho": "x"},
            {"max_iter": 0},
            {"constraint_tol": -1},
            {"gamma_step": [0.5]},
            [1, 2],
        ],
    )
    def test_bad_config_is_a_domain_error(self, capsys, tmp_path, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        code, _, err = run(capsys, "design", "--config", str(cfg))
        assert code == 1 and err.startswith("error:") and "Traceback" not in err

    def test_config_file_maps_onto_design_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": 6, "knots": [0, 3, 6], "gamma_step": 0.25}))
        assert _design_config(cfg) == DesignConfig(
            d=6.0,
            knots=(0.0, 3.0, 6.0),
            gamma_constraint_grid=GammaGrid.regular(20.0, 0.25),
        )
