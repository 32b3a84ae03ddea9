"""Batch-runner behaviour: config plumbing, reports, exit codes."""

import json
from fractions import Fraction

import numpy as np
import pytest

from cyglue import cli
from cyglue import gluing as gl
from cyglue.errors import ConfigInvalid, Degenerate, DomainEscape

SMALL_SCAN = {
    "command": "glue-scan",
    "t_list": [0.4, 0.25, 0.16, 0.1],
    "n_radial": 2,
    "link_level": [2, 2, 2],
    "n_sup_dirs": 4,
}


# doc: the config's keys beside "command": "thm52", or the file's whole
# text when a string, or no file at all when None; key: the word the
# error message must hold
BAD_CONFIGS = [
    ({"t_list": "0.4"}, [], "t_list"),
    ({"link_level": 4}, [], "link_level"),
    ({"nu": "two"}, [], "nu"),
    ({"amplitude": [0.003]}, [], "amplitude"),
    ({"seed": True}, [], "seed"),
    ({"workers": 0}, [], "workers"),
    ({}, ["--nu", "-1"], "nu"),
    pytest.param('{"command": "thm52",', [], "not valid JSON",
                 id="invalid-json"),
    pytest.param(None, [], "cannot read config file", id="no-file"),
    pytest.param("[1]", [], "must hold a JSON object",
                 id="not-an-object"),
    ({}, ["--t-list", "0.4,abc"], "t_list"),
    ({"command": "glue-scan", "n_radial": 0}, [], "n_radial"),
    ({"n_sup_dirs": 0}, [], "n_sup_dirs"),
    ({"link_level": [4, 0, 4]}, [], "link_level"),
    ({"link_level": [4, 4, 4, 4]}, [], "link_level"),
    ({"link_level": [4, 4]}, [], "link_level"),
    ({"t_list": [0.4, 0.2, 0.0, 0.1]}, [], "t_list"),
    ({"steps": -8}, [], "steps"),
    ({"command": "cone-verify", "seed": -1}, [], "seed"),
    ({"command": "moser", "nu": 0}, [], "nu"),
    ({}, ["--lam", "nan"], "lam"),
    ({}, ["--fit-slack", "-1"], "fit_slack"),
    ({}, ["--amplitude", "inf"], "amplitude"),
    ({"geometry": "flat_c3"}, [], "geometry"),
    ({"command": "glue-scan", "geometry": "c3_mod_z3"}, [], "geometry"),
    ({"workers": None}, [], "workers"),
    ({"command": "moser", "steps": 0}, [], "steps"),
    ({"command": "moser", "geometry": "calabi_ale_o3"}, [], "geometry"),
    ({"nu": 10 ** 400}, [], "nu"),
]
# the rows whose document is invalid on its own (a pytest.param row
# unpacks to its values, marks and id, and its values are no dict)
BAD_DOCUMENTS = [(doc, key) for doc, flags, key in BAD_CONFIGS
                 if isinstance(doc, dict) and not flags]


@pytest.fixture(scope="module")
def scan_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan")
    cfg = out / "config.json"
    cfg.write_text(json.dumps({**SMALL_SCAN, "out": str(out)}))
    code = cli.main(["--config", str(cfg)])
    return code, out, cfg


class TestConfigPlumbing:
    def test_defaults(self):
        config = cli.load_config(None, {"command": "thm52"})
        assert config.workers == 1
        assert config.seed == 0
        assert config.t_list == (0.4, 0.283, 0.2, 0.141, 0.1)
        assert config.lam == -6.0

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "thm52", "seed": 5,
                                   "nu": 2.0}))
        config = cli.load_config(str(cfg), {"seed": 9})
        assert config.seed == 9
        assert config.nu == 2.0

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "thm52", "typo": 1}))
        with pytest.raises(ConfigInvalid):
            cli.load_config(str(cfg), {})

    def test_unknown_command_rejected(self):
        with pytest.raises(ConfigInvalid):
            cli.load_config(None, {"command": "frobnicate"})
        with pytest.raises(ConfigInvalid):
            cli.load_config(None, {})

    def test_flag_overrides_file_workers(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"command": "thm52", "workers": 4}))
        assert cli.load_config(str(cfg), {"workers": 3}).workers == 3
        assert cli.load_config(str(cfg), {}).workers == 4

    @pytest.mark.parametrize("doc, flags, key", BAD_CONFIGS)
    def test_bad_config_exits_two(self, doc, flags, key, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        if isinstance(doc, dict):
            cfg.write_text(json.dumps({"command": "thm52", **doc}))
        elif doc is not None:
            cfg.write_text(doc)
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path),
                         *flags])
        assert code == 2
        assert not (tmp_path / "report.json").exists()
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("doc, key", BAD_DOCUMENTS)
    def test_bad_values_raise_on_construction(self, doc, key):
        # a RunConfig built in Python obeys the config file's rules
        with pytest.raises(ConfigInvalid, match=key):
            cli.RunConfig(**{"command": "thm52", **doc})

    def test_construction_normalises_lists_and_floats(self):
        config = cli.RunConfig(command="thm52", t_list=[1, 0.5, 0.25, 0.1],
                               link_level=[3, 3, 3], nu=2)
        assert config.t_list == (1.0, 0.5, 0.25, 0.1)
        assert config.link_level == (3, 3, 3)
        assert type(config.nu) is float and type(config.t_list[0]) is float

    def test_run_refuses_the_catalogue(self):
        with pytest.raises(ConfigInvalid, match="no suite"):
            cli.run(cli.RunConfig(command="list-geometries"))

    def test_t_list_flag_parsing(self, capsys, tmp_path):
        code = cli.main(["thm52", "--t-list", "0.5,0.3,0.2,0.1",
                         "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["t_list"] == [0.5, 0.3, 0.2, 0.1]


class TestFastSuites:
    def test_pointwise_passes(self, tmp_path, capsys):
        assert cli.main(["pointwise", "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert sum(ln.startswith("pass ") for ln in lines) == 6
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["overall_pass"]
        assert report["schema_version"] == 1
        names = [c["name"] for c in report["checks"]]
        assert "torsion_psi_vanishes" in names

    def test_cone_verify_passes(self, tmp_path, capsys):
        assert cli.main(["cone-verify", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["overall_pass"]
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["dilation_omega_factor_4"]["predicted"] == 0.0
        assert len(report["fitted"]["lie_step_ratios"]) >= 3

    def test_cone_verify_flat_geometry(self, tmp_path):
        assert cli.main(["cone-verify", "--geometry", "flat_c3",
                         "--out", str(tmp_path)]) == 0

    def test_cone_verify_rejects_ac_geometry(self, tmp_path):
        assert cli.main(["cone-verify", "--geometry", "calabi_ale_o3",
                         "--out", str(tmp_path)]) == 2

    def test_moser_passes(self, tmp_path):
        assert cli.main(["moser", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        res = report["fitted"]["residuals"]
        assert res["64"] < 1e-6
        assert res["8"] > res["16"] > res["64"]

    @pytest.mark.parametrize("error", [Degenerate, DomainEscape])
    def test_failed_moser_flow_still_writes_its_report(
            self, error, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise error("flow failed at sample 3", sample_index=[3])
        monkeypatch.setattr(cli.mo, "moser_integrate", failing)
        assert cli.main(["moser", "--out", str(tmp_path)]) == 1

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        report = json.loads((tmp_path / "report.json").read_text(),
                            parse_constant=refuse)
        assert not report["overall_pass"]
        assert [(c["name"], c["passed"]) for c in report["checks"]] == [
            ("moser_flow", False)]
        assert report["extras"]["error"] == {
            "type": error.__name__, "message": "flow failed at sample 3",
            "sample_index": [3]}
        assert "overall: FAIL" in capsys.readouterr().out

    def test_ale_verify_passes(self, tmp_path):
        assert cli.main(["ale-verify", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        slope = report["fitted"]["metric_decay"]["slope"]
        assert abs(slope + 6.0) < 0.3

    def test_thm52_report_constants(self, tmp_path):
        assert cli.main(["thm52", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["extras"]["alpha"] == "4/5"
        assert report["extras"]["kappa"] == "3/5"
        assert report["extras"]["gamma"] == "6/5"

    def test_thm52_second_rate_pair(self, tmp_path):
        assert cli.main(["thm52", "--nu", "4", "--out",
                         str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["extras"]["alpha"] == "5/7"
        assert report["extras"]["kappa"] == "6/7"


    def test_thm52_misplaced_neck_fails_only_l2_conical(self, tmp_path):
        # kappa's conical term nu/2 is the L2 slack only at the default
        # alpha, so alpha = 0.7 keeps kappa = 9/10 and breaks l2_conical
        assert cli.main(["thm52", "--alpha", "0.7", "--out",
                         str(tmp_path)]) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["extras"]["kappa"] == "9/10"
        ledger = report["extras"]["ledger"]
        assert [k for k, ok in ledger.items() if not ok] == ["l2_conical"]
        assert {c["name"] for c in report["checks"] if not c["passed"]} == \
            {"exact_ledger"}

    def test_thm52_alpha_override_passes_when_the_ledger_holds(self,
                                                               tmp_path):
        # alpha = 39/50 keeps every inequality at kappa = (1 - alpha) 3
        assert cli.main(["thm52", "--alpha", "0.78", "--out",
                         str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["extras"]["alpha"] == "39/50"
        assert report["extras"]["kappa"] == "33/50"
        assert all(report["extras"]["ledger"].values())
        alpha = report["checks"][0]
        assert alpha["name"] == "alpha" and alpha["predicted"] == 0.78

    def test_thm52_fails_when_an_offset_exceeds_l2(self, monkeypatch):
        monkeypatch.setattr(gl, "_FAMILY_OFFSETS",
                            dict(gl._FAMILY_OFFSETS, steep=Fraction(4)))
        report = cli.run(cli.RunConfig(command="thm52"))
        failed = {c.name for c in report.checks if not c.passed}
        assert "l2_implies_remaining_inequalities" in failed
        assert not report.overall_pass


class TestListGeometries:
    def test_catalogue(self, capsys, tmp_path):
        assert cli.main(["list-geometries", "--out", str(tmp_path)]) == 0
        entries = json.loads(capsys.readouterr().out)
        names = {e["name"] for e in entries}
        assert names == {"flat_c3", "c3_mod_z3", "calabi_ale_o3",
                         "t6_z3_patch"}
        ale = next(e for e in entries if e["name"] == "calabi_ale_o3")
        assert ale["rate"] == -6.0
        on_disk = json.loads((tmp_path / "geometries.json").read_text())
        assert on_disk == entries

    def test_quotient_descriptor(self, capsys):
        cli.main(["list-geometries"])
        entries = json.loads(capsys.readouterr().out)
        quot = next(e for e in entries if e["name"] == "c3_mod_z3")
        assert quot["deck_order"] == 3
        assert quot["psi_period"] == pytest.approx(2 * np.pi / 3)


class TestGlueScan:
    def test_passes_and_writes_artifacts(self, scan_run):
        code, out, _ = scan_run
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["overall_pass"]
        assert (out / "scan.csv").exists()

    def test_report_contents(self, scan_run):
        _, out, _ = scan_run
        report = json.loads((out / "report.json").read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert by_name["c0_defect_exponent"]["predicted"] == 1.2
        assert by_name["l2_defect_exponent"]["predicted"] == pytest.approx(
            1.2 + 3 * 0.8)
        assert report["extras"]["kappa"] == "3/5"
        assert report["extras"]["rows"] == 4
        assert "t * delta(g_Y)" in report["extras"]["injectivity_radius"]
        assert report["fitted"]["neck_volume"]["slope"] == pytest.approx(
            4.8, abs=1e-9)

    def test_rerun_is_byte_identical(self, scan_run, tmp_path):
        _, out, cfg = scan_run
        assert cli.main(["--config", str(cfg), "--out",
                         str(tmp_path)]) == 0
        assert (tmp_path / "scan.csv").read_bytes() == \
            (out / "scan.csv").read_bytes()

    def test_check_failure_exits_one_with_partial_report(self, scan_run,
                                                         tmp_path):
        _, _, cfg = scan_run
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path),
                         "--fit-slack", "0.0001"])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["overall_pass"]
        assert len(report["checks"]) == 6
        assert (tmp_path / "scan.csv").exists()

    def test_scan_is_fitted_once(self, tmp_path, monkeypatch):
        calls = []
        fitted = gl.DefectScan.fitted_exponents

        def counted(self):
            calls.append(1)
            return fitted(self)

        monkeypatch.setattr(gl.DefectScan, "fitted_exponents", counted)
        report = cli.run(cli.load_config(None, {**SMALL_SCAN,
                                                "out": str(tmp_path)}))
        assert report.overall_pass
        assert len(calls) == 1

    def test_row_wall_times_in_report_not_in_csv(self, scan_run):
        _, out, _ = scan_run
        report = json.loads((out / "report.json").read_text())
        walls = report["extras"]["row_wall_s"]
        assert len(walls) == 4
        assert all(isinstance(w, float) and w > 0.0 for w in walls)
        header = (out / "scan.csv").read_text().splitlines()[0]
        assert header == ",".join(gl.SCAN_COLUMNS)

    def test_failed_recovery_still_writes_its_report(self, tmp_path,
                                                     capsys):
        # an amplitude far past the stable range breaks the recovery
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**SMALL_SCAN, "amplitude": 50.0}))
        code = cli.main(["--config", str(cfg), "--out", str(tmp_path)])
        assert code == 1
        report = json.loads((tmp_path / "report.json").read_text())
        assert not report["overall_pass"]
        assert [(c["name"], c["passed"]) for c in report["checks"]] == [
            ("neck_recovery", False)]
        error = report["extras"]["error"]
        assert error["type"] in ("NotStable", "NotPositive")
        assert str(error["sample_index"]) in error["message"]
        assert len(error["sample_index"]) == 1
        assert not (tmp_path / "scan.csv").exists()
        assert "overall: FAIL" in capsys.readouterr().out

    def test_lam_other_than_the_model_rate_is_config_error(
            self, tmp_path, capsys, monkeypatch):
        # the scanned resolved model decays at rate -6, so a scan cannot
        # read its ledger at lam = -7; thm52's ledger alone can
        def no_neck(*args, **kwargs):
            raise AssertionError("neck row evaluated")

        monkeypatch.setattr(gl, "_neck_fields", no_neck)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({**SMALL_SCAN, "lam": -7.0}))
        code = cli.main(["--config", str(cfg), "--out",
                         str(tmp_path / "scan")])
        assert code == 2
        assert not (tmp_path / "scan" / "scan.csv").exists()
        err = capsys.readouterr().err.strip()
        assert "\n" not in err and "-6" in err and "-7" in err
        assert cli.main(["thm52", "--lam", "-7", "--out",
                         str(tmp_path / "thm52")]) == 0

    def test_short_t_list_is_config_error(self, tmp_path):
        code = cli.main(["glue-scan", "--t-list", "0.4,0.3",
                         "--out", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "report.json").exists()


class TestReportShape:
    def test_seed_recorded(self, tmp_path):
        cli.main(["thm52", "--seed", "77", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["seed"] == 77
        assert report["config"]["seed"] == 77

    def test_non_finite_values_make_strict_json(self, tmp_path, capsys):
        report = cli.RunReport(command="thm52", config={}, seed=0)
        cli._check(report.checks, "finite", 1.0, 1.0, 0.0)
        cli._check(report.checks, "nan", float("nan"), 0.0, 1.0)
        cli._check(report.checks, "inf", np.inf, 0.0, 1.0)
        report.fitted["slopes"] = np.array([1.5, np.nan])
        assert [c.measured for c in report.checks] == [1.0, None, None]
        target = cli.write_report(report, str(tmp_path))

        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(target.read_text(), parse_constant=refuse)
        assert [(c["measured"], c["passed"]) for c in payload["checks"]] \
            == [(1.0, True), (None, False), (None, False)]
        assert payload["fitted"]["slopes"] == [1.5, None]
        assert not payload["overall_pass"]

    def test_numpy_scalars_and_fractions_serialize(self, tmp_path):
        report = cli.RunReport(command="thm52", config={}, seed=0)
        report.extras.update({"ratio": Fraction(3, 5), "count": np.int64(7),
                              "single": np.float32(0.5),
                              "nan32": np.float32("nan"),
                              "inf32": np.float32("inf")})
        report.fitted["slope"] = np.float64("-inf")
        target = cli.write_report(report, str(tmp_path))
        written = json.loads(target.read_text())
        assert written["extras"] == {"ratio": "3/5", "count": 7,
                                     "single": 0.5, "nan32": None,
                                     "inf32": None}
        assert type(written["extras"]["count"]) is int
        assert written["fitted"] == {"slope": None}

    def test_check_record_fields(self, tmp_path):
        cli.main(["pointwise", "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        for c in report["checks"]:
            assert set(c) == {"name", "measured", "predicted",
                              "tolerance", "passed"}
        assert report["wall_time_s"] > 0.0
        assert report["version"]
