import json
import os
import subprocess
import sys

import pytest

import qp2d
from qp2d.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_NONCONVERGENT,
    EXIT_PASS,
    main,
)
from qp2d.verify import CheckRecord, RunConfig


@pytest.fixture()
def config_file(tmp_path):
    cfg = {
        "alpha": {"quadratic": [-1, 1, 2, 1]},
        "mu": 2.0,
        "Q": 4,
        "generators": [
            [1, 0, 0, 0, 0.1, 0.0],
            [0, -1, 0, 1, 0.075, 0.025],
        ],
        "k_grid": [25.0, 40.0],
        "lambda_grid": [625.0, 1600.0],
        "phi_points": 48,
        "seed": 7,
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_rational_alpha_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"alpha": {"quadratic": [1, 0, 2, 3]}}))
        assert main(["eigen", "--config", str(path)]) == EXIT_CONFIG_ERROR

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"alpha": {"cf": [0, 2, 2]}, "bogus": 1}))
        assert main(["eigen", "--config", str(path)]) == EXIT_CONFIG_ERROR

    def test_unknown_profile_override_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"alpha": {"quadratic": [-1, 1, 2, 1]}, "profile": {"gama": 0.3}})
        )
        assert main(["eigen", "--config", str(path)]) == EXIT_CONFIG_ERROR

    def test_missing_alpha_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"Q": 4}))
        assert main(["eigen", "--config", str(path)]) == EXIT_CONFIG_ERROR

    def test_cf_alpha_accepted(self, tmp_path):
        cfg = RunConfig(alpha={"cf": [0, 2, 2, 2, 2, 2, 2, 2]})
        p = cfg.params()
        assert not p.condition4_certified
        assert 0 < p.alpha < 1


class TestSubcommands:
    def test_curve_writes_csv(self, config_file, tmp_path):
        out = str(tmp_path / "c.csv")
        rc = main(
            [
                "curve",
                "--config",
                config_file,
                "--level",
                "1",
                "--lambda",
                "625",
                "--grid",
                "24",
                "--out",
                out,
            ]
        )
        assert rc == EXIT_PASS
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "phi,kappa,h,dkappa_dphi,admissible"
        assert len(lines) == 25
        assert os.path.exists(out + ".holes.json")

    def test_eigen_json(self, config_file, tmp_path):
        out = str(tmp_path / "e.json")
        rc = main(
            [
                "eigen",
                "--config",
                config_file,
                "--level",
                "1",
                "--k",
                "40",
                "--out",
                out,
            ]
        )
        assert rc == EXIT_PASS
        payload = json.loads(open(out).read())
        assert payload["level"] == 1
        assert payload["delta"] <= max(1e-9 * 1600.0, 10 * payload["tail"])
        assert payload["g"][0] == 0.0

    def test_wavefunction_csv(self, config_file, tmp_path):
        out = str(tmp_path / "w.csv")
        rc = main(
            [
                "wavefunction",
                "--config",
                config_file,
                "--level",
                "1",
                "--k",
                "40",
                "--grid",
                "8",
                "--out",
                out,
            ]
        )
        assert rc == EXIT_PASS
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "x1,x2,re_psi,im_psi,abs_u"
        assert len(lines) == 65

    def test_regions_json(self, config_file, tmp_path):
        out = str(tmp_path / "r.json")
        rc = main(
            ["regions", "--config", config_file, "--k", "40", "--out", out]
        )
        assert rc == EXIT_PASS
        payload = json.loads(open(out).read())
        assert payload["checks"]["boundary_violation"] == 0.0

    def test_resonance_map_json(self, config_file, tmp_path):
        out = str(tmp_path / "rm.json")
        rc = main(
            ["resonance-map", "--config", config_file, "--k", "40", "--out", out]
        )
        assert rc == EXIT_PASS
        payload = json.loads(open(out).read())
        assert payload["omega1_measure"] > 0
        assert payload["blocks"][0]["kind"] == "core"
        assert {"n_resonant", "n_isolated", "classes", "strong_clusters"} <= set(
            payload["decomposition"]
        )

    @pytest.mark.parametrize(
        "command",
        [
            ["regions"],
            ["resonance-map"],
            ["eigen", "--level", "2"],
            ["wavefunction", "--level", "2"],
        ],
    )
    def test_empty_good_set_exits_nonconvergent(self, command, tmp_path):
        # at k = 3 the 8 tau good set has measure 0, so no base angle exists
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qp2d.__file__)))
        out = subprocess.run(
            [sys.executable, "-m", "qp2d.cli", *command, "--k", "3",
             "--out", str(tmp_path / "out")],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert out.returncode == EXIT_NONCONVERGENT, out.stderr
        assert "measure 0" in out.stderr

    @pytest.mark.parametrize("command", [["eigen", "--no-oracle"], ["wavefunction"]])
    def test_resonant_base_angle_exits_nonconvergent(self, command, tmp_path, capsys):
        # at k = 60 this angle lies in the step-I resonant set at tau = 8, so
        # level 2 rejects it: a numerical rejection, not a failed check
        rc = main([*command, "--level", "2", "--k", "60", "--phi", "0.05238389830840995",
                   "--out", str(tmp_path / "out")])
        assert rc == EXIT_NONCONVERGENT
        assert "ResonantBase" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["curve", "wavefunction"])
    @pytest.mark.parametrize("grid", ["0", "-3"])
    def test_nonpositive_grid_is_config_error(self, command, grid, config_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", config_file, "--grid", grid])
        assert exc.value.code == EXIT_CONFIG_ERROR
        assert "is not a positive integer" in capsys.readouterr().err

    def test_determinism_same_seed(self, config_file, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        for out in (a, b):
            rc = main(
                ["eigen", "--config", config_file, "--level", "1", "--out", out]
            )
            assert rc == EXIT_PASS
        assert open(a).read() == open(b).read()


class TestRecords:
    def test_record_json_round_trip(self):
        rec = CheckRecord("x", True, 0.5, 1.0, 0.01, "note")
        payload = json.loads(rec.as_json())
        assert payload["status"] == "pass"
        assert payload["measured"] == 0.5

    def test_check_battery_deterministic(self):
        # identical config gives identical outcomes and measured values
        # (runtimes aside)
        from qp2d.verify import check_series_structure

        cfg = RunConfig.default()
        a = check_series_structure(cfg)
        b = check_series_structure(cfg)
        assert [(r.name, r.passed, r.measured) for r in a] == [
            (r.name, r.passed, r.measured) for r in b
        ]
