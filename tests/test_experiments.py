import json

import numpy as np
import pytest

import rotvec as rv
from rotvec.cli import main as cli_main
from rotvec.errors import ConfigError


FAST_BOUND = {
    "experiment": "example1-bound",
    "seeds": {"kind": "full", "per_dim": 8},
    "integration": {"h": 0.01, "T0": 10.0, "T_max": 80.0, "tol": 1e-4},
}


def test_validate_config_errors():
    with pytest.raises(ConfigError) as err:
        rv.validate_config({})
    assert err.value.path == ""
    with pytest.raises(ConfigError) as err:
        rv.validate_config({"experiment": "nope"})
    assert err.value.path == "/experiment"
    with pytest.raises(ConfigError) as err:
        rv.validate_config({"experiment": "custom"})
    assert err.value.path.startswith("/")
    with pytest.raises(ConfigError) as err:
        rv.validate_config({"experiment": "example1-bound",
                            "integration": {"T0": 100.0, "T_max": 10.0}})
    assert err.value.path == "/integration/T0"
    with pytest.raises(ConfigError) as err:
        rv.validate_config({"experiment": "example1-bound", "seed": "zero"})
    assert err.value.path == "/seed"
    with pytest.raises(ConfigError) as err:
        rv.validate_config({"experiment": "example1-bound",
                            "space": {"kind": "plane", "n": 1}})
    assert err.value.path == "/space/kind"


CUSTOM = {
    "experiment": "custom",
    "space": {"kind": "torus", "n": 1, "omega": "standard"},
    "family": {"family": "fourier",
               "coeffs": [[0.5, [0, 0], 0, "cos"], [-0.5, [1, 0], 0, "cos"]]},
    "form": {"class": [0.0, 1.0]},
    "seeds": {"kind": "momentum", "per_dim": 8},
    "integration": {"h": 0.01, "T0": 10.0, "T_max": 40.0, "tol": 1e-4},
    "thresholds": {"full_class_pairing_min": 2.0, "best_value_target": np.pi,
                   "best_value_tol": 1e-3},
}


def _config_error_path(config):
    with pytest.raises(ConfigError) as err:
        rv.validate_config(config)
    return err.value.path


def test_validate_custom_threshold_keys():
    thresholds = {k: v for k, v in CUSTOM["thresholds"].items()
                  if k != "full_class_pairing_min"}
    config = {**CUSTOM, "thresholds": thresholds}
    assert _config_error_path(config) == "/thresholds/full_class_pairing_min"


def test_validate_horizons_multiple_of_h():
    config = {"experiment": "example1-bound",
              "integration": {"h": 0.03, "T0": 1.0, "T_max": 4.0}}
    assert _config_error_path(config) == "/integration/h"
    # single-horizon experiments keep any step, e.g. a chord step t*/200.5
    rv.validate_config({"experiment": "chord",
                        "integration": {"h": 1.0 / 200.5, "T0": 1.0, "T_max": 1.0}})


def test_validate_form_class_length():
    config = {"experiment": "example1-bound", "form": {"class": [0.0, 0.5, 1.0]}}
    assert _config_error_path(config) == "/form/class"


def test_validate_seeds():
    config = {"experiment": "example1-bound", "seeds": {"kind": "nope", "per_dim": -3}}
    assert _config_error_path(config) == "/seeds/kind"
    config = {"experiment": "example1-bound", "seeds": {"kind": "full", "per_dim": -3}}
    assert _config_error_path(config) == "/seeds/per_dim"


def test_builtin_configs_validate():
    for name in rv.experiments.EXPERIMENTS:
        if name == "custom":
            continue
        cfg = rv.validate_config({"experiment": name})
        assert cfg["experiment"] == name


def test_list_experiments_catalog():
    catalog = rv.list_experiments()
    names = [e["name"] for e in catalog]
    assert "example3-twisted" in names
    assert len(catalog) > 0
    pb = next(e for e in catalog if e["name"] == "pb-upper")
    assert "[0.999, 1.05]" in pb["expected"]


def test_run_writes_report_and_artifacts(tmp_path):
    report = rv.run(FAST_BOUND, out_dir=tmp_path)
    assert (tmp_path / "report.json").exists()
    assert (tmp_path / "pairing_vs_T.dat").exists()
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["experiment"] == "example1-bound"
    assert doc["passed"] == report.passed
    for entry in doc["results"].values():
        assert "provenance" in entry


def test_run_determinism(tmp_path):
    a = rv.run(FAST_BOUND, out_dir=tmp_path / "a")
    b = rv.run(FAST_BOUND, out_dir=tmp_path / "b")
    da, db = a.to_json(), b.to_json()
    da.pop("timing")
    db.pop("timing")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)
    ta = (tmp_path / "a" / "pairing_vs_T.dat").read_bytes()
    tb = (tmp_path / "b" / "pairing_vs_T.dat").read_bytes()
    assert ta == tb


def test_seed_env_override(monkeypatch):
    monkeypatch.setenv("ROTVEC_SEED", "1234")
    report = rv.run(FAST_BOUND)
    assert report.seed == 1234


def test_run_chord_experiment(tmp_path):
    report = rv.run({"experiment": "chord"}, out_dir=tmp_path)
    assert report.passed
    assert report.results["t_star"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert (tmp_path / "chord.dat").exists()
    arc = np.loadtxt(tmp_path / "chord.dat")
    assert arc.shape[1] == 3  # t, p1, q1


def test_run_fails_threshold_exit_code(tmp_path):
    bad = dict(FAST_BOUND)
    bad["thresholds"] = {"full_class_pairing_min": 100.0,
                         "best_value_target": np.pi, "best_value_tol": 1e-3}
    report = rv.run(bad, out_dir=tmp_path)
    assert not report.passed
    assert not report.results["full_class_pairing"]["pass"]


def test_cli_list(capsys):
    assert cli_main(["list"]) == 0
    out = capsys.readouterr().out
    assert "example3-twisted" in out
    assert "[0.999, 1.05]" in out


def test_cli_validate(tmp_path, capsys):
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps({"experiment": "chord"}))
    assert cli_main(["validate", str(cfg)]) == 0

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiment": "nope"}))
    assert cli_main(["validate", str(bad)]) == 2

    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert cli_main(["validate", str(empty)]) == 2

    assert cli_main(["validate", str(tmp_path / "missing.json")]) == 2


def test_cli_run_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "chord.json"
    cfg.write_text(json.dumps({"experiment": "chord"}))
    code = cli_main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert (tmp_path / "out" / "report.json").exists()


def test_cli_run_threshold_failure_exit_one(tmp_path):
    cfg = tmp_path / "fail.json"
    failing = dict(FAST_BOUND)
    failing["thresholds"] = {"full_class_pairing_min": 100.0,
                             "best_value_target": 3.14159, "best_value_tol": 1e-3}
    cfg.write_text(json.dumps(failing))
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1


def test_explicit_omega_matrix_config(tmp_path):
    # space deserialization accepts explicit matrix entries, not only presets
    cfg = dict(FAST_BOUND)
    cfg["space"] = {"kind": "torus", "n": 1,
                    "omega": {"matrix": [[0.0, 1.0], [-1.0, 0.0]]}}
    report = rv.run(cfg, out_dir=None)
    assert report.results["full_class_pairing"]["value"] == pytest.approx(np.pi, abs=1e-3)


def test_custom_experiment_requires_sections(tmp_path):
    report = rv.run(CUSTOM, out_dir=tmp_path)
    assert report.results["full_class_pairing"]["value"] == pytest.approx(np.pi, abs=1e-3)


def test_run_example3_reduced(tmp_path):
    cfg = {"experiment": "example3-twisted", "orbit": {"p1": 0.2, "T": 100.0}}
    report = rv.run(cfg, out_dir=tmp_path)
    assert report.passed
    assert (tmp_path / "orbit.csv").exists()


def test_run_sharpness_reduced(tmp_path):
    cfg = {
        "experiment": "example1-sharpness",
        "family": {"family": "pinned-profile", "pins": [[0.0, 0.0], [0.5, 1.0]],
                   "n_modes": 16, "slope_target": 2.2},
        "seeds": {"kind": "momentum", "per_dim": 8},
        "integration": {"h": 0.01, "T0": 10.0, "T_max": 40.0, "tol": 1e-4},
        "thresholds": {"certified_slope_max": 2.2, "seed_pairing_slack": 1e-6},
    }
    report = rv.run(cfg, out_dir=tmp_path)
    assert report.passed
    prof = np.loadtxt(tmp_path / "profile.dat")
    assert prof.shape[1] == 3  # p1, u, u'


def test_run_nonauto_reduced(tmp_path):
    cfg = {
        "experiment": "nonauto-suspension",
        "seeds": {"kind": "momentum", "per_dim": 8},
        "iterates": {"n0": 20, "n_max": 160},
    }
    report = rv.run(cfg, out_dir=tmp_path)
    assert report.passed
    assert report.notes  # the strict-vs-nonstrict reading is flagged
    assert (tmp_path / "pairing_vs_N.dat").exists()
    assert (tmp_path / "suspension.csv").exists()


def test_chord_product_of_levels_regions(tmp_path):
    # product-type regions on T^4: pairs of tori pinned in both momenta,
    # connected along the p1-translation exactly as in the planar case
    cfg = {
        "experiment": "chord",
        "space": {"kind": "torus", "n": 2, "omega": "standard"},
        "form": {"class": [0.0, 0.0, 0.5, 0.0]},
        "regions": {
            "X": {"constraints": [[0, 0.0], [1, 0.0]], "per_dim": 8},
            "Xp": {"constraints": [[0, 0.5], [1, 0.0]], "per_dim": 8},
        },
        "chord": {"t_max": 2.0},
        "thresholds": {"t_star_target": 1.0, "t_star_tol": 1e-9, "pb_floor": 1.0},
    }
    report = rv.run(cfg, out_dir=tmp_path)
    assert report.passed
    assert report.results["t_star"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_chord_on_cotangent_bundle_config():
    cfg = {
        "experiment": "chord",
        "space": {"kind": "cotangent-of-torus", "n": 1, "omega": "standard"},
        "form": {"class": [0.0, 0.3]},
        "regions": {"X": {"levels": [0.0]}, "Xp": {"levels": [0.3]}},
        "chord": {"t_max": 2.0},
        "thresholds": {"t_star_target": 1.0, "t_star_tol": 1e-9, "pb_floor": 1.0},
    }
    report = rv.run(cfg, out_dir=None)
    assert report.results["t_star"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_jobs_flag_deterministic(tmp_path):
    # --jobs caps the worker pool; jobs > 1 must not change the result
    cfg = {"experiment": "pb-upper",
           "optimizer": {"restarts": 2, "max_evals": 60, "grid_res": 128,
                         "cert_grid_res": 1024, "n_modes": 6,
                         "pins": [[0.0, 0.0], [0.5, 1.0]]},
           "thresholds": {"value_range": [0.999, 3.0], "floor": 1.0}}
    r1 = rv.run(cfg, out_dir=None, jobs=1)
    r2 = rv.run(cfg, out_dir=None, jobs=2)
    assert r1.results["pb_upper_bound"]["value"] == r2.results["pb_upper_bound"]["value"]
