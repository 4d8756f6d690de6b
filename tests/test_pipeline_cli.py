"""End-to-end pipeline behavior and the command-line interface."""

import json
from pathlib import Path

import numpy as np
import pytest

from fusetrack import cli
from fusetrack.bench import (
    AccessPoint,
    PipelineConfig,
    SimScenario,
    Waypoint,
    run_pipeline,
    simulate_track,
)
from fusetrack.errors import ConfigError, PipelineError
from fusetrack.features import magnitude_channels
from fusetrack.ingest import parse_logfile, resample_stream
from fusetrack.labels import ensure_yaw
from fusetrack.pdr import PdrModel, predict_displacements
from fusetrack.tracking import FusedTrack, FusionConfig, WifiFix, fuse_track
from fusetrack.wifi import RadioMap, knn_predict


def mini_scenario(seed, start=0):
    side = 15.0
    rng = np.random.default_rng(seed)
    base = [(0.0, 0.0), (side, 0.0), (side, side), (0.0, side)]
    order = base[start:] + base[:start] + [base[start]]
    wps = [Waypoint(x, y, 0, 2.0) for x, y in order[:-1]]
    last = order[-1]
    wps.append(Waypoint(last[0] + 0.01, last[1], 0, 2.0))
    aps = [AccessPoint(x, y, 0) for x in (0, 7.5, 15) for y in (0, 7.5, 15)]
    cadence = float(rng.uniform(1.6, 2.0))
    stride = float(rng.uniform(0.58, 0.62))
    return SimScenario(waypoints=wps, speed=cadence * stride,
                       step_frequency=cadence, ap_layout=aps, rng_seed=seed)


@pytest.fixture(scope="module")
def mini_tracks(tmp_path_factory):
    out = tmp_path_factory.mktemp("mini")
    train_logs = []
    for k in range(4):
        result = simulate_track(mini_scenario(100 + k, start=k % 4))
        path = out / f"train{k}.log"
        result.write(path)
        train_logs.append(str(path))
    result = simulate_track(mini_scenario(900, start=1))
    test_log = out / "test0.log"
    truth = out / "test0_truth.csv"
    result.write(test_log, truth)
    return {"dir": out, "train_logs": train_logs,
            "test_logs": [str(test_log)], "truth_files": [str(truth)]}


@pytest.fixture(scope="module")
def mini_run(mini_tracks):
    cfg = dict(train_logs=mini_tracks["train_logs"],
               test_logs=mini_tracks["test_logs"],
               truth_files=mini_tracks["truth_files"],
               out_dir=str(mini_tracks["dir"] / "full"),
               seed=0, max_epochs=16, patience=16)
    return cfg, run_pipeline(cfg)


class TestPipeline:
    def test_full_run_produces_report_and_artifacts(self, mini_run):
        cfg, result = mini_run
        out = Path(cfg["out_dir"])
        assert result.report.mae > 0
        for artifact in ("history.csv", "pdr_model.tfnn", "radiomap.csv",
                         "report.json", "test0_fused.csv"):
            assert (out / artifact).exists(), artifact
        data = json.loads((out / "report.json").read_text())
        assert data["q75"] == pytest.approx(result.report.q75)

    def test_no_wifi_equals_integrated_pdr_from_start(self, mini_run, mini_tracks):
        cfg, _ = mini_run
        ablated = dict(cfg, use_wifi=False, use_projection=False,
                       out_dir=str(mini_tracks["dir"] / "nowifi"),
                       model_checkpoint=str(Path(cfg["out_dir"]) / "pdr_model.tfnn"))
        result = run_pipeline(ablated)
        track = result.tracks["test0"]
        # recompute the integrated dead reckoning exactly as the pipeline does
        model = PdrModel.load(ablated["model_checkpoint"])
        records, _, _ = parse_logfile(mini_tracks["test_logs"][0])
        stream = magnitude_channels(ensure_yaw(resample_stream(records)))
        preds = predict_displacements(model, stream, source_track="test0")
        from fusetrack.bench.simulate import read_truth_csv

        truth = read_truth_csv(mini_tracks["truth_files"][0])
        manual = fuse_track(preds, [], [], FusionConfig(
            start_position=np.array([truth[0].x, truth[0].y]),
            start_time=truth[0].timestamp, start_floor=truth[0].floor))
        np.testing.assert_allclose(track.positions(), manual.positions(),
                                   atol=1e-6)

    def test_no_projection_equals_raw_kalman_means(self, mini_run, mini_tracks):
        cfg, full = mini_run
        ablated = dict(cfg, use_projection=False,
                       out_dir=str(mini_tracks["dir"] / "noprj"),
                       model_checkpoint=str(Path(cfg["out_dir"]) / "pdr_model.tfnn"))
        result = run_pipeline(ablated)
        track = result.tracks["test0"]
        # rebuild the same fixes and filter manually
        model = PdrModel.load(ablated["model_checkpoint"])
        records, scans, _ = parse_logfile(mini_tracks["test_logs"][0])
        stream = magnitude_channels(ensure_yaw(resample_stream(records)))
        preds = predict_displacements(model, stream, source_track="test0")
        rmap = RadioMap.from_csv(Path(cfg["out_dir"]) / "radiomap.csv")
        fixes = []
        for scan in scans:
            fix = knn_predict(rmap, scan, k=5)
            fixes.append(WifiFix(scan.timestamp, fix.position, fix.sigma, fix.floor))
        manual = fuse_track(preds, fixes, [], FusionConfig())
        # the csv round-trip of the radiomap keeps 9 significant digits, so
        # the reconstruction matches to that precision only
        np.testing.assert_allclose(track.positions(), manual.positions(), atol=1e-6)
        # and the projected full run differs from the raw means
        assert not np.allclose(full.tracks["test0"].positions(),
                               track.positions(), atol=1e-6)

    def test_rp_mode_pipeline_runs(self, mini_tracks):
        cfg = dict(train_logs=mini_tracks["train_logs"][:2],
                   test_logs=mini_tracks["test_logs"],
                   truth_files=mini_tracks["truth_files"],
                   out_dir=str(mini_tracks["dir"] / "rp"),
                   seed=0, max_epochs=2, patience=2, input_mode="rp")
        result = run_pipeline(cfg)
        assert result.report.mae > 0

    def test_vae_predictor_pipeline_runs(self, mini_run, mini_tracks):
        cfg, _ = mini_run
        ablated = dict(cfg, wifi_predictor="vae", vae_epochs=50,
                       out_dir=str(mini_tracks["dir"] / "vae"),
                       model_checkpoint=str(Path(cfg["out_dir"]) / "pdr_model.tfnn"))
        result = run_pipeline(ablated)
        assert result.report.mae > 0

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError, match="bogus"):
            PipelineConfig.from_dict({"test_logs": ["x"], "train_logs": ["y"],
                                      "bogus": 1})

    def test_missing_inputs_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"test_logs": []})

    def test_stage_failure_names_stage(self, mini_tracks, tmp_path):
        cfg = dict(train_logs=["/nonexistent/track.log"],
                   test_logs=mini_tracks["test_logs"],
                   out_dir=str(tmp_path / "fail"))
        with pytest.raises(PipelineError) as err:
            run_pipeline(cfg)
        assert err.value.stage == "ingest"


class TestCli:
    def test_simulate_parse_evaluate_flow(self, tmp_path, capsys):
        scenario = mini_scenario(7)
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(scenario.to_dict()), encoding="utf-8")
        log = tmp_path / "track.log"
        truth = tmp_path / "truth.csv"
        assert cli.main(["simulate", "--scenario", str(scenario_path),
                         "--out", str(log), "--truth-out", str(truth)]) == 0
        assert log.exists() and truth.exists()

        csv_out = tmp_path / "stream.csv"
        assert cli.main(["parse", "--log", str(log), "--out", str(csv_out),
                         "--magnitudes"]) == 0
        header = csv_out.read_text().splitlines()[0]
        assert header.startswith("t,acce_x")

        dataset_dir = tmp_path / "dataset"
        assert cli.main(["pseudolabel", "--log", str(log),
                         "--out", str(dataset_dir)]) == 0
        assert (dataset_dir / "windows.bin").exists()
        index = (dataset_dir / "index.csv").read_text().splitlines()
        assert index[0] == "track,window_offset,dx,dy,activity,provenance"
        assert len(index) > 10

    def test_simulate_seed_override_changes_output(self, tmp_path):
        scenario_path = tmp_path / "scenario.json"
        scenario_path.write_text(json.dumps(mini_scenario(7).to_dict()),
                                 encoding="utf-8")
        a, b = tmp_path / "a.log", tmp_path / "b.log"
        cli.main(["simulate", "--scenario", str(scenario_path), "--out", str(a)])
        cli.main(["simulate", "--scenario", str(scenario_path), "--out", str(b),
                  "--seed", "99"])
        assert a.read_text() != b.read_text()

    def test_train_predict_evaluate_run(self, mini_tracks, tmp_path):
        model_path = tmp_path / "model.tfnn"
        rc = cli.main(["train-pdr", "--logs"] + mini_tracks["train_logs"][:2]
                      + ["--out", str(model_path), "--epochs", "2",
                         "--patience", "2", "--seed", "0",
                         "--history", str(tmp_path / "hist.csv")])
        assert rc == 0
        assert model_path.exists()
        pred_path = tmp_path / "pred.csv"
        rc = cli.main(["predict", "--model", str(model_path),
                       "--log", mini_tracks["test_logs"][0],
                       "--out", str(pred_path)])
        assert rc == 0
        assert pred_path.read_text().splitlines()[0] == "t,dx,dy,p_walk"

    def test_build_radiomap_and_train_wifi(self, mini_tracks, tmp_path):
        map_path = tmp_path / "radiomap.csv"
        rc = cli.main(["build-radiomap", "--logs"] + mini_tracks["train_logs"][:2]
                      + ["--out", str(map_path)])
        assert rc == 0
        rc = cli.main(["train-wifi", "--map", str(map_path), "--epochs", "10",
                       "--out", str(tmp_path / "wifi_pred.csv")])
        assert rc == 0

    def test_run_subcommand(self, mini_tracks, tmp_path, capsys):
        config = dict(train_logs=mini_tracks["train_logs"][:2],
                      test_logs=mini_tracks["test_logs"],
                      truth_files=mini_tracks["truth_files"],
                      out_dir=str(tmp_path / "out"),
                      max_epochs=2, patience=2)
        config_path = tmp_path / "pipeline.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert cli.main(["run", "--config", str(config_path)]) == 0
        out = capsys.readouterr().out
        assert "MAE" in out

    def test_evaluate_subcommand(self, tmp_path):
        track = FusedTrack(t=0.5 * np.arange(10), x=np.arange(10.0),
                           y=np.zeros(10), floor=np.zeros(10, dtype=int),
                           ptrace=np.ones(10))
        pred = tmp_path / "fused.csv"
        track.to_csv(pred)
        truth = tmp_path / "truth.csv"
        truth.write_text("t,x,y,floor\n1.0,2.0,0.0,0\n2.0,4.0,0.0,0\n",
                         encoding="utf-8")
        out = tmp_path / "report.json"
        assert cli.main(["evaluate", "--pred", str(pred), "--truth", str(truth),
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["mae"] == pytest.approx(0.0)

    def test_validation_error_exits_2(self, tmp_path):
        assert cli.main(["parse", "--log", str(tmp_path / "missing.log"),
                         "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert cli.main(["run", "--config", str(bad)]) == 2

    def test_malformed_log_in_run_exits_2(self, tmp_path, capsys):
        log = tmp_path / "bad.log"
        log.write_text("ACCE;1.0;1.0;0;zz;9.8\n", encoding="utf-8")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_logs": [str(log)], "test_logs": [str(log)],
                                   "out_dir": str(tmp_path / "out")}),
                       encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: stage 'ingest' failed: line 1: malformed value 2")

    def test_missing_log_in_run_exits_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_logs": [str(tmp_path / "nope.log")],
                                   "test_logs": [str(tmp_path / "nope.log")],
                                   "out_dir": str(tmp_path / "out")}),
                       encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg)]) == 2

    def test_internal_fault_in_run_exits_1(self, tmp_path, monkeypatch, capsys):
        def fail(cfg):
            raise PipelineError("fuse", RuntimeError("boom"))
        monkeypatch.setattr(cli, "run_pipeline", fail)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"train_logs": ["a.log"], "test_logs": ["b.log"]}),
                       encoding="utf-8")
        assert cli.main(["run", "--config", str(cfg)]) == 1
        assert "internal error: stage 'fuse' failed: boom" in capsys.readouterr().err
