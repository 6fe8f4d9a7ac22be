"""Command-line interface: success paths and exit-code contract."""

import importlib.metadata
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mapfuse
from mapfuse.cli import main
from mapfuse.io import load_label_raster, read_header


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Materialized scenario plus a pipeline config pointing at it."""
    from mapfuse.synth import two_style_scenario

    d = tmp_path_factory.mktemp("cli")
    doc = two_style_scenario(width=24, height=24, n_per_group=2,
                             n_blobs=8, scene_seed=3)
    (d / "scenario.json").write_text(json.dumps(doc))
    rc = main(["simulate", str(d / "scenario.json"), "-o", str(d / "data")])
    assert rc == 0
    cfg = {"input_dir": str(d / "data"), "reference": str(d / "data" / "truth"),
           "output_dir": str(d / "run"), "k_values": [2], "methods": ["kmeans"],
           "mc_iterations": 3, "per_class_samples": 5, "seed": 0}
    (d / "pipeline.json").write_text(json.dumps(cfg))
    return d


def test_simulate_wrote_panel(work, capsys):
    index = json.loads((work / "data" / "index.json").read_text())
    assert len(index["investigators"]) == 4
    assert (work / "data" / "truth").exists()


def test_fuse_plain(work, capsys):
    rc = main(["fuse", "-i", str(work / "data"), "-o", str(work / "fused")])
    assert rc == 0
    assert load_label_raster(work / "fused" / "fused_label").shape.n_classes == 4
    assert "fused 4 maps" in capsys.readouterr().out


def test_fuse_auto_weights(work, capsys):
    rc = main(["fuse", "-i", str(work / "data"), "-o", str(work / "fw"),
               "--weights", "auto"])
    assert rc == 0
    lines = (work / "fw" / "weights.csv").read_text().splitlines()
    assert lines[0] == "investigator_id,kappa"
    assert len(lines) == 5
    captured = capsys.readouterr()
    assert "inferred weights" in captured.out
    assert "did not converge" not in captured.err


def test_fuse_auto_weights_warns_when_fit_did_not_converge(work, capsys,
                                                          monkeypatch):
    import dataclasses

    import mapfuse.cli

    fit = mapfuse.cli.estimate_weights

    def unconverged(*args, **kwargs):
        return dataclasses.replace(fit(*args, **kwargs), converged=False)

    monkeypatch.setattr(mapfuse.cli, "estimate_weights", unconverged)
    rc = main(["fuse", "-i", str(work / "data"), "-o", str(work / "fnc"),
               "--weights", "auto"])
    assert rc == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: weight fit did not "
                                               "converge"), err
    assert (work / "fnc" / "weights.csv").exists()


def test_fuse_weights_from_csv(work, capsys):
    ids = json.loads((work / "data" / "index.json").read_text())["investigators"]
    csv_path = work / "given.csv"
    csv_path.write_text("investigator_id,kappa\n"
                        + "\n".join(f"{i},{2.0 + j}" for j, i in enumerate(ids))
                        + "\n")
    rc = main(["fuse", "-i", str(work / "data"), "-o", str(work / "fc"),
               "--weights", str(csv_path)])
    assert rc == 0

    csv_path.write_text(f"investigator_id,kappa\n{ids[0]},2.0\n")
    rc = main(["fuse", "-i", str(work / "data"), "-o", str(work / "fc2"),
               "--weights", str(csv_path)])
    assert rc == 2
    assert "lacks entries" in capsys.readouterr().err

    # a repeated id is refused, not settled by its last kappa
    csv_path.write_text("investigator_id,kappa\n"
                        + "".join(f"{i},2.0\n" for i in ids) + f"{ids[0]},9.0\n")
    rc = main(["fuse", "-i", str(work / "data"), "-o", str(work / "fc3"),
               "--weights", str(csv_path)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1 and str(csv_path) in err[0], err
    assert "repeats" in err[0]


@pytest.mark.parametrize("case", ["csv-repeats-id", "csv-lacks-id",
                                  "auto-one-map"])
def test_fuse_refused_weights_leave_no_output_directory(work, capsys, tmp_path,
                                                        monkeypatch, case):
    """The output directory is made by its first file, once the weights are
    known; a weights CSV is read before any map."""
    loads, load = [], mapfuse.cli.load_investigators
    monkeypatch.setattr("mapfuse.cli.load_investigators",
                        lambda *a: loads.append(a) or load(*a))
    ids = json.loads((work / "data" / "index.json").read_text())["investigators"]
    data, weights = work / "data", tmp_path / "w.csv"
    if case == "csv-repeats-id":
        weights.write_text("investigator_id,kappa\n"
                           + "".join(f"{i},2.0\n" for i in ids) + f"{ids[0]},9.0\n")
    elif case == "csv-lacks-id":
        weights.write_text("investigator_id,kappa\n"
                           + "".join(f"{i},2.0\n" for i in ids[1:]))
    else:
        data, weights = tmp_path / "one", "auto"
        data.mkdir()
        for suffix in ("", ".json"):
            shutil.copy(work / "data" / (ids[0] + suffix), data / (ids[0] + suffix))
        (data / "index.json").write_text(json.dumps({"investigators": [ids[0]]}))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["fuse", "-i", str(data), "-o", str(out), "--weights", str(weights)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()
    assert (loads == []) == (case == "csv-repeats-id")


def test_fuse_cluster_group(work, capsys):
    rc = main(["fuse", "-i", str(work / "data"), "-o", str(work / "fg"),
               "--cluster", "kmeans", "-k", "2", "--group", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "cluster kmeans k=2 group 1: 2 maps" in out

    rc = main(["fuse", "-i", str(work / "data"), "-o", str(work / "fg2"),
               "--cluster", "kmeans"])
    assert rc == 2
    assert "requires -k" in capsys.readouterr().err

    rc = main(["fuse", "-i", str(work / "data"), "-o", str(work / "fg3"),
               "--cluster", "kmeans", "-k", "2", "--group", "3"])
    assert rc == 2


@pytest.mark.parametrize("flags, reason", [
    (["--cluster", "kmeans", "-k", "2", "--group", "3"], "--group must be in [1, 2]"),
    (["--cluster", "kmedoids", "-k", "3", "--group", "0"], "--group must be in [1, 3]"),
    (["--cluster", "kmeans", "-k", "1"], "k must be at least 2, got 1"),
    (["--cluster", "kmeans"], "--cluster requires -k"),
    (["-k", "2"], "-k requires --cluster"),
    (["--group", "7"], "--group requires --cluster"),
], ids=["group-above-k", "group-0", "k-1", "no-k", "no-cluster", "group-no-cluster"])
def test_fuse_checks_group_options_before_loading(work, capsys, monkeypatch, tmp_path,
                                                  flags, reason):
    loads = []
    monkeypatch.setattr("mapfuse.cli.load_investigators",
                        lambda *a: loads.append(a) or ([], []))
    out = tmp_path / "out"
    capsys.readouterr()
    rc = main(["fuse", "-i", str(work / "data"), "-o", str(out), *flags])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and err == [f"error: {reason}"], err
    assert loads == [] and not out.exists()


def test_fewer_distinct_maps_than_k_exits_2(work, capsys, tmp_path):
    # 8 maps, 3 of them distinct: k = 4 would have to split copies of a map
    data = tmp_path / "dup"
    data.mkdir()
    sources = ["g0inv00", "g0inv01", "g1inv00"]
    ids = [f"m{j}" for j in range(8)]
    for j, name in enumerate(ids):
        for suffix in ("", ".json"):
            shutil.copy(work / "data" / (sources[j % 3] + suffix), data / (name + suffix))
    for suffix in ("", ".json"):
        shutil.copy(work / "data" / ("truth" + suffix), data / ("truth" + suffix))
    (data / "index.json").write_text(json.dumps({"truth": "truth", "investigators": ids}))
    capsys.readouterr()
    for method in ("kmeans", "kmedoids"):
        rc = main(["fuse", "-i", str(data), "-o", str(tmp_path / method),
                   "--cluster", method, "-k", "4"])
        assert rc == 2
        assert "k=4 exceeds the 3 distinct maps" in capsys.readouterr().err
        cfg = {"input_dir": str(data), "reference": str(data / "truth"),
               "output_dir": str(tmp_path / f"run-{method}"), "k_values": [4],
               "methods": [method], "mc_iterations": 3, "per_class_samples": 5}
        (tmp_path / "p.json").write_text(json.dumps(cfg))
        assert main(["pipeline", str(tmp_path / "p.json")]) == 2
        assert "k=4 exceeds the 3 distinct maps" in capsys.readouterr().err
    # the clustering plans the run before its output directory is made
    assert not [p.name for p in tmp_path.iterdir() if p.name.startswith("run-")]


def test_entropy_command(work, capsys):
    rc = main(["entropy", "-i", str(work / "data" / "g0inv00"),
               "-o", str(work / "ent")])
    assert rc == 0
    shape, header = read_header(work / "ent")
    assert (header["dtype"], header["bands"]) == ("f32", 1)
    h = np.frombuffer((work / "ent").read_bytes(), dtype="<f4")
    assert (shape.height, shape.width) == (24, 24) and h.size == 24 * 24
    assert float(h.max()) <= 2.0 + 1e-9

    # a label raster is not a probability stack
    rc = main(["entropy", "-i", str(work / "data" / "truth"),
               "-o", str(work / "ent2")])
    assert rc == 2


def test_malformed_header_exits_2(work, capsys, tmp_path):
    for name in ("truth", "truth.json"):
        shutil.copy(work / "data" / name, tmp_path / name)
    header = json.loads((tmp_path / "truth.json").read_text())
    header["width"] = float(header["width"])
    (tmp_path / "truth.json").write_text(json.dumps(header))
    rc = main(["iji", str(tmp_path / "truth")])
    assert rc == 2
    assert "positive integers" in capsys.readouterr().err

    # the sidecar scan used when a directory has no index.json reads each
    # header through the same parser
    scan = tmp_path / "scan"
    scan.mkdir()
    ids = json.loads((work / "data" / "index.json").read_text())["investigators"]
    for name in (ids[0], ids[0] + ".json", ids[1], ids[1] + ".json"):
        shutil.copy(work / "data" / name, scan / name)
    header = json.loads((scan / f"{ids[1]}.json").read_text())
    header["bands"] = str(header["bands"])
    (scan / f"{ids[1]}.json").write_text(json.dumps(header))
    rc = main(["fuse", "-i", str(scan), "-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "malformed header" in err and str(scan / ids[1]) in err


@pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
def test_fuse_rejects_non_probability_payload(work, capsys, tmp_path, bad):
    data = tmp_path / "data"
    shutil.copytree(work / "data", data)
    ids = json.loads((data / "index.json").read_text())["investigators"]
    raw = np.frombuffer((data / ids[1]).read_bytes(), dtype="<f4").copy()
    raw[7] = bad
    (data / ids[1]).write_bytes(raw.tobytes())
    rc = main(["fuse", "-i", str(data), "-o", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(data / ids[1]) in err


def test_assess_command(work, capsys):
    truth = str(work / "data" / "truth")
    rc = main(["assess", "--pred", truth, "--ref", truth])
    assert rc == 0
    assert "full-grid OA: 1.000000" in capsys.readouterr().out

    rc = main(["assess", "--pred", truth, "--ref", truth,
               "--mc", "3", "--per-class", "5", "--seed", "1"])
    assert rc == 0
    assert "Monte Carlo (3 iterations" in capsys.readouterr().out

    rc = main(["assess", "--pred", truth, "--ref", str(work / "missing")])
    assert rc == 2

    # one iteration has no spread to print
    rc = main(["assess", "--pred", truth, "--ref", truth, "--mc", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "--mc" in captured.err


@pytest.mark.parametrize("command", ["fuse", "assess"])
def test_negative_seed_exits_2_before_any_work(work, capsys, tmp_path, command):
    truth = str(work / "data" / "truth")
    out = tmp_path / "out"
    rc = main({"fuse": ["fuse", "-i", str(work / "data"), "-o", str(out),
                        "--weights", "auto", "--seed", "-1"],
               "assess": ["assess", "--pred", truth, "--ref", truth,
                          "--mc", "3", "--per-class", "5", "--seed", "-1"]}[command])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()


def test_iji_command(work, capsys):
    rc = main(["iji", str(work / "data" / "truth")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("m=4 ") and "IJI=" in out


def test_pipeline_command(work, capsys):
    rc = main(["pipeline", str(work / "pipeline.json")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "pipeline complete: 5 variants" in out
    assert (work / "run" / "summary.csv").exists()

    rc = main(["pipeline", str(work / "absent.json")])
    assert rc == 2


def _scene(doc, **fields):
    return {**doc, "scene": {**doc["scene"], **fields}}


def _investigator(doc, **fields):
    return {**doc, "investigators": [{**doc["investigators"][0], **fields},
                                     *doc["investigators"][1:]]}


@pytest.mark.parametrize("command,edit", [
    pytest.param("pipeline", "{not json", id="config-syntax"),
    pytest.param("pipeline", lambda d: [1], id="config-not-an-object"),
    pytest.param("pipeline", lambda d: {**d, "k_values": 3}, id="k_values-int"),
    pytest.param("pipeline", lambda d: {**d, "k_values": [2.7]}, id="k-float"),
    pytest.param("pipeline", lambda d: {**d, "k_values": [True, 2]}, id="k-bool"),
    pytest.param("pipeline", lambda d: {**d, "mc_iterations": "5"}, id="mc-str"),
    pytest.param("pipeline", lambda d: {**d, "mc_iterations": 1}, id="mc-one"),
    pytest.param("pipeline", lambda d: {**d, "seed": "x"}, id="seed-str"),
    pytest.param("pipeline", lambda d: {**d, "seed": -1}, id="seed-negative"),
    pytest.param("pipeline", lambda d: {**d, "k_values": [2, 2]}, id="k-repeated"),
    pytest.param("pipeline", lambda d: {**d, "methods": ["kmeans"] * 2}, id="methods-repeated"),
    pytest.param("pipeline", lambda d: {**d, "per_class_samples": 2.5}, id="per-class-float"),
    pytest.param("pipeline", lambda d: {**d, "input_dir": 3}, id="input_dir-int"),
    pytest.param("pipeline", lambda d: {**d, "methods": 3}, id="methods-int"),
    pytest.param("simulate", "{not json", id="scenario-syntax"),
    pytest.param("simulate", lambda d: [1], id="scenario-not-an-object"),
    pytest.param("simulate", lambda d: _scene(d, seed="x"), id="scene-seed-str"),
    pytest.param("simulate", lambda d: _scene(d, width=2.5), id="scene-width-float"),
    pytest.param("simulate", lambda d: _scene(d, class_names="abcd"), id="names-str"),
    pytest.param("simulate", lambda d: _scene(d, class_names=[1, 2, 3, 4]), id="names-int"),
    pytest.param("simulate", lambda d: _investigator(d, id=3), id="investigator-id-int"),
    pytest.param("simulate", lambda d: _investigator(d, seed=1.5), id="investigator-seed"),
    pytest.param("simulate", lambda d: _investigator(d, noise_rate="0.1"), id="noise-str"),
    pytest.param("simulate", lambda d: _investigator(d, noise_rate=False), id="noise-bool"),
    pytest.param("simulate", lambda d: _investigator(d, softness=True), id="softness-bool"),
    pytest.param("simulate", lambda d: _scene(d, class_mix=["0.25"] * 4), id="mix-str"),
    pytest.param("simulate", lambda d: _investigator(d, id="../escaped"), id="id-escapes"),
    pytest.param("fuse", "{not json", id="index-syntax"),
    pytest.param("fuse", lambda d: [1], id="index-not-an-object"),
    pytest.param("fuse", lambda d: {**d, "investigators": d["investigators"][:1] * 2},
                 id="index-duplicate-name"),
])
def test_malformed_json_input_exits_2_naming_the_file(work, capsys, tmp_path,
                                                       command, edit):
    """A config, scenario or index.json that is not valid JSON, not an
    object, or holds a wrongly typed field gives exit 2 and one error line
    naming the file, before any work starts."""
    source = {"pipeline": work / "pipeline.json", "simulate": work / "scenario.json",
              "fuse": work / "data" / "index.json"}[command]
    target = tmp_path / source.name
    target.write_text(edit if isinstance(edit, str)
                      else json.dumps(edit(json.loads(source.read_text()))))
    out = tmp_path / "out"
    rc = main({"pipeline": ["pipeline", str(target)],
               "simulate": ["simulate", str(target), "-o", str(out)],
               "fuse": ["fuse", "-i", str(tmp_path), "-o", str(out)]}[command])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2, err
    assert len(err) == 1 and err[0].startswith("error: ") and str(target) in err[0], err
    assert not out.exists()


@pytest.mark.parametrize("map_id,collides", [
    pytest.param("truth", "truth", id="truth"),
    pytest.param("truth.json", "truth.json", id="truth-header"),
    pytest.param("index", "index.json", id="index-as-header"),
    pytest.param("index.json", "index.json", id="index"),
    pytest.param(None, None, id="another-ids-header"),
])
def test_scenario_id_naming_another_output_exits_2(work, capsys, tmp_path,
                                                    map_id, collides):
    """An investigator id whose raster or header would land on the truth
    raster, index.json or another investigator's header is refused before
    anything is written."""
    doc = json.loads((work / "scenario.json").read_text())
    if map_id is None:             # the first id names the second's header
        collides = map_id = doc["investigators"][1]["id"] + ".json"
    target = tmp_path / "scenario.json"
    target.write_text(json.dumps(_investigator(doc, id=map_id)))
    out = tmp_path / "out"
    rc = main(["simulate", str(target), "-o", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2, err
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert str(target) in err[0] and repr(collides) in err[0], err
    assert not out.exists()


def test_runtime_failure_exits_1(work, capsys, tmp_path, monkeypatch):
    # no input path raises KeyError, so one is a program fault, not bad input
    def lookup_bug(args):
        return {}["missing"]

    monkeypatch.setitem(mapfuse.cli._COMMANDS, "iji", lookup_bug)
    rc = main(["iji", str(tmp_path / "map")])
    assert rc == 1
    assert "unexpected failure" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["pipeline-config-dir", "simulate-scenario-dir",
                                  "fuse-weights-dir", "iji-header-dir", "fuse-output-file",
                                  "simulate-output-file", "entropy-output-under-file",
                                  "fuse-output-under-file", "pipeline-output-under-file"])
def test_path_of_the_wrong_kind_exits_2(work, capsys, tmp_path, monkeypatch, case):
    """A directory where a file is read, or a file at or above where the output
    directory goes, is bad input: exit 2 with one error line naming the path,
    nothing created, no probability raster loaded and no weight fit started."""
    started = []

    def counted(fn):
        return lambda *a, **kw: started.append(fn.__name__) or fn(*a, **kw)

    for module in (mapfuse.cli, mapfuse.pipeline):
        for name in ("load_investigators", "load_probability_raster", "estimate_weights"):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
    d = tmp_path / "d"
    d.mkdir()
    out, blocker = tmp_path / "out", tmp_path / "file"
    blocker.write_text("in the way")
    if case == "iji-header-dir":
        (tmp_path / "map").write_bytes(b"")
        (tmp_path / "map.json").mkdir()
    config = tmp_path / "c.json"
    config.write_text(json.dumps({**json.loads((work / "pipeline.json").read_text()),
                                  "output_dir": str(blocker / "sub")}))
    argv, named = {
        "pipeline-config-dir": (["pipeline", str(d)], d),
        "simulate-scenario-dir": (["simulate", str(d), "-o", str(out)], d),
        "fuse-weights-dir": (["fuse", "-i", str(work / "data"), "-o", str(out),
                              "--weights", str(d)], d),
        "iji-header-dir": (["iji", str(tmp_path / "map")], tmp_path / "map.json"),
        "fuse-output-file": (["fuse", "-i", str(work / "data"), "-o", str(blocker)],
                             blocker),
        "simulate-output-file": (["simulate", str(work / "scenario.json"), "-o",
                                  str(blocker)], blocker),
        "entropy-output-under-file": (["entropy", "-i", str(work / "data" / "g0inv00"),
                                       "-o", str(blocker / "e")], blocker),
        "fuse-output-under-file": (["fuse", "-i", str(work / "data"), "-o",
                                    str(blocker / "sub"), "--weights", "auto"],
                                   blocker / "sub"),
        "pipeline-output-under-file": (["pipeline", str(config)], blocker / "sub"),
    }[case]
    before = sorted(tmp_path.rglob("*"))
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert rc == 2, err
    assert len(err) == 1 and err[0].startswith("error: ") and str(named) in err[0], err
    assert sorted(tmp_path.rglob("*")) == before
    assert blocker.read_text() == "in the way"
    assert started == []


def _declared_console_script() -> importlib.metadata.EntryPoint:
    """The `mapfuse` console script as `[project.scripts]` declares it."""
    tomllib = pytest.importorskip("tomllib")       # Python >= 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    return importlib.metadata.EntryPoint(
        name="mapfuse", value=scripts["mapfuse"], group="console_scripts")


def test_console_script_subprocess(work, tmp_path):
    """The console script, run as its own process, exits with main()'s code.

    The child runs what the generated `mapfuse` wrapper runs (import the
    declared target, pass its return value to sys.exit) under a fresh
    interpreter, so the test needs no installed script on PATH. It imports
    the same `mapfuse` package as this test and runs in tmp_path.
    """
    ep = _declared_console_script()
    head = ep.attr.split(".")[0]
    wrapper = (f"import sys; from {ep.module} import {head}; "
               f"sys.exit({ep.attr}())")
    package_root = str(Path(mapfuse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))

    def mapfuse_script(*args):
        return subprocess.run([sys.executable, "-c", wrapper, *args],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path, timeout=120)

    r = mapfuse_script("iji", str(work / "data" / "truth"))
    assert r.returncode == 0 and "IJI=" in r.stdout, (r.stdout, r.stderr)

    r = mapfuse_script("frobnicate")
    assert r.returncode == 2, (r.stdout, r.stderr)

    r = mapfuse_script("iji", str(tmp_path / "nope"))
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert "error:" in r.stderr, (r.stdout, r.stderr)
