import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from ibntrees import cli, flowcut, generators, percolation


def test_generate_and_round_trip(tmp_path):
    r = run_cli(["generate", "--family", "seq", "--depth", "8", "--out", "t.txt"], tmp_path)
    assert r.returncode == 0
    lines = (tmp_path / "t.txt").read_text().splitlines()
    assert lines[0] == "0 - 0"
    manifest = json.loads((tmp_path / "t.txt.manifest.json").read_text())
    assert manifest["config"]["subcommand"] == "generate"
    assert manifest["version"]


def test_unknown_flag_exits_2(tmp_path):
    r = run_cli(["generate", "--family", "seq", "--nope", "3"], tmp_path)
    assert r.returncode == 2


def test_unknown_family_exits_2(tmp_path):
    r = run_cli(["generate", "--family", "mystery", "--depth", "4", "--out", "x"], tmp_path)
    assert r.returncode == 2


def test_runtime_failure_exits_1(tmp_path):
    r = run_cli(["estimate-ibn", "--tree", "missing.txt", "--grid", "0.5:0.5:0.1",
                 "--schedule", "4,8", "--out", "x.csv"], tmp_path)
    assert r.returncode == 1
    assert r.stderr.startswith("error:"), r.stderr


def test_estimate_ibn_deterministic(tmp_path):
    args = ["estimate-ibn", "--family", "seq", "--grid", "0.3:0.7:0.1",
            "--schedule", "16,64,256", "--out", "a.csv"]
    assert run_cli(args, tmp_path).returncode == 0
    args2 = args[:-1] + ["b.csv"]
    assert run_cli(args2, tmp_path).returncode == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    header = (tmp_path / "a.csv").read_text().splitlines()[0]
    assert header == "lambda,depth,mincut,classification"


def test_walk_csv_and_seed_dependence(tmp_path):
    base = ["walk", "--family", "seq", "--lambda", "0.5", "--depth", "16",
            "--trials", "40", "--cap", "5000"]
    assert run_cli(base + ["--seed", "1", "--out", "w1.csv"], tmp_path).returncode == 0
    assert run_cli(base + ["--seed", "1", "--out", "w2.csv"], tmp_path).returncode == 0
    assert run_cli(base + ["--seed", "2", "--out", "w3.csv"], tmp_path).returncode == 0
    b1 = (tmp_path / "w1.csv").read_bytes()
    assert b1 == (tmp_path / "w2.csv").read_bytes()
    assert b1 != (tmp_path / "w3.csv").read_bytes()
    assert b1.splitlines()[0] == b"trial,returned,steps,maxdepth"


def test_percolate_on_tree_file(tmp_path):
    r = run_cli(["generate", "--family", "seq", "--depth", "12", "--out", "seq.txt"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["percolate", "--tree", "seq.txt", "--lambda", "0.3",
                 "--depths", "4,8,12", "--mc", "500", "--seed", "5", "--out", "p.csv"], tmp_path)
    assert r.returncode == 0
    rows = (tmp_path / "p.csv").read_text().splitlines()
    assert rows[0] == "lambda,depth,exact,mc,stderr,bound"
    assert len(rows) == 4


def test_grig_marks_feed_generate(tmp_path):
    r = run_cli(["grig", "--search", "12", "--beam", "16", "--seed", "0",
                 "--emit-marks", "marks.txt"], tmp_path)
    assert r.returncode == 0
    text = (tmp_path / "marks.txt").read_text().splitlines()
    assert text[0].startswith("# word=")
    assert set(text[1:]) <= {"0", "1"}
    r = run_cli(["generate", "--family", "marks", "--marks-file", "marks.txt",
                 "--depth", "6", "--out", "mt.txt"], tmp_path)
    assert r.returncode == 0


def test_outdir_env_var(tmp_path):
    sub = tmp_path / "results"
    sub.mkdir()
    r = run_cli(["generate", "--family", "path", "--depth", "4", "--out", "p.txt"],
                tmp_path, env={"IBNTREES_OUTDIR": str(sub)})
    assert r.returncode == 0
    assert (sub / "p.txt").exists()


def test_report_merges_and_skips(tmp_path):
    r = run_cli(["estimate-ibn", "--family", "seq", "--grid", "0.4:0.6:0.1",
                 "--schedule", "16,64", "--seed", "3", "--out", "i.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    r = run_cli(["firefight", "--family", "seq", "--k", "2", "--gamma-grid", "0.6,0.8",
                 "--schedule", "8,16,32", "--seed", "3", "--out", "f.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    (tmp_path / "broken.manifest.json").write_text("{not json")
    r = run_cli(["report", ".", "--out", "summary.csv"], tmp_path)
    assert r.returncode == 0
    assert "skipped" in r.stderr
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("family,seed")
    seq_rows = [l for l in lines if l.startswith("seq,3")]
    assert len(seq_rows) == 1
    fields = dict(zip(lines[0].split(","), seq_rows[0].split(",")))
    assert fields["ibn_lower"] != "" and fields["lambdac_upper"] != ""


def test_report_empty_dir(tmp_path):
    r = run_cli(["report", "."], tmp_path)
    assert r.returncode == 0


@pytest.mark.parametrize("argv", [
    pytest.param(["estimate-ibn", "--grid", "0.5", "--schedule", "4,8"], id="no-source"),
    pytest.param(["generate", "--depth", "4"], id="generate-no-family"),
    pytest.param(["estimate-ibn", "--family", "seq", "--tree", "t.txt"], id="family-and-tree"),
    pytest.param(["percolate", "--family", "seq"], id="percolate-no-rate"),
    pytest.param(["percolate", "--family", "seq", "--lambda", "0.3", "--grid", "0.3"],
                 id="percolate-lambda-and-grid"),
    pytest.param(["estimate-ibn", "--family", "seq", "--grid", "0.1:0.5:0"], id="zero-step"),
    pytest.param(["estimate-ibn", "--family", "seq", "--grid", "abc"], id="grid-not-a-number"),
    pytest.param(["percolate", "--family", "seq", "--grid", "0.5:0.1:0.1"], id="reversed-grid"),
    pytest.param(["firefight", "--family", "seq", "--gamma-grid", "0.9:0.2:0.1"],
                 id="reversed-gamma-grid"),
    pytest.param(["estimate-ibn", "--family", "seq", "--grid", "0.5,1.5"], id="grid-outside-unit"),
    pytest.param(["estimate-ibn", "--family", "seq", "--schedule", "64,32"], id="schedule-decreasing"),
    pytest.param(["generate", "--family", "marks", "--depth", "4"], id="marks-without-file"),
    pytest.param(["estimate-ibn", "--family", "seq", "--eps-stop", "1e-2", "--c-stay", "1e-3"],
                 id="eps-stop-above-c-stay"),
    pytest.param(["percolate", "--family", "seq", "--lambda", "1.5"],
                 id="percolate-lambda-outside-unit"),
    pytest.param(["rwrc", "--family", "seq", "--lambda", "1.5"], id="rwrc-lambda-outside-unit"),
    pytest.param(["generate", "--family", "seq", "--depth", "0"], id="generate-depth-0"),
    pytest.param(["walk", "--family", "seq", "--lambda", "0.3", "--depth", "0"],
                 id="walk-depth-0"),
    pytest.param(["walk", "--family", "seq", "--lambda", "0.3", "--trials", "0"],
                 id="walk-trials-0"),
    pytest.param(["walk", "--family", "seq", "--lambda", "0.3", "--cap", "0"], id="walk-cap-0"),
    pytest.param(["grig", "--search", "0"], id="grig-search-0"),
    pytest.param(["percolate", "--family", "seq", "--lambda", "0.3", "--mc", "-5"],
                 id="percolate-mc-negative"),
    pytest.param(["firefight", "--family", "seq", "--k", "-1"], id="firefight-k-negative"),
    pytest.param(["firefight", "--family", "seq", "--K", "0"], id="firefight-K-0"),
    pytest.param(["firefight", "--family", "seq", "--K", "nan"], id="firefight-K-nan"),
    pytest.param(["grig", "--search", "20", "--beam", "0"], id="grig-beam-0"),
    pytest.param(["walk", "--family", "seq", "--lambda", "nan"], id="walk-lambda-nan"),
    pytest.param(["walk", "--family", "seq", "--lambda", "inf"], id="walk-lambda-inf"),
])
def test_usage_errors_exit_2(argv, tmp_path, capsys):
    out = str(tmp_path / "x.out")
    out_option = "--emit-marks" if argv[0] == "grig" else "--out"
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + [out_option, out])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    assert "unrecognized arguments" not in err, err
    assert not os.path.exists(out)


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_nathanson_depth_below_1_exits_2(depth, tmp_path, capsys):
    stats = str(tmp_path / "s.csv")
    with pytest.raises(SystemExit) as exc:
        cli.main(["nathanson", "--depth", depth, "--emit-stats", stats])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(stats)


@settings(max_examples=100, deadline=None)
@given(grid=st.text(alphabet="0123456789.:,-", max_size=8),
       schedule=st.text(alphabet="0123456789,-", max_size=5))
def test_malformed_grid_and_schedule_exit_2_or_write_rows(grid, schedule):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "x.csv")
        try:
            rc = cli.main(["estimate-ibn", "--family", "seq", f"--grid={grid}",
                           f"--schedule={schedule}", "--out", out])
        except SystemExit as exc:
            assert exc.code == 2
            return
        assert rc == 0
        with open(out) as fh:
            assert len(fh.read().splitlines()) >= 2


@pytest.mark.parametrize("source", ["seq", "three-one", "tree"])
def test_percolate_theta_matches_theta_estimate(source, tmp_path):
    depths = (10, 28, 45)
    grid = "0.95,0.05,0.6,0.3"
    if source == "tree":
        tree = generators.three_one_stretched(depths[-1])
        (tmp_path / "t.txt").write_text(tree.to_text())
        argv, src = ["--tree", str(tmp_path / "t.txt")], tree
    else:
        argv, src = ["--family", source], generators.family_by_name(source)
    out = tmp_path / "p.csv"
    assert cli.main(["percolate", *argv, "--grid", grid, "--depths", "10,28,45",
                     "--out", str(out)]) == 0
    summary = json.loads((tmp_path / "p.csv.manifest.json").read_text())["summary"]
    res = percolation.theta_estimate(src, flowcut.DepthSchedule(depths), cli._parse_grid(grid))
    assert (summary["theta_lower"], summary["theta_upper"]) == (res.lower, res.upper) == (0.3, 0.95)
    rows = [row.split(",") for row in out.read_text().splitlines()[1:]]
    assert [float(r[0]) for r in rows[::len(depths)]] == [0.95, 0.05, 0.6, 0.3]
    for r in rows:
        assert math.log(float(r[2])) == res.trajectories[float(r[0])][depths.index(int(r[1]))]


@pytest.mark.parametrize("text", [
    pytest.param("0 - 0\n1 1 1\n", id="parent-not-below-id"),
    pytest.param("0 - 0\n1 0\n", id="two-tokens"),
    pytest.param("0 - 0\n1 0 2\n", id="depth-mismatch"),
    pytest.param("0 - 0\n2 0 1\n", id="ids-not-consecutive"),
    pytest.param("", id="empty-file"),
    pytest.param("0 - 0\n1 x 1\n", id="parent-not-integer"),
])
def test_malformed_tree_file_exits_1(text, tmp_path):
    (tmp_path / "bad.txt").write_text(text)
    r = run_cli(["estimate-ibn", "--tree", "bad.txt", "--grid", "0.5", "--schedule", "1",
                 "--out", "x.csv"], tmp_path)
    assert r.returncode == 1, r.stderr
    assert r.stderr.startswith("error:"), r.stderr
    assert "Traceback" not in r.stderr
    assert not (tmp_path / "x.csv").exists()
