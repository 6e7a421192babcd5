import contextlib
import io
import json
import math
import os
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_cli
from ibntrees import cli, flowcut, generators, grigorchuk, percolation


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


def test_walk_seed_range_edges_run_and_differ(tmp_path):
    # the whole 64-bit key word is usable, and its ends are distinct streams
    base = ["walk", "--family", "seq", "--lambda", "0.3", "--depth", "16",
            "--trials", "20", "--cap", "500"]
    for seed in ("0", str(2 ** 64 - 1)):
        assert run_cli(base + ["--seed", seed, "--out", f"w{seed}.csv"], tmp_path).returncode == 0
    assert (tmp_path / "w0.csv").read_bytes() != (tmp_path / f"w{2 ** 64 - 1}.csv").read_bytes()


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


def test_marks_file_rejects_a_mark_not_0_or_1(tmp_path, capsys):
    marks = tmp_path / "m.txt"
    marks.write_text("# header\n\ntrue\ntrue\n2\n1\n")
    out = tmp_path / "mt.txt"
    argv = ["generate", "--family", "marks", "--marks-file", str(marks), "--depth", "4",
            "--out", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "line 3" in err
    assert not out.exists()


def test_outdir_env_var(tmp_path):
    sub = tmp_path / "results"
    sub.mkdir()
    r = run_cli(["generate", "--family", "path", "--depth", "4", "--out", "p.txt"],
                tmp_path, env={"IBNTREES_OUTDIR": str(sub)})
    assert r.returncode == 0
    assert (sub / "p.txt").exists()


def _manifest(path) -> dict:
    return json.loads(Path(f"{path}.manifest.json").read_text())


def test_run_records_every_output_path(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["nathanson", "--depth", "6", "--emit-tree", "a", "--emit-stats", "b"]) == 0
    for name in ("a", "b"):  # one manifest per data file, each naming both
        manifest = _manifest(tmp_path / name)
        assert manifest["summary"]["tree_out"] == os.path.join(".", "a")
        assert manifest["summary"]["stats_out"] == os.path.join(".", "b")
        assert manifest["config"] == {"subcommand": "nathanson", "options": {
            "seed": 0, "depth": 6, "emit_tree": "a", "emit_stats": "b"}}
    assert cli.main(["grig", "--search", "8", "--emit-marks", "m.txt"]) == 0
    assert _manifest(tmp_path / "m.txt")["summary"]["marks_out"] == os.path.join(".", "m.txt")
    before = sorted(os.listdir(tmp_path))
    assert cli.main(["report", "."]) == 0  # no --out, no data file, no manifest
    assert sorted(os.listdir(tmp_path)) == before

    sub = tmp_path / "results"
    sub.mkdir()
    monkeypatch.setenv("IBNTREES_OUTDIR", str(sub))
    absolute = tmp_path / "abs.txt"
    for out in ("rel.txt", str(absolute)):
        assert cli.main(["generate", "--family", "path", "--depth", "4", "--out", out]) == 0
    assert _manifest(sub / "rel.txt")["summary"]["out"] == str(sub / "rel.txt")
    assert _manifest(absolute)["summary"]["out"] == str(absolute)
    assert sorted(os.listdir(sub)) == ["rel.txt", "rel.txt.manifest.json"]


def test_grig_beam_applies_to_a_short_search(tmp_path):
    orbits = []
    for beam in ("1", "256"):
        marks = tmp_path / f"m{beam}.txt"
        assert cli.main(["grig", "--search", "12", "--beam", beam,
                         "--emit-marks", str(marks)]) == 0
        orbits.append(_manifest(marks)["summary"]["orbit"])
    assert orbits[0] < 7 == orbits[1]


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


def test_report_keys_tree_runs_by_their_file(tmp_path, monkeypatch):
    # runs without a family get one row per --tree value, whichever subcommand wrote them
    monkeypatch.chdir(tmp_path)
    for argv in (["generate", "--family", "three-one", "--depth", "28", "--out", "t31.txt"],
                 ["nathanson", "--depth", "14", "--emit-tree", "n14.txt"],
                 ["estimate-ibn", "--tree", "t31.txt", "--schedule", "14,28", "--out", "a.csv"],
                 ["estimate-ibn", "--tree", "n14.txt", "--schedule", "7,14", "--out", "b.csv"],
                 ["percolate", "--tree", "n14.txt", "--grid", "0.3,0.7", "--depths", "7,14",
                  "--out", "c.csv"]):
        assert cli.main(argv) == 0, argv
    assert cli.main(["report", ".", "--out", "summary.csv"]) == 0
    header, *lines = (tmp_path / "summary.csv").read_text().splitlines()
    rows = {line.split(",")[0]: dict(zip(header.split(","), line.split(","))) for line in lines}
    assert sorted(rows) == ["n14.txt", "t31.txt"]
    for out, tree in (("a.csv", "t31.txt"), ("b.csv", "n14.txt")):
        assert rows[tree]["ibn_lower"] == str(_manifest(tmp_path / out)["summary"]["ibn_lower"])
    assert rows["n14.txt"]["theta_lower"] != "" and rows["t31.txt"]["theta_lower"] == ""


def test_report_keys_marks_runs_by_their_marks_file(tmp_path, monkeypatch):
    # all marks 1 give the binary tree, all marks 0 the path: two brackets, two rows
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m1.txt").write_text("1\n" * 64)
    (tmp_path / "m2.txt").write_text("0\n" * 64)
    for marks, out in (("m1.txt", "a.csv"), ("m2.txt", "b.csv")):
        assert cli.main(["estimate-ibn", "--family", "marks", "--marks-file", marks,
                         "--schedule", "16,32,64", "--out", out]) == 0
    assert cli.main(["report", ".", "--out", "summary.csv"]) == 0
    header, *lines = (tmp_path / "summary.csv").read_text().splitlines()
    rows = {line.split(",")[0]: dict(zip(header.split(","), line.split(","))) for line in lines}
    assert sorted(rows) == ["m1.txt", "m2.txt"]
    for out, marks in (("a.csv", "m1.txt"), ("b.csv", "m2.txt")):
        assert rows[marks]["ibn_lower"] == str(_manifest(tmp_path / out)["summary"]["ibn_lower"])
    assert [rows["m1.txt"]["ibn_lower"], rows["m1.txt"]["ibn_upper"]] == ["0.9", ""]
    assert [rows["m2.txt"]["ibn_lower"], rows["m2.txt"]["ibn_upper"]] == ["0.45", "0.65"]


def test_report_skips_manifests_of_the_wrong_shape(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert cli.main(["firefight", "--family", "seq", "--gamma-grid", "0.6,0.8",
                     "--schedule", "8,16,32", "--out", str(out)]) == 0
    bad = {"list": [],
           "summary-list": {"summary": [], "config": {"subcommand": "walk", "options": {}}},
           "no-options": {"summary": {"ibn_lower": 0.5}, "config": {"subcommand": "walk"}}}
    for name, manifest in bad.items():
        (tmp_path / f"{name}.manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert cli.main(["report", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    warnings = captured.err.splitlines()
    assert sorted(w.split(".manifest.json")[0] for w in warnings) == sorted(
        f"warning: skipped {name}" for name in bad)
    assert captured.out.splitlines()[1].startswith("seq,0,")  # the good run's row


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
    pytest.param(["estimate-ibn", "--family", "seq", "--grid", "0.05:0.95:1e-9"],
                 id="grid-too-fine"),
    pytest.param(["percolate", "--family", "seq", "--grid", "0.5:0.1:0.1"], id="reversed-grid"),
    pytest.param(["firefight", "--family", "seq", "--gamma-grid", "0.9:0.2:0.1"],
                 id="reversed-gamma-grid"),
    pytest.param(["estimate-ibn", "--family", "seq", "--grid", "0.5,1.5"], id="grid-outside-unit"),
    pytest.param(["estimate-ibn", "--family", "seq", "--schedule", "64,32"], id="schedule-decreasing"),
    pytest.param(["estimate-ibn", "--family", "seq", "--schedule=--"], id="schedule-lone-dashes"),
    pytest.param(["walk", "--family", "seq", "--lambda=--"], id="lambda-lone-dashes"),
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
    pytest.param(["firefight", "--family", "seq", "--k", "7", "--schedule", "8"],
                 id="firefight-k-at-deepest-depth"),
    pytest.param(["firefight", "--family", "seq", "--k", str(10 ** 400)], id="firefight-k-huge"),
    pytest.param(["walk", "--family", "seq", "--lambda", "0.3", "--seed", "-1"],
                 id="seed-negative"),
    pytest.param(["grig", "--search", "4", f"--seed={5 - 2 ** 64}"], id="seed-below-minus-2**64"),
    pytest.param(["percolate", "--family", "seq", "--lambda", "0.3", "--seed", str(2 ** 64)],
                 id="seed-2**64"),
    pytest.param(["walk", "--family", "seq", "--lambda", "0.3", "--seed", str(5 + 2 ** 64)],
                 id="seed-above-2**64"),
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


def test_grid_size_bound_names_the_count(tmp_path, capsys):
    assert len(cli._parse_grid("1:10000:1")) == cli.MAX_GRID_VALUES
    with pytest.raises(ValueError, match="asks for 10001 values"):
        cli._parse_grid("1:10001:1")
    with pytest.raises(SystemExit):
        cli.main(["percolate", "--family", "seq", "--grid", "0.05:0.95:1e-6",
                  "--out", str(tmp_path / "x.csv")])
    assert "asks for 900001 values, more than 10000" in capsys.readouterr().err


@pytest.mark.parametrize("k", ["7", str(10 ** 400)])
def test_firefight_k_without_a_deeper_depth_names_k(k, tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["firefight", "--family", "seq", "--k", k, "--schedule", "4,8",
                  "--out", str(tmp_path / "x.csv")])
    assert "error: --k must be below the deepest --schedule depth minus 1 (7)" in \
        capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    # the budget exp(n**0.9) leaves the float range at round 1473
    ["--family", "path", "--k", "2", "--gamma-grid", "0.9", "--schedule", "1600"],
    # K * exp(1) is inf
    ["--family", "seq", "--K", "1e308", "--gamma-grid", "0.8", "--schedule", "8,16,32"],
], ids=["path-1600-rounds", "K-1e308"])
def test_firefight_huge_budgets_exit_0(argv, tmp_path):
    out = tmp_path / "f.csv"
    assert cli.main(["firefight", *argv, "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    assert len(rows) == 2 and rows[1].split(",")[2] == "1"  # contained


def test_firefight_zero_budgets_contain_nothing(tmp_path):
    # K = 1e-9 makes every budget 0 through depth 32: the fire burns each truncation
    out = tmp_path / "f.csv"
    assert cli.main(["firefight", "--family", "seq", "--k", "2", "--gamma-grid", "0.8",
                     "--K", "1e-9", "--schedule", "8,16,32", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[2:] == ["0", str(generators.sequence_family().build(32).n_vertices), "0"]
    reasons = json.loads((tmp_path / "f.csv.manifest.json").read_text())["summary"]["reasons"]
    assert reasons == {"0.8": "greedy protection too slow: fire reached the surrounding set"}


def test_firefight_cut_level_past_the_vertex_cap_exits_0(tmp_path):
    # 1s at depths 0..22: the cut level alone holds 2**23 vertices, more than
    # a truncation may, and the symmetric route builds none
    assert 2 ** 23 > generators.DEFAULT_VERTEX_CAP
    marks = tmp_path / "m.txt"
    marks.write_text("1\n" * 23)
    out = tmp_path / "f.csv"
    assert cli.main(["firefight", "--family", "marks", "--marks-file", str(marks),
                     "--gamma-grid", "0.9", "--schedule", "32", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    # contained at level 32: levels 0..31 burn, level 32 is protected
    assert row[2:] == ["1", str(2 ** 23 - 1 + 9 * 2 ** 23), str(2 ** 23)]


def _exits_1_naming_the_cap(argv, capsys):
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"(cap {generators.DEFAULT_VERTEX_CAP})" in err
    return err


def test_grig_search_past_the_element_cap_exits_1(tmp_path, capsys, monkeypatch):
    # the n = 12 search at the default beam holds 4732 orbit-matrix elements in its last step
    monkeypatch.setattr(generators, "DEFAULT_VERTEX_CAP", 4000)
    marks = tmp_path / "m.txt"
    err = _exits_1_naming_the_cap(["grig", "--search", "12", "--emit-marks", str(marks)], capsys)
    assert "the word search would hold 4732 elements" in err
    assert not marks.exists()


def test_grig_point_past_the_prefix_budget_exits_1(tmp_path, capsys, monkeypatch):
    # at a budget of 1 the search meets a point whose image has 3 letters
    monkeypatch.setattr(grigorchuk, "POINT_BUDGET", 1)
    monkeypatch.setattr(grigorchuk, "_IMAGES", {ch: {} for ch in grigorchuk.GENERATORS})
    marks = tmp_path / "m.txt"
    capsys.readouterr()
    assert cli.main(["grig", "--search", "40", "--beam", "8", "--emit-marks", str(marks)]) == 1
    assert capsys.readouterr().err == "error: point prefix exceeds 2 letters\n"
    assert not marks.exists()


def test_walk_batch_past_the_element_cap_exits_1(tmp_path, capsys):
    out = tmp_path / "w.csv"
    err = _exits_1_naming_the_cap(
        ["walk", "--family", "seq", "--lambda", "0.3", "--depth", "5",
         "--trials", str(10 ** 12), "--cap", "10", "--out", str(out)], capsys)
    assert "walk batch" in err and str(10 ** 12) in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["estimate-ibn", "--grid", "0.5", "--schedule", "16,DEEP"],
    ["percolate", "--grid", "0.5", "--depths", "16,DEEP"],
    ["firefight", "--gamma-grid", "0.5", "--schedule", "16,DEEP"],
    ["rwrc", "--lambda", "0.3", "--gamma-grid", "1.0", "--schedule", "16,DEEP"],
    ["walk", "--lambda", "0.3", "--depth", "DEEP", "--trials", "3", "--cap", "10"],
], ids=lambda argv: argv[0])
def test_depth_past_the_element_cap_exits_1(argv, tmp_path, capsys):
    # a degree array to depth 10**12 would take 7.3 TiB
    out = tmp_path / "x.csv"
    argv = [a.replace("DEEP", str(10 ** 12)) for a in argv]
    err = _exits_1_naming_the_cap(argv + ["--family", "seq", "--out", str(out)], capsys)
    assert "degree array" in err and str(10 ** 12) in err
    assert not out.exists()


@pytest.mark.parametrize("argv, what", [
    (["estimate-ibn", "--grid", "0.5", "--schedule", "16,DEEP"], "3-1 breakpoint lattice"),
    (["estimate-ibn", "--schedule", "16,100000000"], "3-1 breakpoint lattice"),
    (["percolate", "--grid", "0.5", "--depths", "16,DEEP"], "3-1 breakpoint lattice"),
    (["firefight", "--gamma-grid", "0.5", "--schedule", "16,DEEP"], "stretched truncation"),
    (["rwrc", "--lambda", "0.3", "--gamma-grid", "1.0", "--schedule", "16,DEEP"],
     "stretched truncation"),
    (["walk", "--lambda", "0.3", "--depth", "DEEP", "--trials", "3", "--cap", "10"],
     "stretched truncation"),
], ids=["estimate-ibn", "estimate-ibn-1e8", "percolate", "firefight", "rwrc", "walk"])
def test_three_one_depth_past_the_element_cap_exits_1(argv, what, tmp_path, capsys):
    # refused before any work that grows with the depth: the vertex estimate
    # is a closed form, and the class table's lattice costs M**2 at base
    # level M (about 1.4e6 at depth 10**12, 14142 at depth 10**8)
    out = tmp_path / "x.csv"
    argv = [a.replace("DEEP", str(10 ** 12)) for a in argv]
    err = _exits_1_naming_the_cap(argv + ["--family", "three-one", "--out", str(out)], capsys)
    assert what in err
    assert not out.exists()


def test_percolate_deep_path_tree_file_matches_the_family(tmp_path):
    # the comparison network's conductances fall below exp(-745) long before depth 1100
    assert cli.main(["generate", "--family", "path", "--depth", "1100",
                     "--out", str(tmp_path / "p.txt")]) == 0
    rows = {}
    for name, source in (("tree", ["--tree", str(tmp_path / "p.txt")]),
                         ("family", ["--family", "path"])):
        out = tmp_path / f"{name}.csv"
        assert cli.main(["percolate", *source, "--lambda", "0.95", "--depths", "1100",
                         "--out", str(out)]) == 0
        rows[name] = out.read_text()
    assert rows["tree"] == rows["family"]


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


def test_walk_tree_file_truncated_at_depth(tmp_path, capsys):
    g10 = str(tmp_path / "g10.txt")
    assert cli.main(["generate", "--family", "three-one", "--depth", "10", "--out", g10]) == 0
    walk = ["walk", "--lambda", "0.5", "--depth", "3", "--trials", "5", "--cap", "200"]
    from_file, from_family = tmp_path / "file.csv", tmp_path / "family.csv"
    assert cli.main(walk + ["--tree", g10, "--out", str(from_file)]) == 0
    assert cli.main(walk + ["--family", "three-one", "--out", str(from_family)]) == 0
    rows = [row.split(",") for row in from_file.read_text().splitlines()[1:]]
    assert max(int(r[3]) for r in rows) == 3
    assert from_file.read_bytes() == from_family.read_bytes()

    g1 = str(tmp_path / "g1.txt")
    assert cli.main(["generate", "--family", "seq", "--depth", "1", "--out", g1]) == 0
    capsys.readouterr()
    assert cli.main(walk + ["--tree", g1, "--out", str(tmp_path / "shallow.csv")]) == 1
    assert capsys.readouterr().err == "error: tree must reach depth N=3\n"
    assert not (tmp_path / "shallow.csv").exists()


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


def test_tree_file_load_memory_is_bounded(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text(generators.three_one_stretched(78).to_text())  # 90115 vertices, 1.3 MB
    opts = {"tree": str(path)}
    cli._load_source(opts)  # first calls set up numpy's parser
    tracemalloc.start()
    try:
        tree = cli._load_source(opts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tree.n_vertices == 90115
    # 4.2 MB parsed 8192 lines at a time into parent and depth arrays; 6.0 MB
    # as one array of all rows, 10 MB with the whole file as one string
    assert peak < 9 << 19, peak


def test_main_in_one_process_matches_fresh_processes(tmp_path):
    # main reuses one parser per process; a usage error between runs must
    # not change what the next run writes
    runs = [["generate", "--family", "three-one", "--depth", "10", "--out", "g.txt"],
            ["generate", "--family", "seq", "--nope", "3"],
            ["estimate-ibn", "--tree", "g.txt", "--grid", "0.3:0.7:0.1", "--schedule", "4,8,10",
             "--out", "e.csv"]]
    same, fresh = tmp_path / "same", tmp_path / "fresh"
    same.mkdir()
    fresh.mkdir()
    cwd = os.getcwd()
    os.chdir(same)
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            codes = []
            for argv in runs:
                try:
                    codes.append(cli.main(argv))
                except SystemExit as exc:
                    codes.append(exc.code)
    finally:
        os.chdir(cwd)
    assert codes == [0, 2, 0]
    assert [run_cli(argv, fresh).returncode for argv in runs] == codes
    for name in ("g.txt", "e.csv"):
        assert (same / name).read_bytes() == (fresh / name).read_bytes(), name


# -- the CLI contract: any argv exits 0 with outputs, 2 from argparse, or 1 ----

# (values an option's parser accepts, values it should reject): sizes stay
# tiny, rates and thresholds range over every finite float
SIZE = (st.sampled_from(["1", "2", "3"]), st.sampled_from(["0", "-2", "2.5", "nan", "inf", "x"]))
DEPTHS = (st.sampled_from(["1", "1,2", "2,3", "1,2,3", "3"]),
          st.sampled_from(["3,2", "0,1", "-1", "nan", "1,inf", ""]))
GRID = (st.sampled_from(["0.5", "0.2,0.8", "0.1:0.9:0.4", "0.3:0.3:0.1"]),
        st.sampled_from(["0", "1", "-0.5", "nan", "inf", "0.5:0.1:0.1", "1e308", "a"]))
NUMBER = (st.one_of(st.floats(0, 1), st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([0, -1, 150, 1e-300, 1e308])),
          st.sampled_from(["nan", "inf", "-inf", "x"]))
RATE = (st.floats(0, 1, exclude_min=True, exclude_max=True),
        st.sampled_from(["0", "1", "-1", "150", "1e308", "nan", "inf"]))
INTEGER = (st.one_of(st.integers(), st.just(10 ** 400)), st.sampled_from(["nan", "1.5", "x"]))
SEED = (st.integers(0, 2 ** 64 - 1),
        st.one_of(st.integers(max_value=-1), st.integers(min_value=2 ** 64),
                  st.sampled_from(["nan", "1.5", "x"])))
SOURCE = (st.sampled_from([["--family", f] for f in ("seq", "three-one", "binary", "path")]
                          + [["--family", "marks", "--marks-file", "marks.txt"],
                             ["--tree", "t.txt"]]),
          st.just(["--tree", "missing.txt"]))


@st.composite
def cli_argv(draw) -> list[str]:
    """One argv of any subcommand.  In half the draws every option takes a
    value its parser accepts; in the other half any option may not."""
    strict = draw(st.booleans())

    def value(kind):
        valid, invalid = kind
        return draw(valid if strict else st.one_of(valid, invalid))

    def opt(name, kind):
        return [name, str(value(kind))]

    sub = draw(st.sampled_from(["generate", "estimate-ibn", "walk", "rwrc", "percolate",
                                "firefight", "nathanson", "grig", "report"]))
    if sub == "report":
        return ["report", draw(st.sampled_from([".", "missing"])),
                *draw(st.sampled_from([[], ["--out", "o.csv"]]))]
    seed = opt("--seed", SEED)
    if sub == "nathanson":
        return ["nathanson", *opt("--depth", SIZE), "--emit-tree", "o.txt",
                "--emit-stats", "o.csv", *seed]
    if sub == "grig":
        return ["grig", *opt("--search", SIZE), *opt("--beam", SIZE), "--emit-marks", "o.txt",
                *seed]
    options = {
        "generate": lambda: opt("--depth", SIZE),
        "estimate-ibn": lambda: [*opt("--grid", GRID), *opt("--schedule", DEPTHS),
                                 *opt("--eps-stop", NUMBER), *opt("--c-stay", NUMBER)],
        "walk": lambda: [*opt("--lambda", NUMBER), *opt("--depth", SIZE),
                         *opt("--trials", SIZE), *opt("--cap", SIZE)],
        "rwrc": lambda: [*opt("--lambda", RATE), *opt("--gamma-grid", GRID),
                         *opt("--schedule", DEPTHS)],
        "percolate": lambda: [*opt(*draw(st.sampled_from([("--lambda", RATE),
                                                           ("--grid", GRID)]))),
                              *opt("--depths", DEPTHS), *opt("--mc", SIZE)],
        "firefight": lambda: [*opt("--k", INTEGER), *opt("--K", NUMBER),
                              *opt("--gamma-grid", GRID), *opt("--schedule", DEPTHS),
                              *opt("--horizon", INTEGER)],
    }[sub]()
    return [sub, *value(SOURCE), *options, *seed, "--out", "o.csv"]


@settings(max_examples=400, deadline=None)
@given(argv=cli_argv())
def test_cli_contract(argv):
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "t.txt").write_text(generators.sequence_family().build(3).to_text())
        (Path(tmp) / "marks.txt").write_text("1\n0\n1\n")
        outputs = [Path(tmp, argv[i + 1]) for i, a in enumerate(argv)
                   if a in ("--out", "--emit-tree", "--emit-stats", "--emit-marks")]
        err = io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
            assert rc == 2 and "error:" in err.getvalue(), err.getvalue()
        finally:
            os.chdir(cwd)
        if rc == 1:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            assert rc in (0, 2)
        for path in outputs:
            assert path.exists() == (rc == 0), path
            assert Path(f"{path}.manifest.json").exists() == (rc == 0), path
