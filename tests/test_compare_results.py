import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_results.py"


def compare(base: Path, new: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(base), str(new)],
                          capture_output=True, text=True)


def write(d: Path, rows: str, summary: dict) -> None:
    d.mkdir()
    (d / "r.csv").write_text(rows)
    (d / "r.csv.manifest.json").write_text(json.dumps({"config": {}, "summary": summary,
                                                       "created": str(d)}))


def test_compare_results_reports_csv_cells(tmp_path):
    header = "gamma,depth,rtvalue,class\n"
    write(tmp_path / "a", header + "1.0,32,0.1366325670307524,below\n1.5,64,0.5,above\n", {})
    write(tmp_path / "b", header + "1.0,32,0.1366325670307524,below\n1.5,64,0.5,above\n", {})
    same = compare(tmp_path / "a", tmp_path / "b")
    assert same.returncode == 0 and same.stdout == ""

    write(tmp_path / "c", header + "1.0,32,0.13663256703075244,below\n1.5,64,0.5,above\n", {})
    moved = compare(tmp_path / "a", tmp_path / "c")
    assert moved.returncode == 1
    assert moved.stdout.splitlines() == [
        "r.csv: bytes differ",
        "  1 cell(s) differ; largest relative difference 2.03e-16; "
        "text or integer cell differs: no",
        "  line 2, rtvalue: 0.1366325670307524 -> 0.13663256703075244",
    ]

    write(tmp_path / "d", header + "1.0,33,0.1366325670307524,above\n1.5,64,0.25,above\n",
          {"x": 1})
    changed = compare(tmp_path / "a", tmp_path / "d")
    assert changed.returncode == 1
    assert changed.stdout.splitlines() == [
        "r.csv: bytes differ",
        "  3 cell(s) differ; largest relative difference 0.5; "
        "text or integer cell differs: yes",
        "  line 2, depth: 32 -> 33",
        "  line 2, class: below -> above",
        "  line 3, rtvalue: 0.5 -> 0.25",
        "r.csv.manifest.json: summary differs",
    ]
    assert "2 difference(s) across 2 file(s)" in changed.stderr

    write(tmp_path / "e", header + "1.0,32,0.1366325670307524,below\n", {})
    assert "  shapes differ" in compare(tmp_path / "a", tmp_path / "e").stdout.splitlines()


def test_compare_results_refuses_an_empty_base(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    empty = compare(tmp_path / "a", tmp_path / "b")
    assert empty.returncode == 2
    assert "holds no file to compare" in empty.stderr
