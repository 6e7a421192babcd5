import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "peak_rss.py"


def peak_rss(bound, *argv, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(bound), *argv], cwd=cwd,
                          capture_output=True, text=True)


def test_peak_rss_passes_under_the_bound_and_fails_over_it(tmp_path):
    argv = ["generate", "--family", "seq", "--depth", "4", "--out", "t.txt"]
    ok = peak_rss(4096, *argv, cwd=tmp_path)
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith(" ".join(argv) + ": ") and "peak RSS" in ok.stdout
    assert (tmp_path / "t.txt").exists()
    over = peak_rss(1, *argv, cwd=tmp_path)
    assert over.returncode == 1 and "over the 1 MB bound" in over.stderr


def test_peak_rss_fails_with_the_command(tmp_path):
    failed = peak_rss(4096, "walk", "--family", "seq", "--lambda", "0.3", "--depth", "0",
                      "--out", "w.csv", cwd=tmp_path)
    assert failed.returncode == 1 and "exit code 2" in failed.stderr


def test_peak_rss_reads_only_its_own_command(tmp_path):
    # exec'd from a process whose child peaked at 150 MB: the peak of every
    # child the process image ever waited for survives execve
    argv = ["generate", "--family", "seq", "--depth", "4", "--out", "t.txt"]
    launcher = (
        "import os, subprocess, sys\n"
        "subprocess.run([sys.executable, '-c', 'b = b\"x\" * (150 << 20)'], check=True)\n"
        f"os.execv(sys.executable, [sys.executable, {str(SCRIPT)!r}, '100', *{argv!r}])\n")
    ran = subprocess.run([sys.executable, "-c", launcher], cwd=tmp_path,
                         capture_output=True, text=True)
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout.startswith(" ".join(argv) + ": ") and (tmp_path / "t.txt").exists()
