import subprocess
import sys
from pathlib import Path

from conftest import run_cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name: str, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, args)],
                          capture_output=True, text=True)


def test_battery_matches_one_process_per_command(tmp_path):
    # the battery runs every command in one interpreter; each printed
    # `+ <argv>` line replayed in a fresh one must write the same files, so
    # no command's output depends on the commands run before it
    one, replay = tmp_path / "one", tmp_path / "replay"
    battery = run_script("reproduce_all.py", one, "--quick")
    assert battery.returncode == 0, battery.stderr
    commands = [line[2:].split() for line in battery.stdout.splitlines() if line.startswith("+ ")]
    assert len(commands) == 14
    replay.mkdir()
    for argv in commands:
        proc = run_cli(argv, replay)
        assert proc.returncode == 0, (argv, proc.stderr)
    compared = run_script("compare_results.py", one, replay)
    assert compared.returncode == 0, compared.stdout
