"""Each script under scripts/ runs end to end at toy size in a fresh process."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = {
    "amoeba_gallery.py": ["--grid", "48", "--outdir", "gallery"],
    "isoradial_roundtrip.py": ["--trials", "2", "--dmax", "3"],
    "volume_scan.py": ["--factors", "1.01", "--grid", "48"],
}


def _run(tmp_path, script, args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(tmp_path, script):
    assert "FAIL" not in _run(tmp_path, script, SCRIPTS[script]).stdout


def test_bench_layers_record(tmp_path):
    # the keys of the quick record, not its times
    _run(tmp_path, "bench_layers.py", ["--quick", "--out", "bench.json"])
    record = json.loads((tmp_path / "bench.json").read_text())
    assert sorted(record["environment"]) == ["git_sha", "loadavg", "nproc", "numpy", "python"]
    rows = record["layers"]["kasteleyn.characteristic_polynomial"]
    assert [row["model"] for row in rows] == ["rand-2", "iso-2"]
    for row in rows:
        assert sorted(row) == ["d", "factored", "median_s", "model", "repeats", "tori"]
        assert row["tori"] >= 1 and row["factored"]
