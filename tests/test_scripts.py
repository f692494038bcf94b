"""Each script under scripts/ runs end to end at toy size in a fresh process."""

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


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(tmp_path, script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *SCRIPTS[script]],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "FAIL" not in proc.stdout
