"""Canonical CLI output for fixed inputs, compared byte for byte.

Each case runs ``harnack.cli.main`` in process on inputs built from fixed
seeded draws and compares stdout (and, for ``amoeba``, the PGM's sha256)
with a file under ``tests/golden/``. Running this file as a script,
``PYTHONPATH=src python tests/test_cli_golden.py``, rewrites those files;
do that only for a change that is meant to alter the output.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

from harnack import EdgeWeights, Genus0Curve, IsoradialAngles, boundary_map
from harnack import io as hio
from harnack.cli import main
from harnack.kasteleyn import BivariatePolynomial, characteristic_polynomial

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "spectral": ["spectral", "--weights", "{w3}"],
    "boundary": ["boundary", "--weights", "{w3}"],
    "ronkin": ["ronkin", "--poly", "{p2}", "--at", "0.3,-0.2"],
    "genus0-fit": ["genus0-fit", "--boundary", "{triple}"],
    "isoradial": ["isoradial", "--angles", "{angles}", "--check"],
    "holes": ["holes", "--poly", "{p3}", "--grid", "120"],
    "amoeba": ["amoeba", "--poly", "{p3}", "--grid", "120", "--out", "{pgm}"],
    "ma-check": ["ma-check", "--poly", "{p2}", "--points", "2"],
    "divisor": ["divisor", "--weights", "{w3}", "--vertex", "0,0"],
    "volume-diff": ["volume-diff", "--poly1", "{u3p}", "--poly2", "{u3}"],
    "verify-harnack": ["verify-harnack", "--poly", "{p3}"],
}


def _write_inputs(tmp: Path) -> dict:
    w2 = EdgeWeights.random(2, np.random.default_rng(5))
    w3 = EdgeWeights.random(3, np.random.default_rng(2026))
    u3 = characteristic_polynomial(EdgeWeights.uniform(3))
    # the c12 pair: u3 with p11 x 1.01 opens a hole at (1, 1) and keeps the boundary
    u3p = u3.coeffs.copy()
    u3p[1, 1] *= 1.01
    files = {
        "w3": hio.weights_to_json(w3),
        "p2": hio.poly_to_json(characteristic_polynomial(w2)),
        "p3": hio.poly_to_json(characteristic_polynomial(w3)),
        "triple": hio.triple_to_json(boundary_map(Genus0Curve.random(3, np.random.default_rng(8)))),
        "angles": hio.angles_to_json(IsoradialAngles.random(3, np.random.default_rng(9))),
        "u3": hio.poly_to_json(u3),
        "u3p": hio.poly_to_json(BivariatePolynomial(3, u3p)),
    }
    paths = {}
    for name, payload in files.items():
        path = tmp / f"{name}.json"
        path.write_text(hio.dumps_json(payload))
        paths[name] = str(path)
    paths["pgm"] = str(tmp / "amoeba.pgm")
    return paths


def _run(name: str, paths: dict) -> tuple[int, str]:
    argv = [arg.format(**paths) for arg in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    text = out.getvalue()
    if name == "amoeba":
        text += "pgm sha256 " + hashlib.sha256(Path(paths["pgm"]).read_bytes()).hexdigest() + "\n"
    return code, text


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return _write_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", list(CASES))
def test_stdout_matches_golden(name, inputs, monkeypatch):
    monkeypatch.setenv("HARNACK_SEED", "7")
    code, text = _run(name, inputs)
    assert code == 0
    assert text == (GOLDEN / f"{name}.txt").read_text()


if __name__ == "__main__":
    import os
    import tempfile

    os.environ["HARNACK_SEED"] = "7"
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_inputs(Path(tmp))
        for name in CASES:
            code, text = _run(name, paths)
            if code != 0:
                sys.exit(f"{name} exited {code}")
            (GOLDEN / f"{name}.txt").write_text(text)
