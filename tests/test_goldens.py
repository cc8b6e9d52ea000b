"""Byte-for-byte regression oracles for `simulate` and `sweep`.

The files under tests/data were captured from the CLI before the simulator
became a plain symbol stream and before the bounds were normalised to a
unit-variance source, and the 1,000,003-symbol run before the batches were
split over two threads; none of these changes may move a byte of this
output. The three 65,537-symbol runs at the extremes of rho and p/n0 were
captured before each batch was reduced in two blocks of its workspace.
The two sweep goldens were regenerated from the CLI twice: when
`1 - rho^2` took the form (1 - rho)(1 + rho) everywhere and the minimax
became accurate to a few ulps, and when the sum-rate curve took its branch
from the cap it inverts rather than from the SNR, which moved `rho_star`
by at most 26 ulps of 1 - rho_star in 1 README row and 10 stratified rows.
Two simulate goldens were regenerated when the simulator came to form z
from its unit-variance statistics: the one-symbol run, whose z1 and z2
went from Infinity to null (it has no spread, so it now exits 0), and the
run at sigma2 = 2.5, whose z1 and z2 moved in the last digits, since
d_hat - d_uncoded no longer cancels in sigma2-scaled values. No other
byte of them moved.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from helpers import run_inprocess

DATA = Path(__file__).parent / "data"


def sweep_csv(tmp_path, rho_grid, snr_grid):
    path = tmp_path / "sweep.csv"
    code, _, _ = run_inprocess([
        "sweep", "--sigma2", "1", "--rho-grid", rho_grid, "--snr-grid", snr_grid,
        "--out", str(path),
    ])
    assert code == 0
    return path.read_bytes()


@pytest.mark.parametrize("symbols", [1, 50_000, 200_000, 10_000_000])
def test_simulate_json_stdout(symbols):
    # 200,000 symbols span four batches. A single symbol has no spread,
    # so its z1 and z2 are null and the run exits 0.
    code, out, _ = run_inprocess([
        "simulate", "--sigma2", "1", "--rho", "0.5", "--p", "1", "--n", "1",
        "--symbols", str(symbols), "--seed", "3", "--json",
    ])
    assert code == 0
    assert out.encode() == (DATA / f"simulate-{symbols}.json").read_bytes()


def test_simulate_json_stdout_uneven_streams():
    # 16 batches, the last holding 16,963 symbols, so the two streams get
    # eight batches each and one of them ends on the partial batch.
    code, out, _ = run_inprocess([
        "simulate", "--sigma2", "1", "--rho", "0.5", "--p", "1", "--n", "1",
        "--symbols", "1000003", "--seed", "7", "--json",
    ])
    assert code == 0
    assert out.encode() == (DATA / "simulate-1000003-seed7.json").read_bytes()


@pytest.mark.parametrize("name, rho, p, sigma2", [
    ("rho1-p2-sigma2.5", "1", "2", "2.5"),
    ("rho-near1-p3e7", "0.9999999990686774", "3e7", "1"),
    ("rho0-p1e-9", "0", "1e-9", "1"),
])
def test_simulate_json_stdout_at_extremes(name, rho, p, sigma2):
    # A full batch and a one-symbol batch, at identical, nearly identical
    # and independent components and at huge and tiny p/n0.
    code, out, _ = run_inprocess([
        "simulate", "--sigma2", sigma2, "--rho", rho, "--p", p, "--n", "1",
        "--symbols", "65537", "--seed", "3", "--json",
    ])
    assert code == 0
    assert out.encode() == (DATA / f"simulate-65537-{name}.json").read_bytes()


def test_readme_grid_sweep_csv(tmp_path):
    csv = sweep_csv(tmp_path, "0.1,0.3,0.5,0.7,0.9", "0.05,0.1,0.25,0.5,1,2,4")
    assert csv == (DATA / "sweep-readme.csv").read_bytes()


def test_stratified_grid_sweep_digest(tmp_path):
    # One point per equal-width stratum: rho in [0, 0.99), snr log-uniform
    # on [1e-3, 1e2]; 1,600 rows cover crossings, endpoints and both
    # threshold sides.
    rng = np.random.default_rng(2007)
    k = np.arange(40)
    rho = 0.99 * (k + rng.random(40)) / 40
    snr = 10.0 ** (-3.0 + 5.0 * (k + rng.random(40)) / 40)
    csv = sweep_csv(tmp_path, ",".join(map(repr, rho.tolist())), ",".join(map(repr, snr.tolist())))
    digest = (DATA / "sweep-40x40.sha256").read_text().strip()
    assert hashlib.sha256(csv).hexdigest() == digest
