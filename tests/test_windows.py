"""Windowed draws: a study block never holds a whole fine path, with the same bits.

The kernel reads its Brownian increments and drift randomizers one window of
cells at a time. These tests pin the bytes of a study and of the moment probe
whose grids span several windows (sha256 taken before the draws were
windowed), bound a study block's traced allocation peak below the size of
its fine increment array, and check how the study splits its paths into
blocks.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

import rteuler as rt
from rteuler import harness, rng
from rteuler.harness import StudyConfig, _study_block, moment_probe, strong_error_study
from rteuler.harness import taming_gap_probe
from rteuler.rng import StreamTag

STUDY_SHA256 = {
    "terminal": "c4245bdab86fb48bc9e1324283b1a57707493c5a3c311754eb469138dc2de522",
    "max_over_grid": "105d8e19637692940e64c85f46df2b8126deebd24988502abe8215e214eebdf1",
}
MOMENTS_SHA256 = "8ba57d907d5b0460420b9cddde30c702bb67efeb2041cdfbae9ad26b8720d3a1"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("error_time", ["terminal", "max_over_grid"])
def test_study_bytes_across_windows(error_time):
    # reference_n 4096 is four windows of 1024 cells; the level 1024 is one
    cfg = StudyConfig(levels=(256, 512, 1024), reference_n=4096, num_paths=64, p_list=(1, 2),
                      variants=("randomized_tamed", "classical"), x0=0.3, base_seed=7,
                      intensity=1.0, error_time=error_time)
    assert 4096 > rng.WINDOW
    text = "".join(r.to_csv() for r in strong_error_study(cfg))
    assert _sha256(text) == STUDY_SHA256[error_time]


def test_moment_probe_bytes_across_windows(dw_model):
    # n = 2048 spans two windows; at x0 = 0.3 the sup is away from t = 0
    table = moment_probe(dw_model, "randomized_tamed", [256, 2048], 4.0, 64, x0=0.3,
                         jump_model=rt.normal_marks(1.0), base_seed=9)
    assert 2048 > rng.WINDOW and table.rows[-1].sup_moment != 0.3**4
    text = "\n".join(f"{r.n},{r.dt.hex()},{r.sup_moment.hex()},{r.diverged_frac.hex()}"
                     for r in table.rows)
    assert _sha256(text) == MOMENTS_SHA256


def test_taming_gap_probe_fills_each_levels_randomizers_once(dw_model, monkeypatch):
    filled = []
    keys = rng._philox_keys

    def counting(base_seed, cols):
        tags, levels = np.asarray(cols[1]), np.asarray(cols[2])
        if tags.size and (tags == StreamTag.RANDOMIZER).all():
            filled.append(int(levels[0]))
        return keys(base_seed, cols)

    monkeypatch.setattr(rng, "_philox_keys", counting)
    table = taming_gap_probe(dw_model, "randomized_tamed", [16, 32, 64], 2.0, 5, x0=0.5)
    assert sorted(filled) == [16, 32, 64]
    assert [row.n for row in table.rows] == [16, 32, 64]


def test_study_block_peak_stays_below_its_fine_increments():
    B, ref_n = 64, 16384
    cfg = StudyConfig(levels=(64, 128, 256), reference_n=ref_n, num_paths=B, base_seed=3)
    fine_bytes = B * ref_n * 1 * 8  # the (B, N, m) fine increment array
    _study_block(StudyConfig(levels=(4, 8, 16), reference_n=32, num_paths=1), range(1))
    tracemalloc.start()
    try:
        _study_block(cfg, range(B))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < fine_bytes


@pytest.mark.parametrize("workers, blocks", [(1, 1), (2, 2)])
def test_study_runs_one_block_per_worker_up_to_block_size(workers, blocks):
    said = []
    cfg = StudyConfig(levels=(8, 16, 32), reference_n=64, num_paths=1000, p_list=(2,),
                      intensity=0.0, base_seed=1)
    assert harness.STUDY_BLOCK_SIZE == 1000
    strong_error_study(cfg, workers=workers, progress=said.append)
    assert said[0] == f"simulating 1000 paths in {blocks} blocks"
