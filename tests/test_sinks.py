"""State sinks: the kernel keeps only what its caller reads, with the same bits.

``simulate_paths`` steps the states in 16-point chunks and keeps the points
``keep`` selects (all of them, the terminal one, or every f-th one) or hands
each chunk to ``on_chunk`` (the moment reduction, the study's errors).
Each sink's output must equal the matching slice or reduction of the
all-points run bit for bit, with the same ``diverged_at``. The study's
reference reads the terminal and every-f-th sinks and its levels the error
sink, so its bytes must not depend on the block size or the worker count,
and its traced allocation peak must hold neither a whole reference path
nor a level's states.
"""

import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import rteuler as rt
from rteuler import harness
from rteuler.cli import main
from rteuler.harness import StudyConfig, _add_chunk, _study_block, strong_error_study
from rteuler.rng import make_block_draw
from rteuler.scheme import SLICE, SchemeConfig, _chunks

SRC = Path(__file__).resolve().parents[1] / "src"


def _bits(a):
    return np.ascontiguousarray(a).tobytes()


def _whole_array_sums(states, q):
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(states, axis=-1)
        finite = np.isfinite(norms)
        powered = np.where(finite, norms, 0.0) ** q
    return powered.sum(axis=0), ~finite.all(axis=0)


def _case(name, n):
    """(model, scheme config, x0) of a sink case. ``diverging``: classical Euler
    on x' = x^2 from x0 spread over (0.5, 3), so rows blow up at steps spread
    across the chunks (up to the final point) while others stay finite."""
    if name == "diverging":
        model = rt.scalar_model(lambda t, x: x**2, lambda t, x: 0.1 + 0.0 * x, name="explosive")
        return model, rt.SchemeConfig("classical", n), lambda gen: gen.uniform(0.5, 3.0)
    model = rt.double_well_model()
    if name == "double_well_classical":  # from x0 = 9 as in the moment probe's tests
        return model, rt.SchemeConfig("classical", n), 9.0
    return model, SchemeConfig(name, n), 0.3


@pytest.mark.parametrize("B", [1, 7, 300])
@pytest.mark.parametrize("n", [1, 127, 128, 129, 257])
@pytest.mark.parametrize("case", ["randomized_tamed", "randomized_untamed",
                                  "double_well_classical", "diverging"])
def test_every_sink_equals_all_points_run(B, n, case):
    model, cfg, x0 = _case(case, n)
    block = make_block_draw(17, range(B), fine_n=n, m=1, horizon=model.horizon,
                            jump_model=rt.normal_marks(2.0), x0=x0)
    full = rt.simulate_paths(model, cfg, block, 2.0)
    assert full.states.shape == (B, n + 1, 1)

    terminal = rt.simulate_paths(model, cfg, block, 2.0, keep=slice(-1, None))
    assert _bits(terminal.states) == _bits(full.states[:, -1:])
    runs = [terminal]
    for f in (2, 3, 4, 128, n):
        every = rt.simulate_paths(model, cfg, block, 2.0, keep=slice(None, None, f))
        assert _bits(every.states) == _bits(full.states[:, ::f])
        runs.append(every)

    sums = np.zeros(n + 1)
    seen = []

    def reduce(lo, x):
        seen.append((lo, lo + x.shape[1]))
        _add_chunk(4.0, sums, lo, x)

    moments = rt.simulate_paths(model, cfg, block, 2.0, keep=slice(0), on_chunk=reduce)
    assert moments.states.shape == (B, 0, 1)
    assert seen == list(_chunks(n))
    want_sums, want_bad = _whole_array_sums(full.states, 4.0)
    assert _bits(sums[~want_bad]) == _bits(want_sums[~want_bad])
    assert not np.isfinite(sums[want_bad]).any()
    runs.append(moments)

    for res in runs:
        assert np.array_equal(res.diverged_at, full.diverged_at)
    # the per-chunk diverged_at is the first non-finite step of the whole path
    nonfinite = ~np.isfinite(full.states).all(axis=2)
    want = np.where(nonfinite.any(axis=1), nonfinite.argmax(axis=1), -1)
    assert np.array_equal(full.diverged_at, want)
    if case == "diverging" and B == 300 and n == 257:
        assert full.diverged_at.max() > 128 and (full.diverged_at < 0).any()


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 255, 256, 257, 1024])
def test_chunks_cover_the_grid_and_none_is_one_point_wide(n):
    bounds = list(_chunks(n))
    assert bounds[0][0] == 0 and bounds[-1][1] == n + 1
    assert all(hi == lo for (_, hi), (lo, _) in zip(bounds, bounds[1:]))
    assert all(2 <= hi - lo <= SLICE + 1 for lo, hi in bounds)


def _small_study(error_time, **kw):
    base = dict(levels=(8, 16, 32), reference_n=64, num_paths=260, p_list=(1, 2),
                variants=("randomized_tamed", "classical"), x0=0.3, base_seed=31,
                error_time=error_time)
    return StudyConfig(**{**base, **kw})


@pytest.mark.parametrize("error_time", ["terminal", "max_over_grid"])
def test_study_bytes_hold_across_block_sizes_and_workers(error_time, monkeypatch):
    def csvs(workers=1):
        return [r.to_csv() for r in strong_error_study(_small_study(error_time), workers=workers)]

    want = csvs()  # one block of the default 1000
    assert harness.STUDY_BLOCK_SIZE == 1000
    for block_size in (1, 7, 250, 333, 500, 1000):
        monkeypatch.setattr(harness, "STUDY_BLOCK_SIZE", block_size)
        assert csvs() == want
    # two blocks of 130, one per worker, so workers=2 starts a pool of two
    monkeypatch.setattr(harness, "STUDY_BLOCK_SIZE", 250)
    assert csvs(workers=2) == want


@pytest.mark.parametrize("error_time", ["terminal", "max_over_grid"])
def test_study_block_equals_errors_of_all_points_runs(error_time):
    # factors 4, 3 and 2: the reference keeps every gcd = 1st point
    cfg = _small_study(error_time, levels=(12, 16, 24), reference_n=48, num_paths=30,
                       intensity=3.0)
    got = _study_block(cfg, range(5, 25))
    model = rt.double_well_model()
    draws = make_block_draw(cfg.base_seed, range(5, 25), fine_n=48, m=1, horizon=1.0,
                            jump_model=rt.normal_marks(3.0), x0=0.3)
    ref = rt.simulate_paths(model, SchemeConfig(cfg.reference_variant, 48),
                            draws, 3.0)
    for variant in cfg.variants:
        for j, n in enumerate(cfg.levels):
            lvl = rt.simulate_paths(model, SchemeConfig(variant, n), draws, 3.0)
            if error_time == "terminal":
                diff = np.linalg.norm(ref.states[:, -1] - lvl.states[:, -1], axis=-1)
            else:
                diff = np.linalg.norm(ref.states[:, :: 48 // n] - lvl.states, axis=-1).max(axis=1)
            assert _bits(got[variant][:, j]) == _bits(diff)
    assert np.array_equal(got["ref_diverged"], ref.diverged)


def test_study_block_peak_holds_fine_increments_and_one_level_of_randomizers():
    B, ref_n = 64, 4096
    cfg = StudyConfig(levels=(64, 128, 256, 512, 1024), reference_n=ref_n, num_paths=B,
                      base_seed=3)
    fine_bytes = B * ref_n * 8  # (B, N, 1) increments
    randomizer_bytes = B * ref_n * 8  # the reference's (B, N) randomizers, the largest level's
    _study_block(StudyConfig(levels=(4, 8, 16), reference_n=32, num_paths=1), range(1))
    tracemalloc.start()
    try:
        _study_block(cfg, range(B))
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a (B, N+1) reference state array adds fine_bytes, and keeping every
    # level's randomizers at once adds B * sum(levels) * 8, about 0.48 of it
    assert peak < fine_bytes + randomizer_bytes + fine_bytes // 4


def test_max_over_grid_study_block_keeps_no_level_states():
    B, ref_n, levels = 256, 2048, (256, 512, 1024)

    def peak(error_time):
        cfg = StudyConfig(levels=levels, reference_n=ref_n, num_paths=B, base_seed=3,
                          error_time=error_time)
        _study_block(replace(cfg, num_paths=2), range(2))  # warm-up
        tracemalloc.start()
        try:
            _study_block(cfg, range(B))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the reference keeps every gcd(8, 4, 2) = 2nd point, 2.0 MB; the finest
    # level's whole (B, n+1) states would add 2.0 MB and their norms' copies more
    ref_kept = B * (ref_n // 2 + 1) * 8
    assert peak("max_over_grid") - peak("terminal") < ref_kept + B * (max(levels) + 1) * 8 // 2


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_workers_under_spawn_give_the_workers_1_bytes(tmp_path, method):
    doc = {"model": {"preset": "double-well", "x0": 2.0}, "jumps": {"intensity": 1.0},
           "study": {"levels": [8, 16, 32], "reference_n": 64, "num_paths": 520,
                     "p_list": [1, 2]},
           "seed": 12}
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump(doc))
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "w1")]) == 0
    script = (
        "import multiprocessing, sys\n"
        "from rteuler.cli import main\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    # 520 paths are two blocks of 260, one per worker, so workers=2 starts a pool of two
    subprocess.run([sys.executable, "-c", script, "converge", "--config", str(cfg),
                    "--workers", "2", "--out", str(tmp_path / "w2")],
                   env=env, check=True, capture_output=True, timeout=300)
    assert (tmp_path / "w2" / "errors.csv").read_bytes() == \
        (tmp_path / "w1" / "errors.csv").read_bytes()
