"""Registered models in worker processes started by ``spawn`` or ``forkserver``.

Such a worker imports rteuler afresh and knows only the built-in presets, so
``strong_error_study`` hands each worker the study model's registered factory.
A factory that does not pickle is refused before any worker starts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HELPER = '''
import rteuler as rt


def decay(rate=1.0):
    return rt.scalar_model(lambda t, x: -rate * x, lambda t, x: 0.2 + 0.0 * x, name="decay")
'''

SCRIPT = '''
import multiprocessing, sys
import rteuler as rt
from rteuler import harness
from rteuler.harness import StudyConfig, strong_error_study
import decay_models

multiprocessing.set_start_method(sys.argv[1])
cfg = StudyConfig(model="decay", model_params={"rate": 0.5}, x0=1.0, levels=(8, 16, 32),
                  reference_n=64, num_paths=40, p_list=(1, 2), intensity=0.0, base_seed=3)
rt.register_model("decay", decay_models.decay)
one = strong_error_study(cfg, workers=1)[0].to_csv()
two = strong_error_study(cfg, workers=2)[0].to_csv()  # two blocks of 20, a pool of two
print("same bytes" if one == two else "different bytes")
rt.register_model("decay", lambda **kw: decay_models.decay(**kw))
harness.futures = None  # starting a pool now fails with an AttributeError
try:
    strong_error_study(cfg, workers=2)
except ValueError as exc:
    print(exc)
'''


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_registered_model_runs_in_workers_and_an_unpicklable_factory_is_refused(tmp_path,
                                                                                method):
    (tmp_path / "decay_models.py").write_text(HELPER)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), str(tmp_path)]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-c", SCRIPT, method], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    same, refused = done.stdout.splitlines()
    assert same == "same bytes"
    assert refused.startswith("model 'decay' cannot run with workers > 1: its factory does "
                              "not pickle")
