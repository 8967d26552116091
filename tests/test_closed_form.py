"""Strong error against the exact solution, not against the same kernel.

The study measures every level against a reference that the same kernel
steps, so a fault that the reference shares with the levels, a compensator
of the wrong sign say, keeps its slope. Here the randomized arms step the
linear SDE of ``oracles.linear_jump_model`` (Kloeden & Platen 1992 use linear
test equations for the same purpose), whose solution is known in closed form
on the block's own Brownian increments and jumps.
"""

import numpy as np

import rteuler as rt
from rteuler.rng import make_block_draw

from oracles import linear_jump_model, linear_jump_solution

LEVELS = (32, 64, 128, 256, 512, 1024)
B, C, MARK_MEAN = 0.05, 0.3, 0.5  # intensity 1, x0 = 1
# (least slope, most L2 error at n = 1024). Measured at 400 paths over seeds
# 1..12: randomized_tamed slope 0.539..0.632 and error 0.0152..0.0196,
# randomized_untamed 0.652..0.723 and 0.0119..0.0146. With the compensator's
# sign flipped the slopes read -0.05..0.01 and the errors 0.35..0.37.
MARGINS = {"randomized_tamed": (0.45, 0.025), "randomized_untamed": (0.55, 0.02)}


def test_randomized_arms_converge_to_the_closed_form_solution():
    jump_model = rt.JumpModel(1.0, lambda gen, size: gen.normal(MARK_MEAN, 1.0, size=(size, 1)))
    model = linear_jump_model(B, C, MARK_MEAN)
    draws = make_block_draw(7, range(400), fine_n=LEVELS[-1], m=1, horizon=1.0,
                            jump_model=jump_model, x0=1.0, coarse=LEVELS + (1,))
    exact = linear_jump_solution(draws, 1.0, B, C, 1.0, MARK_MEAN)
    assert len(draws.jump_marks) > 300  # about one jump a path
    for variant, (least_slope, most_error) in MARGINS.items():
        errors = []
        for n in LEVELS:
            res = rt.simulate_paths(model, rt.SchemeConfig(variant, n), draws, 1.0,
                                    keep=slice(-1, None))
            assert not res.diverged.any()
            errors.append(float(np.sqrt(np.mean((res.states[:, 0, 0] - exact) ** 2))))
        slope = rt.fit_rate([(1.0 / n, e) for n, e in zip(LEVELS, errors)]).slope
        assert slope >= least_slope and errors[-1] <= most_error, (variant, slope, errors)
