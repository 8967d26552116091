import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from rteuler import TimeGrid


def test_kappa_examples():
    g = TimeGrid(4, 1.0)
    assert g.kappa(0.3) == 0.25
    assert g.kappa(0.25) == 0.25  # left endpoint maps to itself
    assert TimeGrid(10, 1.0).kappa(0.999) == 0.9


def test_kappa_boundaries():
    g = TimeGrid(4, 1.0)
    assert g.kappa(0.0) == 0.0
    assert g.kappa(1.0) == 0.75  # horizon falls into the last cell
    with pytest.raises(ValueError):
        g.kappa(-0.01)
    with pytest.raises(ValueError):
        g.kappa(1.01)


@pytest.mark.parametrize("n", [4, 5, 6, 12])
def test_xis_equals_xi_cell_by_cell(n):
    g = TimeGrid(n, 1.0)
    phi = np.random.default_rng(n).uniform(0.0, 1.0, size=(n, 3))
    phi[:, 0] = 1.0  # rounds past t_k in some cells at n = 5, 6, 12 (3 * 0.2 > 0.6)
    for lo in (0, 1):
        want = [[g.xi(lo + k + 1, p) for p in row] for k, row in enumerate(phi[: n - lo])]
        assert np.array_equal(g.xis(phi[: n - lo], lo), want)
    out = phi.copy()
    assert g.xis(out, out=out) is out and np.array_equal(out, g.xis(phi))


def test_xi_examples():
    assert TimeGrid(4, 1.0).xi(1, 1.0) == 0.25
    assert TimeGrid(4, 1.0).xi(2, 0.5) == 0.375
    assert TimeGrid(2, 1.0).xi(2, 0.2) == 0.6


def test_xi_rejects_bad_phi_and_k():
    g = TimeGrid(4, 1.0)
    for phi in (0.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            g.xi(1, phi)
    for k in (0, 5):
        with pytest.raises(ValueError):
            g.xi(k, 0.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0, 1.0)
    with pytest.raises(ValueError):
        TimeGrid(4, 0.0)


@given(
    n=st.integers(1, 1000),
    frac=st.floats(0.0, 1.0, exclude_max=True),
    horizon=st.sampled_from([1.0, 0.5, 2.0, 3.7]),
)
@example(n=18, frac=0.5, horizon=3.7)  # (9 * 3.7) / 18 rounds up past t = 1.85
def test_kappa_range_invariant(n, frac, horizon):
    g = TimeGrid(n, horizon)
    t = frac * horizon
    k = g.kappa(t)
    assert k <= t < k + g.dt + 1e-15 * horizon


@given(
    n=st.integers(1, 1000),
    k=st.integers(1, 1000),
    phi=st.floats(1e-9, 1.0),
)
def test_xi_range_invariant(n, k, phi):
    k = min(k, n)
    g = TimeGrid(n, 1.0)
    x = g.xi(k, phi)
    assert g.point(k - 1) < x <= g.point(k)


@given(n=st.integers(1, 4096))
def test_grid_nesting_exact(n):
    coarse = TimeGrid(n, 1.0).points()
    fine = TimeGrid(2 * n, 1.0).points()
    assert np.array_equal(coarse, fine[::2])


def test_cell_of_convention():
    g = TimeGrid(4, 1.0)
    times = np.array([1e-12, 0.25, 0.2500001, 0.75, 1.0])
    assert list(g.cell_of(times)) == [1, 1, 2, 3, 4]
    with pytest.raises(ValueError):
        g.cell_of(np.array([0.0]))  # jumps live on (0, T]
    with pytest.raises(ValueError):
        g.cell_of(np.array([1.5]))


def test_cell_of_equals_searchsorted_over_the_right_edges():
    # a guard of the cells' bits: the first k whose edge (k * T) / n is at
    # least t, as searchsorted over the n edges finds it, n + 1 where the last
    # edge rounds below T; times on edges, one ulp either side, random and subnormal
    gen = np.random.default_rng(2)
    for trial in range(400):
        n = int(gen.integers(1, 64) if trial % 3 == 0 else gen.integers(1, 1 << 20))
        horizon = float(10.0 ** gen.uniform(-3, 6))
        edges = np.arange(1, n + 1) * horizon / n
        on = gen.integers(1, n + 1, 40) * horizon / n
        times = np.concatenate([gen.uniform(0.0, horizon, 40), on, np.nextafter(on, 0.0),
                                np.nextafter(on, np.inf), [horizon, np.nextafter(horizon, 0.0),
                                                           5e-324, 1e-320, 2.2e-308]])
        times = times[(times > 0.0) & (times <= horizon)]
        got = TimeGrid(n, horizon).cell_of(times)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.searchsorted(edges, times, side="left") + 1)
    n, horizon = 1942, 0.007  # (n * T) / n rounds below T
    assert n * horizon / n < horizon
    assert TimeGrid(n, horizon).cell_of(np.array([horizon]))[0] == n + 1
