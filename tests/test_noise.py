import numpy as np
import pytest

from odds_nls.baselines import uniform_grid_1d
from odds_nls.mesh import build_mesh
from odds_nls.noise import (CHUNK_NORMALS, NoiseModel1D, NoiseModel2D,
                            ReplayNoise, coarsen, draw_path, sine_table)


@pytest.fixture
def grid():
    return np.linspace(-1.0, 1.0, 41)


def test_single_mode_has_exact_sine_shape(grid):
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=1, seed=0)
    inc = model.trajectory(0).grid_increments(0, 0.1)
    xi = np.sqrt(0.1) * model.trajectory(0).draw_chunk(0)[0]
    want = xi[0] * np.sin(np.pi * (grid + 1.0) / 2.0)
    np.testing.assert_allclose(inc, want, atol=1e-14)


def test_increment_vanishes_on_boundary(grid):
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=50, seed=4)
    inc = model.trajectory(2).grid_increments(7, 0.1)
    assert inc[0] == 0.0
    assert inc[-1] == 0.0


def test_mode_variance_matches_dt(grid):
    # a step's mode increments are sqrt(dt) times its row of its chunk
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=3, seed=11)
    dt = 0.05
    draws = np.sqrt(dt) * np.array([model.trajectory(p).draw_chunk(0)[0]
                                    for p in range(4000)])
    np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.01)
    np.testing.assert_allclose(draws.var(axis=0), dt, rtol=0.1)
    # modes are mutually independent
    c = np.corrcoef(draws.T)
    assert np.max(np.abs(c - np.eye(3))) < 0.05


def test_grid_variance_follows_kl_expansion(grid):
    # Var[dW(x)] = dt * sum_k eta_k e_k(x)^2, eta_k = 1/k^3, e_k orthonormal
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=100, seed=5)
    dt = 0.02
    draws = np.array([model.trajectory(p).grid_increments(0, dt)
                      for p in range(6000)])
    k = np.arange(1, 101)
    e2 = np.sin(np.outer(k, (grid + 1.0) * np.pi / 2.0)) ** 2
    want = dt * (k.astype(float) ** -3) @ e2  # includes 2/L with L=2
    got = draws.var(axis=0)
    np.testing.assert_allclose(got[1:-1], want[1:-1], rtol=0.15)


def test_same_key_reproduces_bitwise(grid):
    # identical (seed, trajectory, step, dt) must give identical floats even
    # from a fresh stream object
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=20, seed=9)
    a = model.trajectory(3).grid_increments(17, 0.125)
    b = model.trajectory(3).grid_increments(17, 0.125)
    np.testing.assert_array_equal(a, b)


def test_draw_order_does_not_matter(grid):
    # counter-based keying: regenerating chunk 5 after chunk 9 must equal
    # generating it first, and so must the steps in them
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=20, seed=9)
    t = model.trajectory(0)
    R = t.steps_per_chunk
    steps = (9 * R, 5 * R + 1)
    drawn = [(t.draw_chunk(k // R), t.grid_increments(k, 0.1)) for k in steps]
    for k, (normals, inc) in zip(steps, drawn):
        fresh = model.trajectory(0)
        np.testing.assert_array_equal(normals, fresh.draw_chunk(k // R))
        np.testing.assert_array_equal(inc, fresh.grid_increments(k, 0.1))


@pytest.mark.parametrize("modes, rows", [(500, 16), (2048, 4), (8192, 1),
                                         (9000, 1), (1, CHUNK_NORMALS)])
def test_chunk_holds_about_8k_normals(grid, modes, rows):
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=modes, seed=0)
    assert model.trajectory(0).steps_per_chunk == rows


def test_2d_chunk_rows_follow_the_mode_count():
    g = np.linspace(0.0, 1.0, 5)
    model = NoiseModel2D.build(0.0, 1.0, 0.0, 1.0, g, g, seed=0)
    assert model.trajectory(0).steps_per_chunk == 2


def test_steps_across_chunks_drawn_in_reverse_match_fresh_streams(grid):
    # 2048 modes make chunks of R = 4 steps; R - 1, R and 2R + 3 sit in
    # three chunks, each one loaded again on the way back
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=2048, seed=6)
    R = model.trajectory(0).steps_per_chunk
    assert R == 4
    steps = [R - 1, R, 2 * R + 3]
    stream = model.trajectory(2)
    back = {k: (stream.draw_chunk(k // R)[k % R],
                stream.grid_increments(k, 0.01))
            for k in reversed(steps)}
    for k in steps:
        np.testing.assert_array_equal(
            back[k][0], model.trajectory(2).draw_chunk(k // R)[k % R])
        np.testing.assert_array_equal(
            back[k][1], model.trajectory(2).grid_increments(k, 0.01))


def test_reused_stream_gives_the_bytes_of_a_fresh_one(grid):
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=1000, seed=2)
    stream = model.trajectory(1)
    order = [0, 7, 8, 3, 17, 8, 0, 16, 3]
    reused = [stream.grid_increments(k, 0.02).tobytes() for k in order]
    fresh = [model.trajectory(1).grid_increments(k, 0.02).tobytes()
             for k in order]
    assert reused == fresh


@pytest.mark.parametrize("n_steps", [1, 7, 9, 21])
def test_path_rows_equal_increments_off_chunk_boundaries(grid, n_steps):
    # chunks of 8 steps; the path's last chunk is cut short
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=1000, seed=8)
    assert n_steps % model.trajectory(0).steps_per_chunk
    path = draw_path(model, [0, 5], n_steps, 0.003)
    for j, p in enumerate([0, 5]):
        stream = model.trajectory(p)
        for k in range(n_steps):
            np.testing.assert_array_equal(
                path[k, :, j], stream.grid_increments(k, 0.003))


def test_chunk_projection_matches_the_explicit_mode_sum(grid):
    # one matrix product per chunk sums the modes in another order than a
    # product per step; the two agree to rounding
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=1000, seed=3)
    stream = model.trajectory(0)
    normals = stream.draw_chunk(2)
    k = np.arange(1, 1001)
    e = np.sin(np.outer(k, (grid + 1.0) * np.pi / 2.0))    # sqrt(2/L) = 1
    want = (normals * k ** -1.5) @ e
    got = stream.chunk_values(2)
    np.testing.assert_allclose(got[:, 1:-1], want[:, 1:-1], rtol=1e-12,
                               atol=1e-13)
    np.testing.assert_array_equal(got[:, [0, -1]], 0.0)


def test_rejects_a_negative_step(grid):
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=2, seed=0)
    with pytest.raises(ValueError, match="negative step -1"):
        model.trajectory(0).grid_increments(-1, 0.1)


def test_trajectories_differ(grid):
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=20, seed=9)
    a = model.trajectory(0).draw_chunk(0)[0]
    b = model.trajectory(1).draw_chunk(0)[0]
    assert np.max(np.abs(a - b)) > 1e-3
    a = model.trajectory(0).grid_increments(0, 0.1)
    b = model.trajectory(1).grid_increments(0, 0.1)
    assert np.max(np.abs(a - b)) > 1e-3


def test_path_holds_each_trajectory_increment(grid):
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=12, seed=4)
    path = draw_path(model, range(3, 6), 7, 0.01)
    assert path.shape == (7, grid.size, 3)
    for j, p in enumerate(range(3, 6)):
        for k in range(7):
            np.testing.assert_array_equal(
                path[k, :, j],
                model.trajectory(p).grid_increments(k, 0.01))


def test_coarse_path_sums_the_fine_increments(grid):
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=30, seed=7)
    tau_fine = 0.01
    ratio = 4
    coarse = coarsen(draw_path(model, [5], 3 * ratio, tau_fine), ratio)
    fine = model.trajectory(5)
    manual = sum(fine.grid_increments(2 * ratio + r, tau_fine)
                 for r in range(ratio))
    np.testing.assert_allclose(coarse[2, :, 0], manual, atol=1e-15)


@pytest.mark.parametrize("shape", [(48, 41, 3), (48, 1, 1), (36, 3, 16)])
@pytest.mark.parametrize("ratio", [1, 2, 12])
def test_coarsen_is_the_sequential_sum(shape, ratio):
    path = np.random.default_rng(1).standard_normal(shape)
    want = np.empty((shape[0] // ratio,) + shape[1:])
    for n in range(len(want)):
        total = path[n * ratio]
        for r in range(1, ratio):
            total = total + path[n * ratio + r]
        want[n] = total
    np.testing.assert_array_equal(coarsen(path, ratio), want)


@pytest.mark.parametrize("ratio", [0, -2, 3, 16])
def test_coarsen_rejects_a_ratio_that_does_not_divide_the_steps(ratio):
    with pytest.raises(ValueError):
        coarsen(np.zeros((8, 5, 2)), ratio)


def test_replay_returns_the_rows_of_its_path():
    path = np.arange(24.0).reshape(4, 3, 2)
    np.testing.assert_array_equal(ReplayNoise(path).grid_increments(2, 0.25),
                                  path[2])
    with pytest.raises(ValueError):
        ReplayNoise(path).grid_increments(2, 0.0)


def test_rejects_nonpositive_interval(grid):
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=2, seed=0)
    for dt in (0.0, -0.1):
        with pytest.raises(ValueError):
            model.trajectory(0).grid_increments(0, dt)
        with pytest.raises(ValueError):
            draw_path(model, [0], 3, dt)


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf])
def test_rejects_non_finite_interval(grid, dt):
    model = NoiseModel1D.build(-1.0, 1.0, grid, modes=2, seed=0)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        model.trajectory(0).grid_increments(0, dt)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        draw_path(model, [0], 3, dt)
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        ReplayNoise(np.zeros((3, grid.size))).grid_increments(0, dt)


def test_replay_rejects_a_negative_step():
    # a negative index would otherwise read the path's rows from the end
    path = np.arange(24.0).reshape(4, 3, 2)
    with pytest.raises(ValueError, match="negative step -1"):
        ReplayNoise(path).grid_increments(-1, 0.25)


def test_build_rejects_bad_domain_and_modes(grid):
    with pytest.raises(ValueError):
        NoiseModel1D.build(1.0, -1.0, grid)
    with pytest.raises(ValueError):
        NoiseModel1D.build(-1.0, 1.0, grid, modes=0)


@pytest.mark.parametrize("bad, node, what", [
    (np.nan, 2, "not finite"), (np.inf, 2, "not finite"),
    (-1.5, 2, "outside"), (1.0 + 1e-12, 2, "outside")])
def test_build_names_the_first_bad_grid_node(grid, bad, node, what):
    g = grid.copy()
    g[node] = bad
    g[node + 3] = np.nan
    with pytest.raises(ValueError, match=f"grid node {node} .*{what}"):
        NoiseModel1D.build(-1.0, 1.0, g)
    with pytest.raises(ValueError, match=f"grid_y node {node} .*{what}"):
        NoiseModel2D.build(-1.0, 1.0, -1.0, 1.0, grid, g)
    with pytest.raises(ValueError, match=f"grid_x node {node} .*{what}"):
        NoiseModel2D.build(-1.0, 1.0, -1.0, 1.0, g, grid)


def test_build_rejects_nodes_outside_the_domain():
    with pytest.raises(ValueError, match=r"grid node 0 = -2.0 lies outside"):
        NoiseModel1D.build(0.0, 1.0, [-2.0, 0.0, 0.5, 3.0])


def test_nodes_on_the_boundary_are_valid_and_give_zero_columns():
    g = np.array([0.0, 0.25, 0.5, 1.0])
    model = NoiseModel1D.build(0.0, 1.0, g, modes=7)
    np.testing.assert_array_equal(model.basis[:, [0, -1]], 0.0)
    assert np.all(model.basis[0, 1:-1] > 0.0)
    model = NoiseModel2D.build(0.0, 1.0, 0.0, 1.0, g, g, modes_x=3,
                               modes_y=3)
    np.testing.assert_array_equal(model.bx[:, [0, -1]], 0.0)
    np.testing.assert_array_equal(model.by[:, [0, -1]], 0.0)


def _theta(left, right, nodes):
    return (nodes - left) * np.pi / (right - left)


# (modes, left, right, nodes): the soliton, efficiency and convergence
# meshes at 500 modes, the efficiency schemes' 601-point grid, and the
# gaussian2d mesh of both axes at 64 modes
SINE_GRIDS = {
    "soliton": (500, -20.0, 100.0, build_mesh(-20.0, 100.0, 10, 30).nodes),
    "efficiency": (500, -20.0, 100.0, build_mesh(-20.0, 100.0, 20, 30).nodes),
    "convergence": (500, -1.0, 1.0, build_mesh(-1.0, 1.0, 2, 16).nodes),
    "uniform601": (500, -20.0, 100.0,
                   uniform_grid_1d(-20.0, 100.0, 601).nodes),
    "gaussian2d": (64, -10.0, 10.0, build_mesh(-10.0, 10.0, 4, 32).nodes),
}


class TestSineTable:
    """sine_table against sin(k theta) at the float theta, evaluated in
    80-bit long double, where k theta is exact for k <= 2^11."""

    @staticmethod
    def errors(modes, theta):
        if np.finfo(np.longdouble).nmant < 63:
            pytest.skip("long double is not the 80-bit x87 format here")
        k = np.arange(1, modes + 1)
        exact = np.sin(np.outer(k.astype(np.longdouble),
                                theta.astype(np.longdouble)))
        table = sine_table(modes, theta)
        direct = np.sin(np.outer(k, theta))
        return (float(np.max(np.abs(table - exact))),
                float(np.max(np.abs(direct - exact))))

    @pytest.mark.parametrize("name", SINE_GRIDS)
    def test_no_less_accurate_than_direct_sines(self, name):
        modes, left, right, nodes = SINE_GRIDS[name]
        table_err, direct_err = self.errors(modes, _theta(left, right, nodes))
        assert table_err <= direct_err
        assert table_err < 1e-15

    # one mode; perfect squares and their neighbours, where the last block
    # of rows is full, holds one row or falls short by one; more modes
    # (2048) than nodes (32)
    @pytest.mark.parametrize("modes", [1, 2, 3, 15, 16, 17, 63, 64, 65, 2048])
    def test_edge_mode_counts(self, modes):
        _, left, right, nodes = SINE_GRIDS["convergence"]
        theta = _theta(left, right, nodes)
        table = sine_table(modes, theta)
        assert table.shape == (modes, nodes.size)
        assert table.dtype == np.float64 and table.flags.c_contiguous
        np.testing.assert_array_equal(table[:, 0], 0.0)   # theta = 0
        table_err, direct_err = self.errors(modes, theta)
        assert table_err <= direct_err
        model = NoiseModel1D.build(left, right, nodes, modes=modes)
        np.testing.assert_array_equal(model.basis[:, [0, -1]], 0.0)

    def test_builds_scale_the_table(self):
        modes, left, right, nodes = SINE_GRIDS["soliton"]
        theta = _theta(left, right, nodes)
        L = right - left
        scale = np.arange(1, modes + 1) ** -1.5 * np.sqrt(2.0 / L)
        model = NoiseModel1D.build(left, right, nodes, modes=modes)
        np.testing.assert_array_equal(
            model.basis[:, 1:-1], (scale[:, None] * sine_table(modes, theta))
            [:, 1:-1])
        modes, left, right, nodes = SINE_GRIDS["gaussian2d"]
        model = NoiseModel2D.build(left, right, 0.0, 1.0, nodes,
                                   np.linspace(0.0, 1.0, 9))
        np.testing.assert_array_equal(
            model.bx[:, 1:-1], sine_table(modes, _theta(left, right, nodes))
            [:, 1:-1])


class TestNoise2D:
    def setup_method(self):
        self.gx = np.linspace(0.0, 2.0, 13)
        self.gy = np.linspace(-1.0, 1.0, 9)
        self.model = NoiseModel2D.build(0.0, 2.0, -1.0, 1.0,
                                        self.gx, self.gy,
                                        modes_x=6, modes_y=5, seed=3)

    def test_shape_and_boundary(self):
        inc = self.model.trajectory(0).grid_increments(0, 0.1)
        assert inc.shape == (13, 9)
        np.testing.assert_array_equal(inc[0], 0.0)
        np.testing.assert_array_equal(inc[-1], 0.0)
        np.testing.assert_array_equal(inc[:, 0], 0.0)
        np.testing.assert_array_equal(inc[:, -1], 0.0)

    def test_tensor_construction_matches_explicit_double_sum(self):
        traj = self.model.trajectory(1)
        chunk, row = divmod(4, traj.steps_per_chunk)
        xi = np.sqrt(0.05) * traj.draw_chunk(chunk)[row]
        got = traj.grid_increments(4, 0.05)
        Lx, Ly = 2.0, 2.0
        want = np.zeros((13, 9))
        for k1 in range(1, 7):
            for k2 in range(1, 6):
                ex = np.sin(k1 * np.pi * self.gx / Lx)
                ey = np.sin(k2 * np.pi * (self.gy + 1.0) / Ly)
                lam = 2.0 / ((k1**2 + k2**2) * np.sqrt(Lx * Ly))
                want += lam * xi[k1 - 1, k2 - 1] * np.outer(ex, ey)
        # interior only: the model zeroes boundary columns explicitly
        np.testing.assert_allclose(got[1:-1, 1:-1], want[1:-1, 1:-1],
                                   atol=1e-13)

    def test_chunk_shape_and_boundary(self):
        stream = self.model.trajectory(0)
        chunk = stream.chunk_values(3)
        assert chunk.shape == (stream.steps_per_chunk, 13, 9)
        np.testing.assert_array_equal(chunk[:, [0, -1]], 0.0)
        np.testing.assert_array_equal(chunk[:, :, [0, -1]], 0.0)
        step = 3 * stream.steps_per_chunk + 1
        np.testing.assert_array_equal(
            stream.grid_increments(step, 0.25), 0.5 * chunk[1])

    def test_2d_determinism(self):
        a = self.model.trajectory(2).grid_increments(3, 0.1)
        b = self.model.trajectory(2).grid_increments(3, 0.1)
        np.testing.assert_array_equal(a, b)
