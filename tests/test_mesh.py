import dataclasses
import itertools
import types

import numpy as np
import pytest

from odds_nls.chebyshev import (diff_matrix, diff_matrix_higher,
                                reference_nodes)
from odds_nls.mesh import (OverlapMesh1D, assemble_global, build_mesh,
                           element_width)


def closed_form_width(x_left, x_right, M, J):
    span = x_right - x_left
    return span / (M + (1 - M) * (1 - np.cos(np.pi / J)) / 2.0)


class TestElementWidth:
    def test_matches_closed_form_over_parameter_sweep(self):
        for M in range(1, 21):
            for J in range(2, 41):
                got = element_width(-3.0, 7.0, M, J)
                want = closed_form_width(-3.0, 7.0, M, J)
                assert abs(got - want) < 1e-13

    def test_degree_two_special_case(self):
        # at J=2 the overlap is half an element, so dx = 2 span / (M + 1)
        for M in (1, 2, 5, 13):
            got = element_width(0.0, 1.0, M, 2)
            assert abs(got - 2.0 / (M + 1)) < 1e-13

    def test_single_element_fills_domain(self):
        assert element_width(-1.0, 1.0, 1, 8) == pytest.approx(2.0)


class TestBuildMesh:
    def test_global_node_count(self):
        # M elements sharing one interior node per seam: M*(J-1) + 2 nodes
        for M, J in [(1, 4), (3, 2), (5, 8), (10, 30), (7, 3)]:
            mesh = build_mesh(-1.0, 1.0, M, J)
            assert mesh.n_nodes == M * (J - 1) + 2
            assert mesh.nodes.shape == (mesh.n_nodes,)
            assert mesh.n_interior == mesh.n_nodes - 2

    def test_endpoints_exact_and_nodes_increasing(self):
        mesh = build_mesh(-20.0, 100.0, 10, 30)
        assert mesh.nodes[0] == -20.0
        assert mesh.nodes[-1] == 100.0
        assert np.all(np.diff(mesh.nodes) > 0)

    def test_elements_overlap_by_sharing_nodes(self):
        mesh = build_mesh(0.0, 1.0, 4, 6)
        for m in range(3):
            left = mesh.element_nodes(m)
            right = mesh.element_nodes(m + 1)
            # last two nodes of each element are the first two of the next
            np.testing.assert_array_equal(left[-2:], right[:2])

    def test_shared_nodes_are_bitwise_identical(self):
        # overlap nodes are stored once; both elements must read back the
        # same float, not merely a close one
        mesh = build_mesh(-5.0, 5.0, 6, 9)
        for m in range(5):
            a = mesh.element_nodes(m)[-2:]
            b = mesh.element_nodes(m + 1)[:2]
            assert a[0] == b[0] and a[1] == b[1]

    def test_element_slice_width(self):
        mesh = build_mesh(0.0, 3.0, 5, 7)
        for m in range(5):
            sl = mesh.element_slice(m)
            assert sl.stop - sl.start == 8
            assert sl.start == m * 6

    def test_interior_nodes_match_scaled_reference(self):
        mesh = build_mesh(-2.0, 2.0, 3, 10)
        ref = reference_nodes(10)
        for m in range(3):
            a, b = mesh.element_bounds[m]
            phys = 0.5 * (a + b) + 0.5 * (b - a) * ref
            np.testing.assert_allclose(mesh.element_nodes(m), phys, atol=1e-12)

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            build_mesh(1.0, 1.0, 2, 4)
        with pytest.raises(ValueError):
            build_mesh(0.0, 1.0, 0, 4)
        with pytest.raises(ValueError):
            build_mesh(0.0, 1.0, 2, 1)


class TestAssembly:
    def test_assembled_derivative_is_exact_on_low_degree_polys(self):
        mesh = build_mesh(-1.5, 2.5, 4, 8)
        x = mesh.nodes
        D1 = assemble_global(mesh, 1)
        D2 = assemble_global(mesh, 2)
        np.testing.assert_allclose(D1 @ x**3, 3 * x**2, atol=1e-8)
        np.testing.assert_allclose(D2 @ x**4, 12 * x**2, atol=1e-7)

    def test_row_ownership_single_valued(self):
        # every global row is written by exactly one element, so the sparse
        # matrix has no duplicate-accumulation artifacts: the first element
        # owns local rows 0..J-1, interior ones 1..J-1, the last 1..J (a
        # single element all of 0..J); each row equals its owner's scaled
        # reference row, and no zero is stored
        for M, J, order in itertools.product([1, 2, 3], [2, 5], [1, 2]):
            mesh = build_mesh(-0.5, 2.0, M, J)
            D_ref = (diff_matrix(J) if order == 1
                     else diff_matrix_higher(J, order))
            A = assemble_global(mesh, order)
            want = np.zeros((mesh.n_nodes, mesh.n_nodes))
            written = np.zeros(mesh.n_nodes, dtype=int)
            for m in range(M):
                a, b = mesh.element_bounds[m]
                local = D_ref * (2.0 / (b - a)) ** order
                sl = mesh.element_slice(m)
                first = 0 if m == 0 else 1
                last = J if m == M - 1 else J - 1
                for r in range(first, last + 1):
                    want[sl.start + r, sl] = local[r]
                    written[sl.start + r] += 1
            np.testing.assert_array_equal(written, 1)
            np.testing.assert_array_equal(A.toarray(), want)
            assert np.all(A.data != 0.0), (M, J, order)
            assert A.nnz == np.count_nonzero(want), (M, J, order)


def test_mesh_is_frozen_dataclass():
    mesh = build_mesh(0.0, 1.0, 2, 3)
    assert isinstance(mesh, OverlapMesh1D)
    with pytest.raises(AttributeError):
        mesh.dx = 0.5


class TestSharedOperators:
    def test_each_order_is_assembled_once_per_mesh_object(self):
        mesh = build_mesh(-1.5, 2.5, 4, 8)
        for order in (1, 2):
            D = mesh.operator(order)
            assert mesh.operator(order) is D
            want = assemble_global(mesh, order)
            assert D.data.tobytes() == want.data.tobytes()
            np.testing.assert_array_equal(D.indices, want.indices)
            np.testing.assert_array_equal(D.indptr, want.indptr)
        assert mesh.operator(1) is not mesh.operator(2)
        # a copy of the mesh starts with an empty store
        assert dataclasses.replace(mesh).operator(2) is not mesh.operator(2)

    def test_shared_arrays_are_read_only(self):
        mesh = build_mesh(0.0, 1.0, 2, 5)
        D = mesh.operator(2)
        assert not any(a.flags.writeable
                       for a in (D.data, D.indices, D.indptr))
        with pytest.raises(ValueError, match="read-only"):
            D.data[0] = 1.0
        pair = mesh.shared("pair", lambda m: (np.ones(3, bool), D))
        assert mesh.shared("pair", None) is pair
        assert not pair[0].flags.writeable

    def test_other_values_are_kept_as_built(self):
        # such as a CN system, whose factor is built on its first solve
        mesh = build_mesh(0.0, 1.0, 2, 5)
        value = types.SimpleNamespace(data=np.ones(3))
        assert mesh.shared("system", lambda m: value) is value
        assert mesh.shared("system", None) is value
        assert value.data.flags.writeable
