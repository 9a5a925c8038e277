"""Overlapping Chebyshev element meshes and global differentiation operators.

A 1D mesh covers [x_left, x_right] with M equal-width elements whose
Lobatto grids overlap: the last two nodes of element m are the first two
nodes of element m+1. Each global node is computed exactly once, so shared
nodes are bitwise identical between neighbouring elements.

What depends on the mesh alone, such as the assembled differentiation
matrices, or on the mesh and a step size, the CN system, is built once per
mesh object by OverlapMesh1D.shared and then shared by every caller.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .chebyshev import diff_matrix, diff_matrix_higher, reference_nodes


def element_width(x_left: float, x_right: float, M: int, J: int) -> float:
    """Closed-form element width for the two-node overlap constraint."""
    span = x_right - x_left
    return span / (M + (1 - M) * (1 - np.cos(np.pi / J)) / 2.0)


@dataclass(frozen=True)
class OverlapMesh1D:
    x_left: float
    x_right: float
    n_elements: int
    degree: int
    dx: float
    nodes: np.ndarray          # global grid, all shared nodes stored once
    element_bounds: np.ndarray  # (M, 2) physical end points per element
    # key -> operator built from this mesh object, see shared()
    _shared: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @property
    def n_interior(self) -> int:
        return self.nodes.size - 2

    def element_slice(self, m: int) -> slice:
        """Global index range of element m's J+1 nodes."""
        if not 0 <= m < self.n_elements:
            raise ValueError(f"element {m} outside 0..{self.n_elements - 1}")
        start = m * (self.degree - 1)
        return slice(start, start + self.degree + 1)

    def element_nodes(self, m: int) -> np.ndarray:
        return self.nodes[self.element_slice(m)]

    def shared(self, key, build):
        """build(self), built on the first call with key and kept.

        Every later call with key returns the same object, so it must not
        be written: an array, a sparse matrix or a tuple of them has its
        arrays made read-only, and any other value (a CNSystem) is kept as
        built. The store lives and dies with this mesh object; a copy
        (dataclasses.replace) starts empty.
        """
        if key not in self._shared:
            value = build(self)
            for item in value if isinstance(value, tuple) else (value,):
                arrays = ((item.data, item.indices, item.indptr)
                          if sp.issparse(item) else (item,))
                for array in arrays:
                    if isinstance(array, np.ndarray):
                        array.setflags(write=False)
            self._shared[key] = value
        return self._shared[key]

    def operator(self, order: int = 2) -> sp.csr_matrix:
        """assemble_global(self, order), assembled once per mesh object."""
        return self.shared(("D", order),
                           lambda mesh: assemble_global(mesh, order))


def build_mesh(x_left: float, x_right: float, M: int, J: int) -> OverlapMesh1D:
    """Construct the overlapping mesh with M elements of degree J.

    The global grid has M*(J-1) + 2 strictly increasing nodes: each of the
    M-1 element interfaces shares two nodes, counted once.
    """
    if x_right <= x_left:
        raise ValueError(f"empty domain [{x_left}, {x_right}]")
    if M < 1:
        raise ValueError(f"need at least one element, got M={M}")
    if J < 2:
        raise ValueError(f"need element degree >= 2, got J={J}")

    ref = reference_nodes(J)
    dx = element_width(x_left, x_right, M, J)
    # distance between consecutive element left edges; equals the position of
    # local node J-1 relative to the element start
    shift = dx * (1.0 + np.cos(np.pi / J)) / 2.0
    lefts = x_left + shift * np.arange(M)

    n_global = M * (J - 1) + 2
    g = np.arange(n_global)
    owner = np.minimum(g // (J - 1), M - 1)
    local = g - owner * (J - 1)
    nodes = lefts[owner] + dx * (ref[local] + 1.0) / 2.0
    nodes[0] = x_left
    nodes[-1] = x_right  # exact in real arithmetic, snap away the round-off
    if np.any(np.diff(nodes) <= 0):
        raise ValueError(f"degenerate mesh for M={M}, J={J}")

    starts = (np.arange(M) * (J - 1))
    bounds = np.column_stack([nodes[starts], nodes[starts + J]])
    return OverlapMesh1D(x_left, x_right, M, J, float(dx), nodes, bounds)


def assemble_global(mesh: OverlapMesh1D, order: int = 2) -> sp.csr_matrix:
    """Assemble the global differentiation matrix of the given order.

    Every global node's derivative row comes from exactly one element:
    the first element supplies local rows 0..J-1, interior elements rows
    1..J-1, the last element rows 1..J. Elementwise blocks are the reference
    matrix scaled by (2/width)^order. Exact zeros of the blocks are not
    stored.
    """
    J, M = mesh.degree, mesh.n_elements
    D_ref = diff_matrix(J) if order == 1 else diff_matrix_higher(J, order)
    n = mesh.n_nodes
    g = np.arange(n)
    # element m's rows 1..J-1 are global rows m(J-1)+1 .. (m+1)(J-1); the
    # clip hands row 0 to the first element and row n-1 to the last
    owner = np.clip((g - 1) // (J - 1), 0, M - 1)
    start = owner * (J - 1)
    scale = np.array([(2.0 / (hi - lo)) ** order
                      for lo, hi in mesh.element_bounds])
    data = D_ref[g - start] * scale[owner, None]
    indices = start[:, None] + np.arange(J + 1)
    out = sp.csr_matrix((data.ravel(), indices.ravel(),
                         np.arange(n + 1) * (J + 1)), shape=(n, n))
    out.eliminate_zeros()
    return out

