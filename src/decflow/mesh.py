"""Triangle meshes and their circumcentric dual geometry.

Simulation state lives on cells (one value per cell, or one matrix entry per
adjacent cell pair), while curls and vorticities live on the dual polygons
around primal nodes.  This module loads/generates 2D simplicial meshes and
precomputes every dual-geometry quantity the discrete operators need:

* cell areas ``omega`` and circumcenters,
* primal edge lengths ``|h_ij|`` and dual edge lengths ``|*h_ij]`` between
  circumcenters (circumcenter-to-edge-midpoint for boundary edges),
* the counterclockwise fan of cells around every node (cyclic for interior
  nodes, an open chain for boundary nodes),
* kite areas (intersection of a node's dual polygon with one cell), nodal
  dual areas ``|*e|``, and the quadrature constants ``W_ijk`` / ``K_ijk``
  built from them,
* the shared-edge endpoint labels ``e+_ij`` / ``e-_ij`` per adjacent pair.

Everything is computed by array operations over two flat tables: one row per
(cell, local edge), and one row per (node, position in its fan).  The fans
are walked in lockstep over the (cell, local vertex) incidences.  Pairwise
quantities are indexed only by the row-major directed adjacency list
``(adj_i, adj_j)``; no ``(N, N)`` array is formed.

Orientation conventions (used consistently by every operator):

* cells are stored counterclockwise (auto-corrected on load);
* the fan of cells around a node is ordered counterclockwise, so the sign
  ``s_ij = +1`` exactly when ``j`` is the ccw-successor of ``i`` in the fan;
* ``e+_ij`` is the endpoint of the shared edge at which the step ``i -> j``
  runs counterclockwise (equivalently: the endpoint lying to the left of the
  dual edge from circumcenter ``i`` to circumcenter ``j``);
* for a middle cell ``i`` at node ``e`` with fan neighbors ``j`` (ccw next)
  and ``k`` (ccw previous), the triplet ``(i, j, k)`` is positively oriented
  and ``K_ijk = +kappa(e, i)/|*e|``.

The nodal dual area ``|*e|`` is the sum of kites over the *chain-interior*
cells of the fan (cells having both fan neighbors), which is the full dual
polygon area at interior nodes.  This choice makes the curl-curl quadrature
identities exact on bounded meshes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_array

__all__ = [
    "Mesh",
    "MeshGeometry",
    "AdjacencyCSR",
    "MeshError",
    "load_mesh",
    "generate_rect_mesh",
    "jitter_mesh",
    "compute_geometry",
    "inspect_geometry",
    "sum_at",
]


class MeshError(ValueError):
    """Malformed input, broken topology, or geometry unusable by the operators."""


# ---------------------------------------------------------------------------
# Mesh topology
# ---------------------------------------------------------------------------


@dataclass
class Mesh:
    """A 2D simplicial cell complex.

    Attributes
    ----------
    nodes:
        ``(num_nodes, 2)`` float array of vertex positions.
    cells:
        ``(num_cells, 3)`` int array of node indices, counterclockwise.
    cell_adjacency:
        ``(num_cells, 3)``; entry ``[c, t]`` is the cell across the edge
        opposite local vertex ``t`` of cell ``c``, or ``-1`` on the boundary.
    boundary_cells:
        boolean flags; ``True`` for cells with at least one boundary edge
        (these are the cells adjacent to the environment).
    reoriented:
        indices of input cells that were flipped to counterclockwise.
    """

    nodes: np.ndarray
    cells: np.ndarray
    cell_adjacency: np.ndarray
    boundary_cells: np.ndarray
    reoriented: tuple

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def interior_cells(self) -> np.ndarray:
        """Cells with no boundary edge (the no-slip degrees of freedom)."""
        return ~self.boundary_cells


def sum_at(index: np.ndarray, weights, size: int) -> np.ndarray:
    """The sums of ``weights`` over equal ``index``, one per ``0 .. size-1``,
    as floats (``np.bincount`` gives int64 zeros when it sums nothing)."""
    return np.bincount(index, weights, minlength=size).astype(float, copy=False)


def _cross2(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]


def _signed_areas(nodes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    p0, p1, p2 = nodes[cells[:, 0]], nodes[cells[:, 1]], nodes[cells[:, 2]]
    return 0.5 * _cross2(p1 - p0, p2 - p0)


def _edge_ends(cells: np.ndarray) -> np.ndarray:
    """Endpoints of every local edge, one row per (cell, local edge) in
    ``(c, t)`` order: local edge ``t`` is the one opposite vertex ``t`` and
    runs from vertex ``t+1`` to vertex ``t+2``."""
    return cells[:, [1, 2, 2, 0, 0, 1]].reshape(-1, 2)


def _build_mesh(nodes: np.ndarray, cells: np.ndarray) -> Mesh:
    nodes = np.asarray(nodes, dtype=float)
    cells = np.asarray(cells, dtype=np.int64)
    if nodes.ndim != 2 or nodes.shape[1] != 2:
        raise MeshError("node array must have shape (num_nodes, 2)")
    if cells.ndim != 2 or cells.shape[1] != 3:
        raise MeshError("cell array must have shape (num_cells, 3)")
    if len(cells) == 0:
        raise MeshError("mesh has no cells")
    unbounded = np.flatnonzero(~np.isfinite(nodes).all(axis=1))
    if unbounded.size:
        raise MeshError(f"node {unbounded[0]} has a non-finite coordinate")
    # the kite weights square dual areas, fourth powers of lengths: past 1e77 they overflow
    huge = np.flatnonzero((np.abs(nodes) > 1e75).any(axis=1))
    if huge.size:
        raise MeshError(f"node {huge[0]} has a coordinate beyond 1e75 in magnitude")
    if cells.min() < 0 or cells.max() >= len(nodes):
        raise MeshError("cell references a node index out of range")
    repeats = np.flatnonzero((cells == np.roll(cells, 1, axis=1)).any(axis=1))
    if repeats.size:
        raise MeshError(f"cell {repeats[0]} repeats a node index")

    areas = _signed_areas(nodes, cells)
    flipped = np.flatnonzero(areas < 0.0)
    if flipped.size:
        cells = cells.copy()
        tmp = cells[flipped, 1].copy()
        cells[flipped, 1] = cells[flipped, 2]
        cells[flipped, 2] = tmp
        areas = _signed_areas(nodes, cells)
    scale = max(np.abs(nodes).max(), 1.0)
    if np.any(areas <= 1e-14 * scale * scale):
        bad = int(np.argmin(areas))
        raise MeshError(f"cell {bad} is degenerate (area {areas[bad]:.3e})")

    # Match the local edges by their sorted node pairs; the stable sort keeps
    # the users of each edge in (c, t) order.
    ends = _edge_ends(cells)
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    key = lo * len(nodes) + hi
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.r_[True, key[order][1:] != key[order][:-1]])
    users = np.diff(np.r_[first, len(key)])
    crowded = np.flatnonzero(users > 2)
    if crowded.size:  # report the edge that appears first
        g = crowded[np.argmin(order[first[crowded]])]
        row = order[first[g]]
        raise MeshError(f"edge ({lo[row]}, {hi[row]}) is shared by {users[g]} cells")
    r1, r2 = order[first[users == 2]], order[first[users == 2] + 1]
    own = np.arange(len(cells))
    row_cell = np.repeat(own, 3)
    adjacency = np.full(3 * len(cells), -1, dtype=np.int64)
    adjacency[r1], adjacency[r2] = row_cell[r2], row_cell[r1]
    adjacency = adjacency.reshape(-1, 3)
    # A cell whose three neighbors are one cell lists the same triangle.
    twin = np.where(adjacency.min(axis=1) == adjacency.max(axis=1), adjacency[:, 0], -1)
    twice = np.flatnonzero(twin >= 0)
    if twice.size:
        raise MeshError(f"cell {twin[twice[0]]} repeats cell {twice[0]}")

    boundary_cells = (adjacency < 0).any(axis=1)

    # Edge-connectedness: every cell takes the smallest label among itself
    # and its neighbors, then its label's label, until nothing changes.
    nbr = np.where(adjacency >= 0, adjacency, own[:, None])
    label = own
    while True:
        step = np.minimum(label, label[nbr].min(axis=1))
        step = step[step]
        if np.array_equal(step, label):
            break
        label = step
    if label.any():
        raise MeshError("mesh is not edge-connected")

    return Mesh(
        nodes=nodes,
        cells=cells,
        cell_adjacency=adjacency,
        boundary_cells=boundary_cells,
        reoriented=tuple(int(c) for c in flipped),
    )


def load_mesh(text: str) -> Mesh:
    """Parse a plain-text mesh.

    Format: line 1 is ``NP NC``; then NP lines ``x y``; then NC lines
    ``i j k`` (0-based node indices).  ``#`` starts a comment.  Cell
    orientation is corrected to counterclockwise if needed.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise MeshError("empty mesh file")

    head = rows[0][1].split()
    if len(head) != 2:
        raise MeshError(f"line {rows[0][0]}: expected 'NP NC' header")
    try:
        n_points, n_cells = int(head[0]), int(head[1])
    except ValueError as exc:
        raise MeshError(f"line {rows[0][0]}: non-integer header") from exc
    if n_points < 3:
        raise MeshError("mesh needs at least 3 nodes")
    if n_cells < 1:
        raise MeshError("empty cell list")
    if len(rows) != 1 + n_points + n_cells:
        raise MeshError(
            f"expected {1 + n_points + n_cells} content lines, got {len(rows)}"
        )

    nodes = np.empty((n_points, 2))
    for p in range(n_points):
        lineno, line = rows[1 + p]
        parts = line.split()
        if len(parts) != 2:
            raise MeshError(f"line {lineno}: expected 'x y'")
        try:
            nodes[p] = [float(parts[0]), float(parts[1])]
        except ValueError as exc:
            raise MeshError(f"line {lineno}: bad coordinate") from exc

    cells = np.empty((n_cells, 3), dtype=np.int64)
    for c in range(n_cells):
        lineno, line = rows[1 + n_points + c]
        parts = line.split()
        if len(parts) != 3:
            raise MeshError(f"line {lineno}: expected 'i j k'")
        try:
            cells[c] = [int(parts[0]), int(parts[1]), int(parts[2])]
        except ValueError as exc:
            raise MeshError(f"line {lineno}: bad node index") from exc

    return _build_mesh(nodes, cells)


def generate_rect_mesh(nx: int, ny: int, lx: float, ly: float) -> Mesh:
    """Structured offset-row triangulation of the rectangle [0,lx] x [0,ly].

    ``ny`` horizontal strips; node rows alternate between "straight" rows of
    nx+1 points and half-pitch "offset" rows of nx+2 points, and each strip
    is triangulated as a zigzag fan of 2*nx+1 triangles closed by two small
    right triangles (caps) at the left/right domain edges.  With
    ``ly/ny > lx/(2*nx)`` every zigzag triangle is acute, so circumcenters
    are strictly interior and all dual edges between adjacent cells have
    positive length; the caps' circumcenters sit on their (interior)
    hypotenuses, which still yields positive dual lengths and kites.

    Cell count is ``(2*nx + 1) * ny``.
    """
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be >= 1")
    if lx <= 0 or ly <= 0:
        raise MeshError("lx and ly must be > 0")
    dx = lx / nx

    coords: list = []
    rows: list = []
    for r in range(ny + 1):
        y = ly * r / ny
        if r % 2 == 0:
            xs = np.linspace(0.0, lx, nx + 1)
        else:
            xs = np.concatenate(([0.0], (np.arange(nx) + 0.5) * dx, [lx]))
        start = len(coords)
        coords.extend((x, y) for x in xs)
        rows.append(np.arange(start, start + len(xs)))

    cells = []
    for r in range(ny):
        b, t = rows[r], rows[r + 1]
        if r % 2 == 0:  # straight bottom row, offset top row
            cells.append((b[0], t[1], t[0]))
            for m in range(nx):
                cells.append((b[m], b[m + 1], t[m + 1]))
            for m in range(1, nx):
                cells.append((t[m + 1], t[m], b[m]))
            cells.append((b[nx], t[nx + 1], t[nx]))
        else:  # offset bottom row, straight top row
            cells.append((b[0], b[1], t[0]))
            for m in range(1, nx):
                cells.append((b[m], b[m + 1], t[m]))
            for m in range(nx):
                cells.append((b[m + 1], t[m + 1], t[m]))
            cells.append((b[nx + 1], t[nx], b[nx]))

    return _build_mesh(np.array(coords), np.array(cells, dtype=np.int64))


def jitter_mesh(mesh: Mesh, amount: float, rng: np.random.Generator) -> Mesh:
    """Perturb interior nodes by up to ``amount`` * (shortest incident edge).

    Boundary nodes stay put so the domain is unchanged.  The result keeps the
    original topology; callers should revalidate (large ``amount`` can create
    obtuse triangles with degenerate duals).
    """
    nodes = mesh.nodes.copy()
    ends = _edge_ends(mesh.cells)
    length = np.hypot(*(nodes[ends[:, 1]] - nodes[ends[:, 0]]).T)
    edge_min = np.full(mesh.num_nodes, np.inf)
    np.minimum.at(edge_min, ends[:, 0], length)
    np.minimum.at(edge_min, ends[:, 1], length)
    on_boundary = np.zeros(mesh.num_nodes, dtype=bool)
    on_boundary[ends[mesh.cell_adjacency.ravel() < 0]] = True
    interior = np.flatnonzero(~on_boundary)
    if interior.size:
        angles = rng.uniform(0.0, 2.0 * np.pi, interior.size)
        radii = amount * edge_min[interior] * np.sqrt(rng.uniform(0.0, 1.0, interior.size))
        nodes[interior, 0] += radii * np.cos(angles)
        nodes[interior, 1] += radii * np.sin(angles)
    return _build_mesh(nodes, mesh.cells)


# ---------------------------------------------------------------------------
# Dual geometry
# ---------------------------------------------------------------------------


@dataclass
class MeshGeometry:
    """Every precomputed circumcentric-dual quantity.

    Pairwise quantities are stored per pair, aligned with the directed
    adjacency list ``(adj_i, adj_j)`` (row major): the lengths ``h_len`` =
    ``|h_ij|`` and ``star_h_len`` = ``|*h_ij|``, ``flat_coef`` =
    ``2 Omega_ii |*h_ij|/|h_ij|`` and ``sharp_coef`` = ``|h_ij|/|*h_ij| /
    (2 Omega_ii)``.  The list is the only index of cell pairs.
    Per-node fan data is stored as flat tables for vectorized operator
    assembly:

    * ``fan_*``: one row per (node, position in its ccw fan), node by node,
      with the cell and its kite area; ``ring_cyclic`` flags the nodes whose
      fan wraps (interior nodes), and a non-manifold node has no rows,
    * ``pair_*``: one row per consecutive ccw fan pair ``(i, j)`` at a node
      (the dual-polygon boundary segments; this is the support of the total
      vorticity sums), with ``pair_adj`` its row on the adjacency list (a
      pair missing from the list, on a mesh with issues, has no row),
    * ``tri_*``: one row per kite triplet -- middle cell ``i`` with fan
      neighbors ``j`` (ccw next) and ``k`` (ccw previous) at node ``e`` --
      with the kite area, ``W_ijk`` and signed ``K_ijk``,
    * ``adj_*``: one row per ordered adjacent cell pair with its ``e+``/``e-``
      endpoint node indices,
    * ``ta_*``: one row per two-away one-form entry ``(ta_row, ta_col)``,
      with the kite triplet and the orientation (``+1``: ``Z_jk``, ``-1``:
      ``Z_kj``) that determine it; ``kite_rows`` holds, one column per
      ``ta`` row, the rows on the adjacency list of the two adjacent
      entries the kite relation reads (``(i, j)`` and ``(k, i)``, or
      ``(i, k)`` and ``(j, i)``; ``-1`` for a pair the list lacks).  Each
      entry is assigned once on a valid mesh; an interior node of degree
      < 5 assigns one twice, which is an issue, and the table keeps the
      first assignment.
    """

    mesh: Mesh
    omega: np.ndarray
    omega_env: float
    circumcenters: np.ndarray
    h_len: np.ndarray
    star_h_len: np.ndarray
    flat_coef: np.ndarray
    sharp_coef: np.ndarray
    fan_node: np.ndarray
    fan_cell: np.ndarray
    fan_kite: np.ndarray
    ring_cyclic: np.ndarray
    star_e: np.ndarray
    pair_node: np.ndarray
    pair_adj: np.ndarray
    tri_node: np.ndarray
    tri_i: np.ndarray
    tri_j: np.ndarray
    tri_k: np.ndarray
    tri_kappa: np.ndarray
    tri_w: np.ndarray
    tri_kconst: np.ndarray
    adj_i: np.ndarray
    adj_j: np.ndarray
    adj_eplus: np.ndarray
    adj_eminus: np.ndarray
    ta_row: np.ndarray
    ta_col: np.ndarray
    ta_tri: np.ndarray
    ta_sign: np.ndarray
    kite_rows: np.ndarray
    boundary_factor: np.ndarray
    diameter: float

    @property
    def n(self) -> int:
        return len(self.omega)

    @functools.cached_property
    def _pair_keys(self) -> np.ndarray:
        """``i * n + j`` per pair of the adjacency list, ascending."""
        return self.adj_i * self.n + self.adj_j

    def pair_index(self, i, j) -> np.ndarray:
        """Rows of the cell pairs ``(i[k], j[k])`` on the adjacency list,
        which must hold them."""
        return np.searchsorted(self._pair_keys, np.asarray(i) * self.n + j)

    def row_sums(self, w) -> np.ndarray:
        """``sum_j w_ij`` per cell of values ``w`` on the adjacency list."""
        return sum_at(self.adj_i, w, self.n)

    def diagonal(self, a) -> np.ndarray:
        """Diagonal ``A_ii = -sum_j A_ij`` of a vector field held as its
        values ``a`` on the adjacency list: its rows sum to zero."""
        return -self.row_sums(a)

    @functools.cached_property
    def _p2_keys(self) -> np.ndarray:
        return np.concatenate([self._pair_keys, self.ta_row * self.n + self.ta_col])

    def p2_index(self, i, j) -> np.ndarray:
        """Positions of the cell pairs ``(i[k], j[k])`` on *P2*, the
        adjacency list followed by the two-away list ``(ta_row, ta_col)``;
        ``-1`` for a pair off it, such as ``(i, i)``."""
        return _last_row(self._p2_keys, np.asarray(i) * self.n + j)

    @functools.cached_property
    def wedge_rows(self) -> np.ndarray:
        """P2 positions of the entries ``(i, j)``, ``(j, k)`` and ``(k, i)``
        of each kite triplet, in three rows; ``-1`` for one off P2, such as
        the diagonal ``(j, j)`` of a fan of two cells."""
        i, j, k = self.tri_i, self.tri_j, self.tri_k
        return self.p2_index(np.concatenate([i, j, k]), np.concatenate([j, k, i])).reshape(3, -1).astype(np.int32)

    @functools.cached_property
    def adjacency_csr(self) -> "AdjacencyCSR":
        """CSR form of matrices on the diagonal and the adjacent pairs,
        built at its first use."""
        return AdjacencyCSR(self)


class _PairedCSR(csr_array):
    """A CSR array whose transpose is a second one kept on the same index
    structure, so that ``.T`` constructs nothing."""

    transposed = None

    def transpose(self, axes=None, copy=False):
        if self.transposed is None or copy:
            return super().transpose(axes=axes, copy=copy)
        return self.transposed


class AdjacencyCSR:
    """SciPy CSR arrays on the fixed pattern of the diagonal and the
    adjacent cell pairs, which supports every velocity matrix.

    The index structure is built once: ``rows``, ``cols`` and ``indptr``
    of the stored entries (row major), and ``take`` and ``take_t``, each
    entry's position in ``[pair values, diagonal]`` for ``X`` and ``X^T``.
    The pattern is symmetric, so the same structure serves a matrix ``X``
    and its transpose: :meth:`load` takes ``X`` as its values on the
    adjacency list, completes the implied diagonal, and fills ``.data`` of
    two cached arrays with ``scale * X`` and ``scale * X^T`` through
    ``take`` and ``take_t``.  It returns the first, whose ``.T`` is the
    second.  Both are overwritten by the next :meth:`load`, so no caller
    holds a loaded array past it; :func:`decflow.groups.tau_action` keeps
    copies of what it needs.
    """

    def __init__(self, geom: MeshGeometry):
        n, m = geom.n, len(geom.adj_i)
        rows = np.concatenate([geom.adj_i, np.arange(n)])
        cols = np.concatenate([geom.adj_j, np.arange(n)])
        order = np.lexsort((cols, rows))  # row major
        self.rows, self.cols = rows[order], cols[order]
        # Each stored entry's position in [pair values, diagonal], for X
        # and for X^T (whose pair (i, j) holds the value of (j, i)).
        swapped = np.concatenate([geom.pair_index(geom.adj_j, geom.adj_i), np.arange(m, m + n)])
        self.take, self.take_t = order, swapped[order]
        self._diagonal = geom.diagonal
        self.indptr = indptr = np.searchsorted(self.rows, np.arange(n + 1))
        pair = [
            _PairedCSR((np.zeros(len(self.rows)), self.cols, indptr), shape=(n, n))
            for _ in range(2)
        ]
        pair[0].transposed, pair[1].transposed = pair[1], pair[0]
        self._mat = pair[0]

    def load(self, a: np.ndarray, scale: float = 1.0) -> csr_array:
        values = np.concatenate([a, self._diagonal(a)])
        np.multiply(values[self.take], scale, out=self._mat.data)
        np.multiply(values[self.take_t], scale, out=self._mat.T.data)
        return self._mat


def _circumcenters(nodes: np.ndarray, cells: np.ndarray) -> np.ndarray:
    a, b, c = nodes[cells[:, 0]], nodes[cells[:, 1]], nodes[cells[:, 2]]
    ab, ac = b - a, c - a
    d = 2.0 * _cross2(ab, ac)  # = 4 * signed area, positive for ccw cells
    ab2 = (ab * ab).sum(axis=1)
    ac2 = (ac * ac).sum(axis=1)
    ux = (ac[:, 1] * ab2 - ab[:, 1] * ac2) / d
    uy = (ab[:, 0] * ac2 - ac[:, 0] * ab2) / d
    return a + np.stack([ux, uy], axis=1)


def _last_row(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Row of the last occurrence of each query in ``keys``, ``-1`` where it
    does not occur."""
    if len(keys) == 0 or np.size(queries) == 0:
        return np.full(np.shape(queries), -1)
    order = np.argsort(keys, kind="stable")
    rows = order[np.maximum(np.searchsorted(keys[order], queries, side="right") - 1, 0)]
    return np.where(keys[rows] == queries, rows, -1)


def _node_fans(mesh: Mesh, issues: list) -> tuple:
    """Counterclockwise fan of cells around every node, as incidence rows
    ``3 c + p`` (cell ``c``, local vertex ``p``) in (node, ccw position)
    order: returns ``(fan_node, fan_pos, fan_row, cyclic)``, ``cyclic``
    flagging the interior nodes (whose fans wrap).  A non-manifold node gets
    a message in ``issues`` and no rows, which disables the operators'
    stencils there.
    """
    num_nodes, node = mesh.num_nodes, mesh.cells.ravel()
    rows = np.arange(len(node))
    # Walking ccw around v from cell (v, a, b) crosses the edge (v, b), which
    # is the edge opposite local vertex p+1; the edge (v, a) leads back.
    nxt = mesh.cell_adjacency[:, [1, 2, 0]].ravel()
    opened = mesh.cell_adjacency[:, [2, 0, 1]].ravel() < 0
    # A row's successor is the row of (ccw-next cell, same node), or -1; the
    # appended -1 is the successor of -1.
    succ = np.append(_last_row(rows // 3 * num_nodes + node, nxt * num_nodes + node), -1)
    degree = np.bincount(node, minlength=num_nodes)
    opens = np.bincount(node[opened], minlength=num_nodes)
    # An open chain starts at its open row, a closed fan at the node's
    # lowest cell.  Every fan is walked in lockstep.
    walk = np.full((num_nodes, degree.max() + 1), -1)
    used, lowest = np.unique(node, return_index=True)
    walk[used, 0] = lowest
    walk[node[opened], 0] = rows[opened]
    for t in range(1, walk.shape[1]):
        walk[:, t] = succ[walk[:, t - 1]]
    # A fan is whole when its walk visits every row of the node and then
    # closes on its start (interior) or leaves the mesh (boundary).  A walk
    # through a second open row turns back, so a pinched fan is never whole.
    inside = np.arange(walk.shape[1] - 1) < degree[:, None]
    seen = np.zeros(len(rows) + 1, dtype=bool)
    seen[walk[:, :-1][inside]] = True
    whole = np.bincount(node[seen[:-1]], minlength=num_nodes) == degree
    end = walk[np.arange(num_nodes), degree]
    whole &= (degree > 0) & (end == np.where(opens == 0, walk[:, 0], -1))
    for v in np.flatnonzero((degree > 0) & ~whole):
        if opens[v] > 1:
            issues.append(f"node {v}: {opens[v]} fans meet (pinched node)")
        else:
            issues.append(f"node {v}: non-manifold {'boundary' if opens[v] else 'interior'} fan")
    fan_node, fan_pos = np.nonzero(inside & whole[:, None])
    return fan_node, fan_pos, walk[fan_node, fan_pos], whole & (opens == 0)


def _geometry(mesh: Mesh, issues: list) -> MeshGeometry:
    nodes, cells = mesh.nodes, mesh.cells
    n = mesh.num_cells
    omega = _signed_areas(nodes, cells)
    cc = _circumcenters(nodes, cells)

    lo, hi = nodes.min(axis=0), nodes.max(axis=0)
    diameter = float(np.hypot(*(hi - lo)))
    eps_geom = 1e-12 * diameter

    # Edge table: one row per (cell c, local edge), in (c, t) order, with the
    # cell d across it (-1 on the boundary), |h| and |*h| (circumcenter to
    # circumcenter, or to the edge midpoint on the boundary).
    c = np.repeat(np.arange(n), 3)
    d = mesh.cell_adjacency.ravel()
    ends = _edge_ends(cells)
    pa, pb = nodes[ends[:, 0]], nodes[ends[:, 1]]
    h = np.hypot(*(pb - pa).T)
    inner = d >= 0
    s = np.hypot(*(np.where(inner[:, None], cc[d], 0.5 * (pa + pb)) - cc[c]).T)
    degenerate = s <= eps_geom
    for r in np.flatnonzero(degenerate & ((d > c) | ~inner)):  # once per edge
        if inner[r]:
            issues.append(
                f"degenerate dual edge between cells {c[r]} and {d[r]} (|*h| = {s[r]:.3e})"
            )
        else:
            issues.append(f"degenerate boundary dual edge on cell {c[r]} (|*h| = {s[r]:.3e})")
    outer = ~inner & ~degenerate
    boundary_factor = sum_at(c[outer], h[outer] / s[outer], n)
    # Every adjacent pair, row major, with its edge row (a pair of cells
    # shares one edge, unless they are the same triangle twice).
    adj_key, adj_row = np.unique(c[inner] * n + d[inner], return_index=True)
    adj_row = np.flatnonzero(inner)[adj_row]

    # Fan table: one row per (node, position in its ccw fan), node by node.
    fan_node, pos, fan_row, cyclic = _node_fans(mesh, issues)
    fan_cell, local = fan_row // 3, fan_row % 3
    size = np.bincount(fan_node, minlength=mesh.num_nodes)
    first, m = np.arange(len(fan_row)) - pos, size[fan_node]
    nxt, prv = first + (pos + 1) % m, first + (pos - 1) % m
    closed = cyclic[fan_node]

    # The kite of a fan row is the quad (v, midpoint to a, circumcenter,
    # midpoint to b) for the cell (v, a, b), by the shoelace formula.  Its two
    # dot products are 1x4 by 4x1 matmuls, which NumPy hands to BLAS ``ddot``
    # (the x coordinates at stride 2); an elementwise sum rounds differently.
    pv = nodes[fan_node]
    na, nb = nodes[cells[fan_cell, (local + 1) % 3]], nodes[cells[fan_cell, (local + 2) % 3]]
    quad = np.stack([pv, 0.5 * (pv + na), cc[fan_cell], 0.5 * (pv + nb)], axis=1)
    x, y, roll = quad[:, :, 0], quad[:, :, 1], [1, 2, 3, 0]
    kites = 0.5 * (x[:, None, :] @ y[:, roll, None] - y[:, None, :] @ x[:, roll, None])[:, 0, 0]
    for r in np.flatnonzero(kites <= eps_geom * diameter):
        issues.append(
            f"non-positive kite at node {fan_node[r]}, cell {fan_cell[r]} (area {kites[r]:.3e})"
        )

    # Consecutive ccw pairs (dual-polygon boundary) and the kite triplets of
    # the chain-interior cells (both fan neighbors present).
    link = closed | (pos < m - 1)
    pair_node, pair_i, pair_j = fan_node[link], fan_cell[link], fan_cell[nxt[link]]
    mid = closed | ((pos > 0) & (pos < m - 1))
    tri_node, tri_i, tri_kappa = fan_node[mid], fan_cell[mid], kites[mid]
    tri_j, tri_k = fan_cell[nxt[mid]], fan_cell[prv[mid]]  # ccw next, ccw previous
    star_e = sum_at(tri_node, tri_kappa, mesh.num_nodes)
    se_of_tri = star_e[tri_node]
    with np.errstate(divide="ignore", invalid="ignore"):
        tri_w = np.where(
            tri_kappa > 0, se_of_tri**2 / (2.0 * omega[tri_i] * np.where(tri_kappa != 0, tri_kappa, 1.0)), 0.0
        )
        tri_kconst = np.where(se_of_tri > 0, tri_kappa / np.where(se_of_tri != 0, se_of_tri, 1.0), 0.0)

    # Kite partition check (cell areas).
    kite_sum = np.bincount(fan_cell, kites, minlength=n)
    for cell in np.flatnonzero(np.abs(kite_sum - omega) > 1e-12 * diameter * diameter):
        issues.append(
            f"kites of cell {cell} sum to {kite_sum[cell]:.15g}, area is {omega[cell]:.15g}"
        )

    # e+/e- labels per ordered adjacent pair: at a node, each consecutive
    # ccw fan pair (i, j) has that node as its e+.
    ai, aj = c[adj_row], d[adj_row]
    fan_key = pair_i * n + pair_j
    ep, em = _last_row(fan_key, adj_key), _last_row(fan_key, aj * n + ai)
    found = (ep >= 0) & (em >= 0)
    for i, j in zip(ai[~found], aj[~found]):
        issues.append(f"adjacent pair ({i},{j}) missing a fan endpoint")
    adj_i, adj_j = ai[found], aj[found]
    h_len, star_h = h[adj_row[found]], s[adj_row[found]]
    flat_coef = 2.0 * omega[adj_i] * (star_h / h_len)
    dual = star_h > eps_geom  # a degenerate dual edge gets no sharp
    sharp_coef = np.where(dual, h_len / np.where(dual, star_h, 1.0), 0.0) / (2.0 * omega[adj_i])
    # A fan pair whose adjacent pair was dropped above has no row: drop it.
    pair_adj = _last_row(adj_i * n + adj_j, fan_key)
    on_list = pair_adj >= 0

    # Two-away one-form entry assignments.  Triplet (i, j, k) at node e fixes
    # the entries between the fan neighbors j and k of its middle cell:
    #   Z[j, k] = +K*omega(e) - Z[i, j]... (forward, sign +1)
    #   Z[k, j] = -K*omega(e) - ...        (reversed fan orientation, sign -1)
    # Entries are skipped when j, k happen to share an edge (their value is
    # already the adjacent one).  A later triplet hitting an assigned entry
    # (at an interior node of degree < 5, an issue below) is dropped.
    t = np.flatnonzero((tri_j != tri_k) & (_last_row(adj_key, tri_j * n + tri_k) < 0))
    ta_row = np.stack([tri_j[t], tri_k[t]], axis=1).ravel()
    ta_col = np.stack([tri_k[t], tri_j[t]], axis=1).ravel()
    ta_tri, ta_sign = np.repeat(t, 2), np.tile([1.0, -1.0], len(t))
    new = np.zeros(len(ta_row), dtype=bool)
    new[np.unique(ta_row * n + ta_col, return_index=True)[1]] = True
    # The rows of the two adjacent entries that each assignment reads:
    # Z[i, j] and Z[k, i] forward, Z[i, k] and Z[j, i] reversed.  (i, j)
    # and (k, i) are the fan pairs at the triplet's fan row and the one
    # before it; the reverse of an adjacent pair is its fan pair ``em``.
    # -1 marks a pair off the list.
    fan_adj = np.full(len(fan_row) + 1, -1)
    fan_adj[np.flatnonzero(link)] = pair_adj
    rev = np.append(pair_adj[em[found]], -1)
    mid_row = np.flatnonzero(mid)[t]
    r_ij, r_ki = fan_adj[mid_row], fan_adj[prv[mid_row]]
    kite_first = np.stack([r_ij, rev[r_ki]], axis=1).ravel()
    kite_second = np.stack([r_ki, rev[r_ij]], axis=1).ravel()

    for v in np.flatnonzero(cyclic & (size < 5)):
        issues.append(
            f"interior node {v} has degree {size[v]} < 5 (the flat's "
            "two-away one-form entries need degree 5 or more)"
        )

    return MeshGeometry(
        mesh=mesh,
        omega=omega,
        omega_env=float(omega.sum()),
        circumcenters=cc,
        h_len=h_len,
        star_h_len=star_h,
        flat_coef=flat_coef,
        sharp_coef=sharp_coef,
        fan_node=fan_node,
        fan_cell=fan_cell,
        fan_kite=kites,
        ring_cyclic=cyclic,
        star_e=star_e,
        pair_node=pair_node[on_list],
        pair_adj=pair_adj[on_list],
        tri_node=tri_node,
        tri_i=tri_i,
        tri_j=tri_j,
        tri_k=tri_k,
        tri_kappa=tri_kappa,
        tri_w=tri_w,
        tri_kconst=tri_kconst,
        adj_i=adj_i,
        adj_j=adj_j,
        adj_eplus=pair_node[ep[found]],
        adj_eminus=pair_node[em[found]],
        ta_row=ta_row[new],
        ta_col=ta_col[new],
        ta_tri=ta_tri[new],
        ta_sign=ta_sign[new],
        kite_rows=np.stack([kite_first[new], kite_second[new]]).astype(np.int32),
        boundary_factor=boundary_factor,
        diameter=diameter,
    )


def compute_geometry(mesh: Mesh) -> MeshGeometry:
    """Compute the full dual geometry; raises :class:`MeshError` naming every
    issue of the mesh.

    An issue is a dual edge (between adjacent cells, or circumcenter to
    boundary-edge midpoint) shorter than ``1e-12 * diameter``, a non-positive
    kite, a broken kite partition, a non-manifold node fan, or an interior
    node of degree < 5, where the kite relation does not fix each two-away
    entry of the flat once (at degree 4 two triplets assign the same entry).
    Loaded meshes with obtuse triangles are fine as long as those quantities
    stay positive.
    """
    issues: list = []
    geom = _geometry(mesh, issues)
    if issues:
        raise MeshError("; ".join(issues))
    return geom


def inspect_geometry(mesh: Mesh) -> tuple:
    """The dual geometry and every violated invariant, never raising:
    degenerate dual edges, non-positive kites, kite partition failures,
    non-manifold fans, low-degree interior nodes, and a note for each input
    cell that had to be reoriented.  Returns ``(geometry, issues)``."""
    issues = [f"cell {c} was clockwise; reoriented" for c in mesh.reoriented]
    return _geometry(mesh, issues), issues
