"""Mesh loading, generation, and circumcentric dual geometry."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decflow import fields as fd
from decflow import mesh as msh
from decflow import verify

ROOT3 = np.sqrt(3.0)


# ---------------------------------------------------------------------------
# Frozen geometry on the two-triangle rhombus
# ---------------------------------------------------------------------------


def test_rhombus_cell_areas(rhombus):
    assert rhombus.n == 2
    np.testing.assert_allclose(rhombus.omega, ROOT3 / 4.0, rtol=1e-14)


def test_rhombus_circumcenters(rhombus):
    # Equilateral triangles: circumcenter sits at 1/3 of the height.
    expected = np.array([[0.5, ROOT3 / 6.0], [0.5, -ROOT3 / 6.0]])
    np.testing.assert_allclose(rhombus.circumcenters, expected, atol=1e-15)


def test_rhombus_dual_edge(rhombus):
    np.testing.assert_array_equal(rhombus.adj_i, [0, 1])
    np.testing.assert_array_equal(rhombus.adj_j, [1, 0])
    np.testing.assert_allclose(rhombus.h_len, 1.0, rtol=1e-14)
    np.testing.assert_allclose(rhombus.star_h_len, ROOT3 / 3.0, rtol=1e-14)
    # 2 * omega * |*h| / |h| for the unit-flux one-form coefficient
    np.testing.assert_allclose(rhombus.flat_coef, 0.5, rtol=1e-14)
    # |h| / |*h| / (2 * omega) raises it back
    np.testing.assert_allclose(rhombus.sharp_coef, 2.0, rtol=1e-14)


def test_rhombus_everything_touches_boundary(rhombus):
    assert rhombus.mesh.boundary_cells.all()
    assert not rhombus.mesh.interior_cells.any()
    # No node has a closed fan, hence no dual-cell boundary at all.
    assert not rhombus.ring_cyclic.any()
    np.testing.assert_array_equal(rhombus.star_e, 0.0)


# ---------------------------------------------------------------------------
# Structured generator
# ---------------------------------------------------------------------------


def test_generator_counts(gen65):
    mesh = gen65.mesh
    assert mesh.num_cells == 65  # (2*6 + 1) * 5
    assert int(mesh.boundary_cells.sum()) == 21


def test_generator_tiles_the_rectangle():
    for nx, ny, lx, ly in [(6, 5, 1.0, 1.0), (4, 3, 1.3, 1.0)]:
        geom = msh.compute_geometry(msh.generate_rect_mesh(nx, ny, lx, ly))
        assert geom.omega.sum() == pytest.approx(lx * ly, rel=1e-13)
        assert geom.omega.min() > 0


def test_generator_interior_fans_are_hexagonal(gen65):
    degrees = np.bincount(gen65.fan_node, minlength=gen65.mesh.num_nodes)
    assert set(degrees[gen65.ring_cyclic]) == {6}


def test_frozen_fan_ring(gen65):
    # Node 8 is the first interior node of the 6x5 strip; its counter-
    # clockwise fan was checked by hand once and is pinned here.
    assert gen65.ring_cyclic[8]
    np.testing.assert_array_equal(gen65.fan_cell[gen65.fan_node == 8], [0, 1, 7, 14, 19, 13])


def test_generator_rejects_bad_arguments():
    with pytest.raises(msh.MeshError, match="nx and ny must be >= 1"):
        msh.generate_rect_mesh(0, 3, 1.0, 1.0)
    with pytest.raises(msh.MeshError, match="lx and ly must be > 0"):
        msh.generate_rect_mesh(2, 2, 1.0, 0.0)


# ---------------------------------------------------------------------------
# Dual-cell bookkeeping invariants
# ---------------------------------------------------------------------------


def kite_sums(geom):
    total = np.zeros(geom.n)
    np.add.at(total, geom.fan_cell, geom.fan_kite)
    return total


def test_kites_partition_cells(gen65, jittered):
    for geom in (gen65, jittered):
        np.testing.assert_allclose(kite_sums(geom), geom.omega, atol=1e-14)


def test_kites_are_positive(jittered):
    assert jittered.fan_kite.min() > 0


def test_dual_edge_measure_matches_kite_triplets(gen65, jittered):
    # |*e| at a node is the kite total over the cells that sit strictly
    # inside the fan chain -- exactly the middles of the (i, j, k) triplets.
    for geom in (gen65, jittered):
        grouped = np.zeros(geom.mesh.num_nodes)
        np.add.at(grouped, geom.tri_node, geom.tri_kappa)
        np.testing.assert_allclose(grouped, geom.star_e, atol=1e-15)


def test_triplets_walk_the_fan(gen65):
    for t in range(len(gen65.tri_node)):
        ring = list(gen65.fan_cell[gen65.fan_node == gen65.tri_node[t]])
        pos = ring.index(gen65.tri_i[t])
        assert gen65.tri_j[t] == ring[(pos + 1) % len(ring)]
        assert gen65.tri_k[t] == ring[(pos - 1) % len(ring)]


def test_symmetric_tables(jittered):
    g = jittered
    key = g.adj_i * g.n + g.adj_j
    assert (np.diff(key) > 0).all()  # the pair list is row major
    reverse = np.searchsorted(key, g.adj_j * g.n + g.adj_i)
    np.testing.assert_array_equal(key[reverse], g.adj_j * g.n + g.adj_i)
    for length in (g.h_len, g.star_h_len):
        assert length.shape == g.adj_i.shape
        np.testing.assert_array_equal(length, length[reverse])
        assert (length > 0).all()


# ---------------------------------------------------------------------------
# Jitter
# ---------------------------------------------------------------------------


def test_jitter_moves_only_interior_nodes():
    base = msh.generate_rect_mesh(4, 3, 1.0, 1.0)
    moved = msh.jitter_mesh(base, 0.2, np.random.default_rng(3))
    delta = np.abs(moved.nodes - base.nodes).max(axis=1)
    on_hull = (
        np.isclose(base.nodes[:, 0], 0.0)
        | np.isclose(base.nodes[:, 0], 1.0)
        | np.isclose(base.nodes[:, 1], 0.0)
        | np.isclose(base.nodes[:, 1], 1.0)
    )
    assert (delta[on_hull] == 0).all()
    assert (delta[~on_hull] > 0).any()
    assert msh.inspect_geometry(moved)[1] == []


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

GOOD = "4 2\n0 0\n1 0\n0.5 0.9\n0.5 -0.9\n0 1 2\n1 0 3\n"


def test_load_mesh_roundtrip_topology():
    mesh = msh.load_mesh(GOOD)
    assert mesh.num_nodes == 4
    assert mesh.num_cells == 2
    assert mesh.reoriented == ()


def test_load_mesh_allows_comments_and_blank_lines():
    noisy = "# rhombus\n\n" + GOOD.replace("1 0 3", "1 0 3  # second cell")
    mesh = msh.load_mesh(noisy)
    assert mesh.num_cells == 2


def test_load_mesh_fixes_clockwise_cells():
    flipped = GOOD.replace("0 1 2", "0 2 1")
    mesh = msh.load_mesh(flipped)
    assert mesh.reoriented == (0,)
    # a reoriented cell is a note of `mesh check`, not an issue
    assert msh.inspect_geometry(mesh)[1] == []


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty mesh file"),
        ("x y\n", "line 1: non-integer header"),
        ("4\n", "line 1: expected 'NP NC' header"),
        (GOOD.replace("1 0\n", "1\n"), "line 3: expected 'x y'"),
        (GOOD.replace("1 0\n", "1 zero\n"), "line 3: bad coordinate"),
        (GOOD.replace("1 0 3", "1 0"), "line 7: expected 'i j k'"),
        (GOOD.replace("1 0 3", "1 0 abc"), "line 7: bad node index"),
        (GOOD.replace("1 0 3", "1 0 9"), "node index out of range"),
        ("4 2\n0 0\n1 0\n0.5 0.9\n0.5 -0.9\n0 1 2\n", "expected 7 content lines, got 6"),
    ],
)
def test_load_mesh_errors_name_the_line(text, message):
    with pytest.raises(msh.MeshError, match=message):
        msh.load_mesh(text)


# ---------------------------------------------------------------------------
# Degeneracy detection
# ---------------------------------------------------------------------------


def test_right_triangle_pair_has_degenerate_dual_edge():
    # Splitting the unit square along its diagonal puts both circumcenters
    # at the diagonal midpoint: the dual edge collapses.
    text = "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n"
    mesh = msh.load_mesh(text)
    with pytest.raises(msh.MeshError, match="degenerate dual edge"):
        msh.compute_geometry(mesh)
    issues = msh.inspect_geometry(mesh)[1]
    assert any("degenerate dual edge" in s for s in issues)


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "5 3\n0 0\n1 0\n0.5 1\n0.5 -1\n0.5 2\n0 1 2\n1 0 3\n0 1 4\n",
            "edge (0, 1) is shared by 3 cells",
        ),
        (
            "5 2\n0 0\n1 0\n0 1\n-1 0\n0 -1\n0 1 2\n0 3 4\n",  # a shared node only
            "mesh is not edge-connected",
        ),
        (GOOD.replace("1 0 3", "1 1 3"), "cell 1 repeats a node index"),
        (
            "4 2\n0 0\n1 0\n0.5 0.9\n2 0\n0 1 2\n0 1 3\n",
            "cell 1 is degenerate (area 0.000e+00)",
        ),
        (GOOD.replace("\n1 0\n", "\nnan 0\n"), "node 1 has a non-finite coordinate"),
        (GOOD.replace("\n1 0\n", "\n1 inf\n"), "node 1 has a non-finite coordinate"),
        (GOOD.replace("\n0 0\n", "\n-inf 0\n"), "node 0 has a non-finite coordinate"),
        (GOOD.replace("\n0.5 -0.9\n", "\n0.5 -2e75\n"), "node 3 has a coordinate beyond 1e75 in magnitude"),
        ("3 2\n0 0\n1 0\n0.4 0.9\n0 1 2\n0 1 2\n", "cell 1 repeats cell 0"),
        ("3 2\n0 0\n1 0\n0.4 0.9\n0 1 2\n2 1 0\n", "cell 1 repeats cell 0"),
        (  # reported before the mesh is found not to be edge-connected
            "6 3\n0 0\n1 0\n0.4 0.9\n5 0\n6 0\n5.4 0.9\n0 1 2\n3 4 5\n4 5 3\n",
            "cell 2 repeats cell 1",
        ),
    ],
)
def test_broken_topology_is_rejected_on_load(text, message):
    with pytest.raises(msh.MeshError) as err:
        msh.load_mesh(text)
    assert str(err.value) == message


# Cells 0 and 1 touch only at node 0; a chain of six cells joins their far
# edges, so the mesh is edge-connected but node 0 has two open fans.
PINCHED = (
    "9 8\n0 0\n1.6 0.4\n1.2 1.3\n-0.8 0.7\n-1.8 0.3\n1.8 0.6\n2.4 2.6\n-1.9 2.6\n"
    "-1.9 0.5\n0 1 2\n0 3 4\n1 5 2\n2 5 6\n2 6 7\n2 7 3\n3 7 8\n3 8 4\n"
)
# Both cells lie on the same side of their shared edge.
FOLDED = "4 2\n0 0\n1 0\n0.5 1\n0.5 0.4\n0 1 2\n0 1 3\n"
# A closed hexagon fan around node 0, and cell 6 = (0, 9, 8), which touches
# node 0 only at that node and is joined to the hexagon through cells 7 to 9.
# Cells 6 and 7 are folded over their shared edge (8, 9).
SPLIT_FAN = (
    "10 10\n0 0\n2 0\n1 2\n-1 2\n-2 0\n-1 -2\n1 -2\n3 0\n-1 0\n3 1\n"
    "0 1 2\n0 2 3\n0 3 4\n0 4 5\n0 5 6\n0 6 1\n0 9 8\n9 8 7\n2 8 7\n2 1 7\n"
)


@pytest.mark.parametrize(
    "text, issues",
    [
        (
            PINCHED,
            [
                "node 0: 2 fans meet (pinched node)",
                "kites of cell 0 sum to 0.58490625, area is 0.8",
                "kites of cell 1 sum to 0.489558823529412, area is 0.51",
            ],
        ),
        (
            FOLDED,
            [
                "node 0: non-manifold interior fan",
                "node 1: 2 fans meet (pinched node)",
                "kites of cell 0 sum to 0.15625, area is 0.5",
                "kites of cell 1 sum to 0.128125, area is 0.2",
                "adjacent pair (0,1) missing a fan endpoint",
                "adjacent pair (1,0) missing a fan endpoint",
            ],
        ),
        (
            # The right angle puts the circumcenter on the boundary hypotenuse.
            "3 1\n0 0\n1 0\n0 1\n0 1 2\n",
            ["degenerate boundary dual edge on cell 0 (|*h| = 0.000e+00)"],
        ),
        (
            "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n",
            ["degenerate dual edge between cells 0 and 1 (|*h| = 0.000e+00)"],
        ),
        (
            SPLIT_FAN,
            [
                "node 0: non-manifold boundary fan",
                "node 2: 2 fans meet (pinched node)",
                "node 7: non-manifold boundary fan",
                "node 8: non-manifold boundary fan",
                "node 9: non-manifold interior fan",
                "kites of cell 0 sum to 0.6875, area is 2",
                "kites of cell 1 sum to 0.6875, area is 2",
                "kites of cell 2 sum to 1.3125, area is 2",
                "kites of cell 3 sum to 1.3125, area is 2",
                "kites of cell 4 sum to 1.375, area is 2",
                "kites of cell 5 sum to 1.3125, area is 2",
                "kites of cell 6 sum to 0, area is 0.5",
                "kites of cell 7 sum to 0, area is 2",
                "kites of cell 8 sum to 0, area is 4",
                *(
                    f"adjacent pair ({i},{j}) missing a fan endpoint"
                    for i, j in [
                        (0, 1), (0, 5), (0, 9), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3),
                        (4, 5), (5, 0), (5, 4), (6, 7), (7, 6), (7, 8), (8, 7), (8, 9), (9, 0), (9, 8),
                    ]
                ),
            ],
        ),
    ],
)
def test_degenerate_geometry_lists_every_issue(text, issues):
    mesh = msh.load_mesh(text)
    assert msh.inspect_geometry(mesh)[1] == issues
    with pytest.raises(msh.MeshError) as err:
        msh.compute_geometry(mesh)
    assert str(err.value) == "; ".join(issues)


# Node 4 is interior with four cells; cell 0 is given clockwise, which is
# not an issue.
LOW_DEGREE = "5 4\n1 0\n0 1\n-1 0\n0 -1\n{}\n4 1 0\n1 2 4\n2 3 4\n3 0 4\n"


def test_low_degree_is_a_hard_issue():
    degree = "interior node 4 has degree 4 < 5 (the flat's two-away one-form entries need degree 5 or more)"
    mesh = msh.load_mesh(LOW_DEGREE.format("0.2 0.1"))
    assert mesh.reoriented == (0,)
    assert msh.inspect_geometry(mesh)[1] == [degree]
    with pytest.raises(msh.MeshError) as err:
        msh.compute_geometry(mesh)
    assert str(err.value) == degree
    kites = [
        "non-positive kite at node 0, cell 0 (area -3.925e-02)",
        "non-positive kite at node 1, cell 0 (area -2.075e-02)",
    ]
    mesh = msh.load_mesh(LOW_DEGREE.format("0.3 0.2"))
    assert msh.inspect_geometry(mesh)[1] == [*kites, degree]
    with pytest.raises(msh.MeshError) as err:
        msh.compute_geometry(mesh)
    assert str(err.value) == "; ".join([*kites, degree])


def test_inspect_lists_issues_exactly_when_compute_raises(request):
    # One verdict per mesh: over the verify corpus, the shared fixtures, a
    # clockwise rhombus and broken meshes, inspect_geometry lists no issue
    # exactly when compute_geometry returns, and otherwise the issues that
    # compute_geometry names.
    fixtures = ("rhombus", "gen65", "small43", "jittered", "jittered65")
    meshes = [geom.mesh for geom in verify.mesh_corpus(seed=1)]
    meshes += [request.getfixturevalue(name).mesh for name in fixtures]
    texts = [GOOD.replace("0 1 2", "0 2 1"), LOW_DEGREE.format("0.2 0.1"), LOW_DEGREE.format("0.3 0.2")]
    meshes += [msh.load_mesh(text) for text in [*texts, PINCHED, FOLDED, SPLIT_FAN]]
    verdicts = []
    for mesh in meshes:
        issues = msh.inspect_geometry(mesh)[1]
        try:
            msh.compute_geometry(mesh)
            raised = None
        except msh.MeshError as exc:
            raised = str(exc)
        assert raised == ("; ".join(issues) if issues else None)
        verdicts.append(raised is None)
    assert verdicts.count(False) == 5 and len(verdicts) == 51 + 5 + 6


# ---------------------------------------------------------------------------
# The array fan walk against a per-node reference walk
# ---------------------------------------------------------------------------


def reference_fans(mesh):
    """Counterclockwise fan of cells around every node, walked node by node.

    Returns ``(rings, cyclic, issues)``: ``rings[v]`` lists the incident cells
    in ccw order, ``cyclic[v]`` is True for interior nodes, and ``issues``
    names every non-manifold node (whose fan is left empty).
    """
    cells = mesh.cells
    adjacency = mesh.cell_adjacency
    issues = []
    incident = [[] for _ in range(mesh.num_nodes)]
    for c in range(mesh.num_cells):
        for p in range(3):
            incident[int(cells[c, p])].append((c, p))

    rings = []
    cyclic = np.zeros(mesh.num_nodes, dtype=bool)
    for v in range(mesh.num_nodes):
        items = incident[v]
        if not items:
            rings.append(np.empty(0, dtype=np.int64))
            continue
        # Walking ccw around v from cell (v, a, b) crosses the edge (v, b),
        # which is the edge opposite local vertex p+1.
        nxt = {}
        prv = {}
        for c, p in items:
            nxt[c] = int(adjacency[c, (p + 1) % 3])
            prv[c] = int(adjacency[c, (p + 2) % 3])
        starts = [c for c, _ in items if prv[c] < 0]
        if len(starts) == 0:  # interior node: cyclic fan
            ring = [items[0][0]]
            while True:
                nc = nxt[ring[-1]]
                if nc == ring[0]:
                    break
                if nc < 0 or nc in ring or len(ring) > len(items):
                    ring = None
                    break
                ring.append(nc)
            if ring is None or len(ring) != len(items):
                issues.append(f"node {v}: non-manifold interior fan")
                rings.append(np.empty(0, dtype=np.int64))
                continue
            cyclic[v] = True
            rings.append(np.array(ring, dtype=np.int64))
        elif len(starts) == 1:  # boundary node: open chain
            ring = [starts[0]]
            while nxt[ring[-1]] >= 0:
                nc = nxt[ring[-1]]
                if nc in ring or len(ring) > len(items):
                    ring = None
                    break
                ring.append(nc)
            if ring is None or len(ring) != len(items):
                issues.append(f"node {v}: non-manifold boundary fan")
                rings.append(np.empty(0, dtype=np.int64))
                continue
            rings.append(np.array(ring, dtype=np.int64))
        else:
            issues.append(f"node {v}: {len(starts)} fans meet (pinched node)")
            rings.append(np.empty(0, dtype=np.int64))
    return rings, cyclic, issues


# Cell 2 covers cells 0 and 1: the walk around node 0 visits its three cells
# and then turns back to cell 1 instead of closing on cell 0.
STACKED = "4 3\n0 0\n2 0\n1.53 1.29\n0.35 1.97\n0 1 2\n0 2 3\n0 1 3\n"
DEGREE_FOUR = "5 4\n1 0\n0 1\n-1 0\n0 -1\n0.2 0.1\n0 1 4\n1 2 4\n2 3 4\n3 0 4\n"


@pytest.mark.parametrize(
    "text",
    [
        None,  # the jittered 65-cell mesh
        DEGREE_FOUR,
        PINCHED,
        FOLDED,
        SPLIT_FAN,
        STACKED,
        "3 1\n0 0\n1 0\n0 1\n0 1 2\n",
        "4 2\n0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n",
        "5 4\n1 0\n0 1\n-1 0\n0 -1\n0.3 0.2\n4 1 0\n1 2 4\n2 3 4\n3 0 4\n",
    ],
)
def test_fan_table_matches_the_reference_walk(text, jittered65):
    mesh = jittered65.mesh if text is None else msh.load_mesh(text)
    rings, cyclic, fan_issues = reference_fans(mesh)
    geom, issues = msh.inspect_geometry(mesh)
    np.testing.assert_array_equal(geom.fan_cell, np.concatenate(rings))
    np.testing.assert_array_equal(geom.fan_node, np.repeat(np.arange(mesh.num_nodes), [len(r) for r in rings]))
    np.testing.assert_array_equal(geom.ring_cyclic, cyclic)
    assert [s for s in issues if s.startswith("node ")] == fan_issues


def test_validate_clean_meshes(gen65, jittered):
    assert msh.inspect_geometry(gen65.mesh)[1] == []
    assert msh.inspect_geometry(jittered.mesh)[1] == []


def test_adjacency_csr_holds_the_pattern_and_its_transpose(jittered65, rng):
    pattern = jittered65.adjacency_csr
    assert jittered65.adjacency_csr is pattern  # built once per geometry
    support = np.eye(jittered65.n, dtype=bool)
    support[jittered65.adj_i, jittered65.adj_j] = True
    rows, cols = np.nonzero(support)  # row major
    np.testing.assert_array_equal(pattern.rows, rows)
    np.testing.assert_array_equal(pattern.cols, cols)
    np.testing.assert_array_equal(pattern.indptr, np.searchsorted(rows, np.arange(jittered65.n + 1)))
    values = rng.normal(size=len(jittered65.adj_i))
    x = fd.velocity_matrix(jittered65, values)  # the diagonal completes the rows
    xi = np.concatenate([values, jittered65.diagonal(values)])  # on [pairs, diagonal]
    np.testing.assert_array_equal(xi[pattern.take], x[rows, cols])
    np.testing.assert_array_equal(xi[pattern.take_t], x.T[rows, cols])
    mat = fd.velocity_csr(jittered65, values)
    assert mat.format == "csr" and mat.has_sorted_indices
    np.testing.assert_array_equal(mat.toarray(), x)
    assert not np.shares_memory(fd.velocity_csr(jittered65, values).data, mat.data)  # a fresh array


def _traced_geometry(nx, ny):
    """A jittered geometry and the ``tracemalloc`` peak of building it."""
    mesh = msh.jitter_mesh(msh.generate_rect_mesh(nx, ny, 1.0, 1.0), 0.15, np.random.default_rng(7))
    tracemalloc.start()
    try:
        geom = msh.compute_geometry(mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return geom, peak


def test_geometry_holds_no_dense_float_array():
    # The pairwise geometry is stored per pair: building it for 980 cells
    # allocates less than one dense (N, N) float array at its peak, and for
    # 3880 cells less than one dense (N, N) boolean array.
    geom, peak = _traced_geometry(24, 20)
    assert geom.n == 980
    assert peak < 8 * geom.n**2
    geom, peak = _traced_geometry(48, 40)
    assert geom.n == 3880
    assert peak < geom.n**2


def test_no_geometry_member_is_square(jittered65):
    for name, value in vars(jittered65).items():
        if isinstance(value, np.ndarray):
            assert list(value.shape).count(jittered65.n) < 2, name


def fan_pairs(geom):
    """Every consecutive ccw pair ``(node, i, j)`` of the fan table."""
    pairs = []
    for v in range(geom.mesh.num_nodes):
        ring = geom.fan_cell[geom.fan_node == v].tolist()
        m = len(ring)
        pairs += [(v, ring[t], ring[(t + 1) % m]) for t in range(m if geom.ring_cyclic[v] else m - 1)]
    return pairs


@settings(max_examples=30, deadline=None)
@given(
    nx=st.integers(2, 8),
    ny=st.integers(2, 8),
    amount=st.floats(0.0, 0.25),
    seed=st.integers(0, 2**32 - 1),
)
def test_geometry_tables_are_consistent(nx, ny, amount, seed):
    mesh = msh.jitter_mesh(msh.generate_rect_mesh(nx, ny, 1.0, 1.0), amount, np.random.default_rng(seed))
    try:
        g = msh.compute_geometry(mesh)
    except msh.MeshError:
        assume(False)
    key = g.adj_i * g.n + g.adj_j
    assert (np.diff(key) > 0).all()  # row major, no repeats
    reverse = np.searchsorted(key, g.adj_j * g.n + g.adj_i)
    np.testing.assert_array_equal(key[reverse], g.adj_j * g.n + g.adj_i)
    np.testing.assert_array_equal(g.h_len[reverse], g.h_len)
    np.testing.assert_array_equal(g.star_h_len[reverse], g.star_h_len)
    pairs = zip(g.pair_node.tolist(), g.adj_i[g.pair_adj].tolist(), g.adj_j[g.pair_adj].tolist())
    assert list(pairs) == fan_pairs(g)
    assert not np.isin(g.ta_row * g.n + g.ta_col, key).any()
    kites = np.bincount(g.fan_cell, g.fan_kite, minlength=g.n)
    np.testing.assert_allclose(kites, g.omega, rtol=0, atol=1e-14)


def test_fan_pairs_off_the_adjacency_list_are_dropped():
    # Heavy jitter folds cells, so some adjacent pairs miss a fan endpoint
    # and leave the list; the fan pairs that stood for them go too.
    mesh = msh.jitter_mesh(msh.generate_rect_mesh(12, 10, 1.0, 1.0), 0.9, np.random.default_rng(3))
    g, issues = msh.inspect_geometry(mesh)
    assert any("missing a fan endpoint" in line for line in issues)
    assert ((0 <= g.pair_adj) & (g.pair_adj < len(g.adj_i))).all()
    listed = set(zip(g.adj_i.tolist(), g.adj_j.tolist()))
    kept = [p for p in fan_pairs(g) if p[1:] in listed]
    assert len(kept) < len(fan_pairs(g))
    pairs = zip(g.pair_node.tolist(), g.adj_i[g.pair_adj].tolist(), g.adj_j[g.pair_adj].tolist())
    assert list(pairs) == kept


@pytest.mark.parametrize("degree_four", [False, True])
def test_tables_match_loops_over_edges_and_fans(jittered65, degree_four):
    # The per-edge and per-fan loops the tables vectorize do the same
    # arithmetic in the same order, so the results are equal, not close.
    g = jittered65
    if degree_four:  # a mesh whose triplets assign two-away entries twice
        g, issues = msh.inspect_geometry(msh.load_mesh(DEGREE_FOUR))
        assert [s.split(" (")[0] for s in issues] == ["interior node 4 has degree 4 < 5"]
    nodes, cells, cc = g.mesh.nodes, g.mesh.cells, g.circumcenters
    for p, (i, j) in enumerate(zip(g.adj_i, g.adj_j)):
        t = list(g.mesh.cell_adjacency[i]).index(j)
        a, b = nodes[cells[i, (t + 1) % 3]], nodes[cells[i, (t + 2) % 3]]
        assert g.h_len[p] == float(np.hypot(*(b - a)))
        assert g.star_h_len[p] == float(np.hypot(*(cc[j] - cc[i])))
    eplus = {}
    for v in range(g.mesh.num_nodes):
        ring, kappa = g.fan_cell[g.fan_node == v], g.fan_kite[g.fan_node == v]
        m, pv = len(ring), nodes[v]
        for t, c in enumerate(ring):
            k = list(cells[c]).index(v)
            a, b = nodes[cells[c, (k + 1) % 3]], nodes[cells[c, (k + 2) % 3]]
            quad = np.array([pv, 0.5 * (pv + a), cc[c], 0.5 * (pv + b)])
            x, y = quad[:, 0], quad[:, 1]
            assert kappa[t] == 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        star = 0.0
        for t in range(m) if g.ring_cyclic[v] else range(1, m - 1):
            star += kappa[t]
        assert g.star_e[v] == star
        for t in range(m if g.ring_cyclic[v] else m - 1):
            eplus[(ring[t], ring[(t + 1) % m])] = v
    assert g.adj_eplus.tolist() == [eplus[(i, j)] for i, j in zip(g.adj_i, g.adj_j)]
    assert g.adj_eminus.tolist() == [eplus[(j, i)] for i, j in zip(g.adj_i, g.adj_j)]
    adjacent = set(zip(g.adj_i.tolist(), g.adj_j.tolist()))
    adj_row = {pair: p for p, pair in enumerate(zip(g.adj_i.tolist(), g.adj_j.tolist()))}
    first, kite_rows, later, seen = [], [], [], set()
    for t, (i, j, k) in enumerate(zip(g.tri_i.tolist(), g.tri_j.tolist(), g.tri_k.tolist())):
        if j == k or (j, k) in adjacent:
            continue
        # Z_jk reads Z_ij and Z_ki, Z_kj reads Z_ik and Z_ji; the first
        # assignment of an entry wins.
        for row, col, sign, reads in ((j, k, 1.0, ((i, j), (k, i))), (k, j, -1.0, ((i, k), (j, i)))):
            if (row, col) in seen:
                later.append((row, col))
            else:
                first.append((row, col, t, sign))
                kite_rows.append([adj_row[pair] for pair in reads])
            seen.add((row, col))
    got = zip(*(getattr(g, f"ta_{x}").tolist() for x in ("row", "col", "tri", "sign")))
    assert list(got) == first
    assert g.kite_rows.T.tolist() == kite_rows
    assert bool(later) == degree_four
