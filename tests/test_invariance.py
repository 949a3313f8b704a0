"""Results do not depend on how the mesh is numbered or where it lies.

A run on the 65-cell jittered mesh is repeated on three copies of that
mesh, for both group maps:

* *renumbered*: cells and nodes permuted at random, and each cell's
  vertices rotated by a random shift, with the state carried cell by cell
  and each flux by its cell pair;
* *moved*: rotated by 0.7 rad and translated, with the same state on the
  list, which the motion leaves as it is;
* *mirrored*: ``y -> 1 - y`` with two vertices swapped per cell to keep
  them counterclockwise, which reverses every fan, with the same state.

The diagnostics sample columns agree to 1e-12 of their largest magnitude,
the solver counts exactly, and the final density, entropy and velocity,
mapped back, to 1e-12 of theirs.  ``energy_residual`` is the difference
quotient of the energy and heat columns, so it is compared through them.
Only the renumbering reorders the flux pairs ``rows < cols``, so only it
sees a force that reads one end of a pair where the pair's mean belongs.
"""

import dataclasses

import numpy as np
import pytest

from decflow import cli_io as cli
from decflow import diagnostics as dg
from decflow import fields as fd
from decflow import groups as gr
from decflow import integrator as ig
from decflow import mesh as msh
from decflow import physics as ph
from decflow import verify as vf

GAS = ph.GasParams()
PHYS = ph.PhysParams(mu=0.01, zeta=0.01, lam=0.01, theta_env=1.2, insulated=False)
STEPS = 12
COUNTS = ("newton_iters", "entropy_iters", "jacobian_builds", "residual_evals", "colors", "series_terms")


def rebuild(nodes, cells):
    """The geometry of the mesh with these nodes and counterclockwise cells,
    through the mesh file format (``repr`` floats round-trip exactly)."""
    lines = [f"{len(nodes)} {len(cells)}"]
    lines += [f"{x!r} {y!r}" for x, y in nodes.tolist()]
    lines += [" ".join(map(str, c)) for c in cells.tolist()]
    return msh.compute_geometry(msh.load_mesh("\n".join(lines) + "\n"))


@pytest.fixture(scope="module")
def base():
    rng = np.random.default_rng([1, 6, 5])
    mesh = msh.jitter_mesh(msh.generate_rect_mesh(6, 5, 1.0, 1.0), 0.15, rng)
    return msh.compute_geometry(mesh)


def renumbered(geom):
    """``(copy, perm)``: the copy's cell ``c`` is ``geom``'s cell ``perm[c]``."""
    rng = np.random.default_rng(11)
    mesh = geom.mesh
    perm, node_perm = rng.permutation(geom.n), rng.permutation(mesh.num_nodes)
    new_node = np.argsort(node_perm)  # old node -> new node
    shift = rng.integers(0, 3, geom.n)[:, None]
    cells = np.take_along_axis(mesh.cells[perm], (np.arange(3) + shift) % 3, axis=1)
    return rebuild(mesh.nodes[node_perm], new_node[cells]), perm


def moved(geom):
    c, s = np.cos(0.7), np.sin(0.7)
    nodes = geom.mesh.nodes @ np.array([[c, s], [-s, c]]) + np.array([0.3, -1.7])
    return rebuild(nodes, geom.mesh.cells), np.arange(geom.n)


def mirrored(geom):
    nodes = geom.mesh.nodes * np.array([1.0, -1.0]) + np.array([0.0, 1.0])
    return rebuild(nodes, geom.mesh.cells[:, [0, 2, 1]]), np.arange(geom.n)


TRANSFORMS = {"renumbered": renumbered, "moved": moved, "mirrored": mirrored}


def carried(geom, copy, perm, values):
    """Values on ``geom``'s adjacency list, read at ``copy``'s pairs."""
    return values[geom.pair_index(perm[copy.adj_i], perm[copy.adj_j])]


def initial_state(geom):
    """A vortex with uneven density and temperature, off the walls'."""
    state = cli.initial_condition_presets("taylor-like", {"amplitude": "0.3"}, geom, GAS)
    x = geom.circumcenters
    state.d = 1.0 + 0.2 * np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1])
    state.s = ph.entropy_from_temperature(state.d, 1.0 + 0.3 * np.cos(4.0 * x[:, 0] + x[:, 1]), GAS)
    return state


def run(geom, state, kind):
    """The sample columns per step, the solver counts per step, and the
    final state."""
    columns, counts = [], []

    def observe(k, t, st, report):
        columns.append(dataclasses.astuple(dg.sample(geom, st, GAS, PHYS, report.friction_power, t)))
        counts.append([getattr(report, name) for name in COUNTS])

    final = ig.VariationalStepper(geom, GAS, PHYS, 1e-3, kind=kind).run(state, STEPS, observe)
    return np.array(columns), np.array(counts), final


@pytest.fixture(scope="module")
def reference(base):
    state = initial_state(base)
    return {kind: run(base, state, kind) for kind in gr.KINDS}


def assert_relative(got, want, rel=1e-12):
    """Per column (or as a whole, for a vector): within ``rel`` of the
    largest magnitude."""
    excess = np.max(np.abs(got - want) - rel * np.max(np.abs(want), axis=0))
    assert excess <= 0.0, excess


@pytest.mark.parametrize("kind", gr.KINDS)
@pytest.mark.parametrize("transform", list(TRANSFORMS))
def test_a_run_does_not_depend_on_numbering_or_placement(base, reference, transform, kind):
    copy, perm = TRANSFORMS[transform](base)
    state = initial_state(base)
    state = ph.FluidState(carried(base, copy, perm, state.a), state.d[perm], state.s[perm])
    columns, counts, final = run(copy, state, kind)
    want_columns, want_counts, want = reference[kind]
    np.testing.assert_array_equal(counts, want_counts)
    assert_relative(columns, want_columns)
    assert_relative(final.d, want.d[perm])
    assert_relative(final.s, want.s[perm])
    assert_relative(final.a, carried(base, copy, perm, want.a))


def test_the_listed_lie_route_and_P_do_not_depend_on_numbering(base):
    copy, perm = renumbered(base)
    rng = np.random.default_rng(3)
    a, lp, ld = vf.random_tangent(base, rng), rng.standard_normal(len(base.adj_i)), rng.standard_normal(base.n)
    p2 = np.concatenate([lp, rng.standard_normal(len(base.ta_row))])  # a one-form density on P2
    rows, cols = np.concatenate([copy.adj_i, copy.ta_row]), np.concatenate([copy.adj_j, copy.ta_col])
    at = base.p2_index(perm[rows], perm[cols])
    assert len(at) == len(p2) and np.all(at >= 0)  # the copy's P2 is the base's, renumbered
    a_copy, p2_copy = carried(base, copy, perm, a), p2[at]
    want = carried(base, copy, perm, fd.lie_deriv_oneform_density(base, a, p2))
    assert_relative(fd.lie_deriv_oneform_density(copy, a_copy, p2_copy), want)
    # P reads the same four entries at each pair, so it keeps its bits.
    lp_copy, ld_copy = p2_copy[: len(copy.adj_i)], ld[perm]
    got = fd.proj_P(lp_copy, lp_copy[copy.adj_rev], ld_copy[copy.adj_i], ld_copy[copy.adj_j])
    want = fd.proj_P(lp, lp[base.adj_rev], ld[base.adj_i], ld[base.adj_j])
    np.testing.assert_array_equal(got, carried(base, copy, perm, want))
