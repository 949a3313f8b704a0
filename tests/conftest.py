"""Shared fixtures: small meshes with hand-checkable geometry."""

import numpy as np
import pytest

from decflow import mesh as msh

ROOT3 = np.sqrt(3.0)


@pytest.fixture(scope="session")
def rhombus():
    """Two equilateral triangles glued along the edge (0,0)-(1,0).

    Every geometric quantity of this mesh is known in closed form, so it
    anchors the frozen-value tests: cell areas sqrt(3)/4, circumcenter
    distance sqrt(3)/3, shared primal edge length 1.
    """
    text = "\n".join(
        [
            "4 2",
            "0 0",
            "1 0",
            f"0.5 {float(ROOT3 / 2.0)!r}",
            f"0.5 {float(-ROOT3 / 2.0)!r}",
            "0 1 2",
            "1 0 3",
        ]
    )
    return msh.compute_geometry(msh.load_mesh(text))


@pytest.fixture(scope="session")
def gen65():
    """65-cell structured strip on the unit square (6 columns, 5 rows)."""
    return msh.compute_geometry(msh.generate_rect_mesh(6, 5, 1.0, 1.0))


@pytest.fixture(scope="session")
def small43():
    """27-cell mesh, big enough to have interior nodes but quick to build."""
    return msh.compute_geometry(msh.generate_rect_mesh(4, 3, 1.0, 1.0))


@pytest.fixture(scope="session")
def jittered():
    """Irregular 27-cell mesh so tests do not rely on structured symmetry."""
    rng = np.random.default_rng(7)
    mesh = msh.jitter_mesh(msh.generate_rect_mesh(4, 3, 1.0, 1.0), 0.18, rng)
    return msh.compute_geometry(mesh)


@pytest.fixture(scope="session")
def jittered65():
    """Irregular 65-cell mesh (the 6x5 strip with moved interior nodes)."""
    rng = np.random.default_rng(7)
    mesh = msh.jitter_mesh(msh.generate_rect_mesh(6, 5, 1.0, 1.0), 0.15, rng)
    return msh.compute_geometry(mesh)


@pytest.fixture
def rng():
    return np.random.default_rng(42)
