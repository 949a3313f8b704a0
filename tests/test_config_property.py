"""Every config the parser accepts ends ``decflow run`` with a documented
exit: 0 with finite diagnostics, 2 (config error) or 3 (run failed), and at
most one line on stderr."""

import contextlib
import csv
import io
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from decflow import cli_io as cli
from decflow import groups as gr

# Integer keys get ranges that keep a run small: generated meshes of at
# most (2 * 3 + 1) * 4 = 28 cells, and a few steps.
INT_RANGES = {
    "mesh.nx": (1, 3),
    "mesh.ny": (1, 4),
    "run.steps": (1, 3),
    "solver.newton_max": (1, 50),
    "solver.entropy_max": (1, 100),
    "output.snapshot_stride": (0, 3),
}
CHOICES = {"solver.tau": gr.KINDS, "initial.preset": cli.PRESETS, "heat.preset": cli.HEAT_PRESETS}
REQUIRED = ("mesh.nx", "mesh.ny", "mesh.lx", "mesh.ly", "run.h", "run.steps", "initial.preset")
# The mesh comes from the generator, and the output goes to a fresh directory.
SET_BY_THE_TEST = ("mesh.file", "output.directory")

# The float range each condition of CONFIG_KEYS admits, by its message.
FLOAT_RANGES = {
    None: (-1e300, 1e300),
    "must be positive": (1e-300, 1e300),
    "must be nonnegative": (0.0, 1e300),
    "must exceed 1": (1.0 + 2.0**-52, 1e300),
}


def _floats(lo, hi):
    """Floats in ``[lo, hi]``: Hypothesis' own, which favor the ends of the
    range, and log-uniform magnitudes (negative ones too when ``lo < 0``),
    clipped to it."""
    signs = (1.0, -1.0) if lo < 0 else (1.0,)
    spread = st.builds(
        lambda sign, m, e: min(max(sign * m * 10.0**e, lo), hi),
        st.sampled_from(signs),
        st.floats(1.0, 9.99),
        st.integers(-300, 299),
    )
    return st.one_of(st.floats(lo, hi), spread)


def _strategy(key):
    kind, _, check = cli.CONFIG_KEYS[key]
    if key in CHOICES:
        return st.sampled_from(CHOICES[key])
    if kind is bool:
        return st.booleans()
    if kind is int:
        return st.integers(*INT_RANGES[key])
    values = _floats(*FLOAT_RANGES[check and check[1]])
    # A generated mesh builds only for sides of moderate size and ratio.
    return st.one_of(st.floats(0.25, 4.0), values) if key in ("mesh.lx", "mesh.ly") else values


@st.composite
def configs(draw):
    """A config of the keys in ``REQUIRED`` and any others, each with an
    admissible value of its type."""
    given_keys = {}
    for key in cli.CONFIG_KEYS:
        if key in SET_BY_THE_TEST or (key not in REQUIRED and not draw(st.booleans())):
            continue
        given_keys[key] = draw(_strategy(key))
    if draw(st.booleans()):  # a ratio of sides that builds, at any size
        given_keys["mesh.ly"] = given_keys["mesh.lx"] * draw(st.floats(0.5, 2.0))
    return given_keys


def _text(cfg, outdir):
    lines = [f"{key} = {repr(v) if isinstance(v, float) else str(v).lower()}" for key, v in cfg.items()]
    return "\n".join(lines + [f"output.directory = {outdir}"]) + "\n"


# Each of these once ended with more than its one line: the series bound,
# the mesh check and the internal energy overflowed with a warning, and the
# energy residual of a step of 1e-300 was written as inf with exit 0.
ONE_CELL = {"mesh.nx": 1, "mesh.ny": 1, "mesh.lx": 1.0, "mesh.ly": 1.0}
ONE_CELL |= {"run.h": 1.0, "run.steps": 1, "initial.preset": "rest"}
TAYLOR65 = {"mesh.nx": 6, "mesh.ny": 5, "run.h": 1e-3, "run.steps": 5, "initial.preset": "taylor-like"}


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(cfg=configs())
@example(cfg=ONE_CELL | TAYLOR65 | {"gas.K": 1e300})
@example(cfg=ONE_CELL | {"mesh.ly": 1.34e161})
@example(cfg=ONE_CELL | {"initial.density": 1.34e154})
@example(cfg=ONE_CELL | {"mesh.nx": 3, "mesh.ny": 2, "run.h": 1e-300, "run.steps": 2, "gas.c_v": 1e300})
def test_every_accepted_config_ends_with_a_documented_exit(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path, outdir = os.path.join(tmp, "run.cfg"), os.path.join(tmp, "out")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_text(cfg, outdir))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["run", path])
        # a warning would print its message and the line that raised it
        lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
        assert code in (0, 2, 3)
        assert len(lines) <= 1, lines
        assert "Traceback" not in err.getvalue()
        if code == 0:
            with open(os.path.join(outdir, "diagnostics.csv"), encoding="utf-8") as fh:
                rows = list(csv.reader(fh))[1:]
            assert len(rows) == cfg["run.steps"] + 1
            assert all(math.isfinite(float(v)) for row in rows for v in row), rows
