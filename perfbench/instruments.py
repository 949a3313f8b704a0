"""Timers the benchmark installs around ``decflow`` functions.

Nothing here edits the program: every instrument replaces a module or class
attribute with a wrapper that calls the original, so it sees exactly the
calls that go through that attribute.

* :class:`Stamps` (always on) times the top-level boundaries the end-to-end
  metrics need: each ``VariationalStepper.step`` call, ``verify.mesh_corpus``
  and each identity-check evaluation.
* :class:`Spans` (traced runs only) records one span per call of every
  function in :data:`LAYERS`, with its parent, kept in memory and saved when
  the repetition ends.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

#: Spanned functions per layer.  ``Class.method`` names a method; the
#: integrator's ``lu_factor``/``lu_solve`` are the SciPy names bound in
#: ``decflow.integrator``.  The verify checks are added by
#: :func:`Spans.install` from ``FIELD_CHECKS`` and ``GROUP_CHECKS``.
LAYERS = {
    "mesh": ("load_mesh", "generate_rect_mesh", "jitter_mesh", "compute_geometry"),
    "fields": (
        "flat",
        "total_vorticity",
        "proj_P",
        "d0",
        "pair_mean",
        "group_act_den",
        "init_from_velocity",
        "reconstruct_velocity",
    ),
    "groups": ("dtau_inv_star", "dtau_inv", "commutator", "tau"),
    "physics": (
        "variational_derivatives",
        "viscous_force",
        "entropy_flux",
        "friction_power",
        "temperature",
    ),
    "integrator": (
        "VariationalStepper.step",
        "FluxLayout.to_matrix",
        "lu_factor",
        "lu_solve",
    ),
    "diagnostics": ("sample", "energy_residual"),
    "cli_io": ("load_config", "build_geometry", "initial_condition_presets", "export_vtk"),
    "verify": ("mesh_corpus", "run_suite"),
}

#: Registries of ``(name, tol, fn)`` whose entries are spanned one by one
#: and rolled up under the registry's span name.
CHECK_REGISTRIES = {"FIELD_CHECKS": "field_checks", "GROUP_CHECKS": "group_checks"}


class SetupDone(BaseException):
    """Raised at the first step (or after the verify corpus) in a set-up-only
    repetition; derives from ``BaseException`` so no handler in the program
    swallows it."""


def _module(layer: str):
    return importlib.import_module(f"decflow.{layer}")


def _patch(layer: str, dotted: str, make_wrapper) -> None:
    owner = _module(layer)
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    setattr(owner, attr, make_wrapper(getattr(owner, attr)))


def _wrap_checks(registry, make_wrapper):
    return tuple((name, tol, make_wrapper(fn)) for name, tol, fn in registry)


class Stamps:
    """``perf_counter`` pairs at the boundaries the end-to-end metrics use."""

    def __init__(self, setup_only: bool = False):
        self.setup_only = setup_only
        self.steps: list = []
        self.corpus: list = []
        self.checks: list = []

    def _timed(self, sink, stop_at_start=False, stop_after=False):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                if stop_at_start:
                    sink.append((start, start))
                    raise SetupDone
                out = fn(*args, **kwargs)
                sink.append((start, time.perf_counter()))
                if stop_after:
                    raise SetupDone
                return out

            return wrapper

        return make

    def install(self) -> None:
        _patch(
            "integrator",
            "VariationalStepper.step",
            self._timed(self.steps, stop_at_start=self.setup_only),
        )
        _patch("verify", "mesh_corpus", self._timed(self.corpus, stop_after=self.setup_only))
        vf = _module("verify")
        for registry in CHECK_REGISTRIES:
            setattr(vf, registry, _wrap_checks(getattr(vf, registry), self._timed(self.checks)))

    def as_dict(self) -> dict:
        return {"steps": self.steps, "corpus": self.corpus, "checks": self.checks}


class Spans:
    """Call spans ``(name, parent, start, end)`` for every function in
    :data:`LAYERS`; a span's parent is the innermost span open when it
    started (-1 at the top)."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self._rows: list = []  # [name_id, parent, start, end]
        self._stack: list = []

    def _spanned(self, name: str):
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        rows, stack = self._rows, self._stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                row = [name_id, stack[-1] if stack else -1, time.perf_counter(), 0.0]
                stack.append(len(rows))
                rows.append(row)
                try:
                    return fn(*args, **kwargs)
                finally:
                    stack.pop()
                    row[3] = time.perf_counter()

            return wrapper

        return make

    def install(self) -> None:
        for layer, functions in LAYERS.items():
            for dotted in functions:
                _patch(layer, dotted, self._spanned(f"{layer}.{dotted}"))
        vf = _module("verify")
        for registry, rollup in CHECK_REGISTRIES.items():
            setattr(vf, registry, _wrap_checks(getattr(vf, registry), self._spanned(f"verify.{rollup}")))

    def save(self, path: str) -> None:
        rows = np.array(self._rows, dtype=float).reshape(-1, 4)
        np.savez(
            path,
            name=rows[:, 0].astype(np.int64),
            parent=rows[:, 1].astype(np.int64),
            start=rows[:, 2],
            end=rows[:, 3],
        )
