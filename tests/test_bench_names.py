"""The benchmark's tracer wraps ``decflow`` functions by attribute name.

``perfbench/instruments.py`` patches every name in ``LAYERS`` and the check
registries in ``CHECK_REGISTRIES``; a renamed function would break a traced
run (``perfbench/run.py --trace 1``).  This test fails first.
"""

import importlib
import importlib.util
import pathlib

INSTRUMENTS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "instruments.py"


def load_instruments():
    spec = importlib.util.spec_from_file_location("perfbench_instruments", INSTRUMENTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    inst = load_instruments()
    missing = []
    for layer, names in inst.LAYERS.items():
        module = importlib.import_module(f"decflow.{layer}")
        for dotted in names:
            owner = module
            for part in dotted.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"decflow.{layer}.{dotted}")
    verify = importlib.import_module("decflow.verify")
    missing += [f"decflow.verify.{name}" for name in inst.CHECK_REGISTRIES if not hasattr(verify, name)]
    assert not missing
