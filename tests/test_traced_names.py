"""The benchmark's tracer (bench/tracer.py) wraps airframe functions by
name; a traced name that is renamed or deleted makes `bench/run.py
--trace 1` fail with KeyError, so each one must resolve."""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location(
        "tracer", os.path.join(ROOT, "bench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for _, _, targets in tracer.TRACED:
        for target in targets:
            # looked up the way Tracer.install looks it up
            modname, attr = target.split(":")
            mod = importlib.import_module("airframe." + modname)
            owner, _, meth = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            if not callable(getattr(holder, "__dict__", {}).get(meth)):
                missing.append(target)
    assert not missing
