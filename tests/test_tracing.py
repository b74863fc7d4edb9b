"""perfbench/tracing.py wraps package names from outside the package, so a
renamed or removed name must fail here, not only in a traced benchmark
run."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from strongdamp.fields import load_preset
from strongdamp.sde import NoisePath, default_step

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for entry in module.FUNCTIONS + module.METHODS:
        importlib.import_module(f"{module.PKG}.{entry[0]}")
    return module


def test_tracer_wraps_every_name_and_restores_it():
    tracing = load_tracing()
    sde = sys.modules["strongdamp.sde"]
    raw_batch = NoisePath.__dict__["generate_batch"]
    raw_simulate = sde.simulate_inertial
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert NoisePath.__dict__["generate_batch"] is not raw_batch
        assert sde.simulate_inertial is not raw_simulate
        NoisePath.generate_batch(0, range(3), 4, 1, 0.1)
    finally:
        tracer.uninstall()
    assert NoisePath.__dict__["generate_batch"] is raw_batch
    assert sde.simulate_inertial is raw_simulate
    names = tracer.spans()["name"]
    assert [tracer.names[i] for i in names] == \
        ["sde.NoisePath.generate_batch"]


def test_tracer_counts_read_the_step_rule_and_the_default_ladder():
    """_exit_counts reads exit.default_step and _at_cap reads
    quasipotential.DEFAULT_LADDER."""
    tracing = load_tracing()
    p, eps = load_preset("p1"), 0.5
    h = default_step(p, eps)
    stats = SimpleNamespace(eps=eps, taus=np.array([2.5 * h, 0.5 * h]),
                            timeouts=0)
    assert tracing._exit_counts((p,), {}, SimpleNamespace(stats=[stats])) \
        == (4, 3, 0)
    top = sys.modules["strongdamp.quasipotential"].DEFAULT_LADDER[1]
    assert tracing._at_cap((), {}, SimpleNamespace(T_star=top)) == (1,)
    assert tracing._at_cap((), {}, SimpleNamespace(T_star=top / 2)) == (0,)
