"""Every name the traced benchmark wraps still exists where it is looked up.

`perfbench/layers.py` wraps each target with `vars(owner)[attr]`, so a
renamed or retired function would only show up as a crashed traced run.
This test reads the same table and fails first.
"""
import importlib.util
import inspect
from pathlib import Path

import arnold
import arnold.cli  # noqa: F401  (cli targets are looked up on arnold.cli)

_LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
_spec = importlib.util.spec_from_file_location("perfbench_layers", _LAYERS)
layers = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(layers)

TARGETS = [(module, attr) for module, attr, _group in layers.CALLS] + [
    tuple(name.rsplit(".", 1)) for name in (layers.GEN_TREES, layers.WINDOWS)
]


def test_every_wrapped_name_is_defined_on_its_owner():
    missing = [
        f"{module}.{attr}"
        for module, attr in TARGETS
        if attr not in vars(layers._owner(arnold, module))
    ]
    assert missing == []


def test_generator_targets_are_generator_functions():
    # wrap_generator calls `next` on what these return, so a list or tuple
    # would only show up as a crashed traced run
    for name in (layers.GEN_TREES, layers.WINDOWS):
        module, attr = name.rsplit(".", 1)
        assert inspect.isgeneratorfunction(vars(layers._owner(arnold, module))[attr]), name
