"""perfbench's traced run wraps finedrop functions by name and reads
`SgdOptimizer.groups`; a refactor that breaks either fails here, not only
under `perfbench/run.py --trace 1`. The module is read, never changed."""

import importlib
import importlib.util
import os

from finedrop.models import new_residual_model
from finedrop.optim import SgdOptimizer


def _tracing():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_resolves():
    # the lookups `Tracer.install` makes: a class's own method, or a module attribute
    for span, module_name, attr, _ in _tracing().TARGETS:
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert callable(vars(getattr(module, cls_name)).get(method)), span
        else:
            assert callable(getattr(module, attr, None)), span


def test_step_element_count_is_the_model_vector():
    model = new_residual_model(5, 8, 2, 3, seed=0)
    for groups in ({"trunk": model.trunk_parameters(), "head": model.head_parameters()},
                   {"head": model.head_parameters(), "trunk": model.trunk_parameters()}):
        opt = SgdOptimizer(groups, lr=0.1, total_iterations=10)
        assert _tracing()._count_step((opt,), {}, None) == (model.params.size,)
