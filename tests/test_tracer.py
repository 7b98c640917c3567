import importlib.util
import os

from flagalg import _linalg as la
from flagalg import galgebra as ga

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                      "tracer.py")


def test_perfbench_tracer_wraps_and_restores():
    # the tracer wraps names of src/ by name; a renamed or deleted one
    # fails here rather than at the next traced benchmark run
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = (ga.hom_dims, ga.GradedAlgebra.mul_vec, la.mod_rref)
    tr = tracer.Tracer().install()
    try:
        assert ga.hom_dims is not before[0]
        A = ga.GradedAlgebra(5, [0, 1], [(0, 0, 0, 1), (0, 1, 1, 1),
                                         (1, 0, 1, 1)], {0: 1})
        reg = ga.regular_module(A)
        assert ga.hom_dims(reg, reg) == {0: 1, 1: 1}
        metrics = tr.metrics()
        assert metrics["galgebra.hom_dims.calls"] == 1
        assert metrics["galgebra.module_presentation.calls"] == 1
    finally:
        tr.uninstall()
    assert (ga.hom_dims, ga.GradedAlgebra.mul_vec, la.mod_rref) == before
