"""A dense view of module actions for tests: flagalg keeps a module's
action only as live rows (RightModule.keys, RightModule.rows), and the
references here compare or build the (dim A, dim M, dim M) stack whose
a-th matrix sends coords(x) to coords(x e_a)."""

import numpy as np

from flagalg import galgebra as ga


def _dense(M):
    """The action of M as one (dim A, dim M, dim M) int64 stack."""
    stack = np.zeros((M.algebra.dim * M.dim, M.dim), dtype=np.int64)
    stack[M.keys] = M.rows
    return stack.reshape(M.algebra.dim, M.dim, M.dim)


def _from_dense(A, degrees, stack):
    """The RightModule over A with the given degrees and action stack."""
    flat = np.mod(np.asarray(stack, dtype=np.int64), A.p).reshape(
        -1, len(degrees))
    keys = np.flatnonzero(flat.any(axis=1))
    return ga.RightModule(A, list(degrees), keys, flat[keys])
