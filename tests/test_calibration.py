"""Direct pins for the solver's stopping rules.

``solver.FACE_ASCENT_STOP`` and Newton's 1e-14 convergence bound move only
the last bits of reports, so apart from these tests only the SHA-256 pin of
``sweep --t-max 7`` notices a change to them.  Here they are pinned by the
work they cause and by the residuals they leave.  This file sorts before
``test_cli.py``, so ``tests/mutants.py``, which stops at the first failing
test, names these tests rather than that pin.
"""

import pytest

from laglab import solver
from laglab.hypergraph import enumerate_left_compressed
from laglab.solver import lagrangians
from laglab.verifier import cell_window, verify_cell


def test_face_ascent_and_newton_work_on_the_t8_window(monkeypatch):
    # over the t = 8 window, solved cell by cell, the face ascent takes
    # 10,417 row-steps (gradient rows inside _replicator_rows) and Newton
    # reads 1,389 gradient rows; with FACE_ASCENT_STOP at 1e-2 the ascent
    # takes 1,497, with Newton converged at 1e-12 Newton reads 1,293
    work, inside, grad = {"ascent": 0, "newton": 0}, [], solver._Rows.grad

    def count_grad(block, x):
        if inside:
            work[inside[-1]] += len(x)
        return grad(block, x)

    def counted(name, fn):
        def spy(*args):
            inside.append(name)
            try:
                return fn(*args)
            finally:
                inside.pop()
        return spy

    monkeypatch.setattr(solver._Rows, "grad", count_grad)
    monkeypatch.setattr(solver, "_replicator_rows", counted("ascent", solver._replicator_rows))
    monkeypatch.setattr(solver, "_newton_rows", counted("newton", solver._newton_rows))
    for m in cell_window(8):
        verify_cell(8, m)
    assert work == {"ascent": 10_417, "newton": 1_389}


@pytest.mark.parametrize("t", [4, 5, 6, 7, 8])
def test_certified_residuals_stay_far_below_kkt_tol(t):
    # Newton runs each solved row to a residual below 1e-14: the largest
    # residual of a certified result on the t <= 8 windows is 1.02e-14, and
    # 5.8e-13 with Newton converged at 1e-12
    graphs = [g for m in cell_window(t) for g in enumerate_left_compressed(t, m)]
    results = lagrangians(graphs)
    assert all(res.certified for res in results)
    assert max(res.kkt_residual for res in results) <= 1e-13
