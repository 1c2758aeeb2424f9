"""Direct pins for the solver's stopping rules.

``solver.FACE_ASCENT_STOP`` and Newton's 1e-14 convergence bound move only
the last bits of reports, so apart from these tests only the SHA-256 pin of
``sweep --t-max 7`` notices a change to them.  Here they are pinned by the
work they cause and by the residuals they leave, and the multistart route's
``solver.START_ASCENT_STOP`` by the work it causes on one general graph.
This file sorts before ``test_cli.py`` and ``test_solver.py``, so
``tests/mutants.py``, which stops at the first failing test, names these
tests rather than that pin.
"""

import pytest

from laglab import solver
from laglab.hypergraph import RGraph, enumerate_left_compressed
from laglab.solver import lagrangian, lagrangians
from laglab.verifier import cell_window, verify_cell
from oracles import climb_reference

# general7 of perfbench/general_graphs.json: 25 edges on [7], not left-compressed
GENERAL7 = ("123 124 134 125 135 235 245 345 136 236 146 246 346 156 256 356 456 "
            "137 147 347 257 357 457 167 467")


def test_face_ascent_and_newton_work_on_the_t8_window(monkeypatch):
    # over the t = 8 window, solved cell by cell, the face ascent takes
    # 10,417 row-steps up to each row's stop and Newton reads 1,389
    # gradient rows; with FACE_ASCENT_STOP at 1e-2 the ascent takes 1,497,
    # with Newton converged at 1e-12 Newton reads 1,293; climb_reference
    # replays each face climb step by step, to the same bits, and counts
    # its row-steps
    work, calls, inside = {"ascent": 0, "newton": 0}, [], []
    grad, climb, solve = solver._Rows.grad, solver._climb, solver._newton_rows

    def count_grad(block, x):
        if inside:
            work["newton"] += len(x)
        return grad(block, x)

    def spy_climb(kernel, rows, stop, iters):
        calls.append((kernel, rows, stop, iters, climb(kernel, rows, stop, iters)))
        return calls[-1][-1]

    def spy_newton(*args):
        inside.append(1)
        try:
            return solve(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(solver._Rows, "grad", count_grad)
    monkeypatch.setattr(solver, "_climb", spy_climb)
    monkeypatch.setattr(solver, "_newton_rows", spy_newton)
    for m in cell_window(8):
        verify_cell(8, m)
    for kernel, rows, stop, iters, ends in calls:
        want, steps = climb_reference(kernel, rows, stop, iters)
        assert ends.tobytes() == want.tobytes()
        work["ascent"] += int(steps.sum())
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


def test_multistart_ascent_work_on_general7(monkeypatch):
    # under the default seed, the 33 starts of GENERAL7 climb 9,540 of their
    # 9,900 row-steps up to each row's stop, the rows stopping at steps
    # 263 ... 300; with START_ASCENT_STOP at 1e-9 they climb 6,128 (steps
    # 156 ... 211), with ASCENT_ITERS at 100 they climb 3,300;
    # climb_reference replays the call step by step, to the same bits, and
    # counts them
    calls, climb = [], solver._climb

    def spy(kernel, rows, stop, iters):
        calls.append((kernel, rows, stop, iters, climb(kernel, rows, stop, iters)))
        return calls[-1][-1]

    monkeypatch.setattr(solver, "_climb", spy)
    lagrangian(RGraph.from_edges(3, [tuple(map(int, w)) for w in GENERAL7.split()]))
    (one, rows, stop, iters, ends), = [c for c in calls if isinstance(c[0], solver._OneGraphRows)]
    want, steps = climb_reference(one, rows, stop, iters)
    assert ends.tobytes() == want.tobytes()
    assert (steps.sum(), steps.min(), steps.max()) == (9_540, 263, 300)
