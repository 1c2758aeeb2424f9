"""Constant mutation scan: the first tier-1 test that fails when one solver
or verdict constant is changed.

    python3 tests/mutants.py
    python3 tests/mutants.py SUPPORT_BUDGET TIE_TOL

For each mutant of ``MUTANTS`` (or only those whose name is given), copies
``src/`` to a temporary directory, replaces the mutant's text in that copy
(it must occur there exactly once), and runs tier-1 on the copy with ``-x``.
Prints one line per mutant: its name, the changed text, and the first failing
test or ``SURVIVED``, then a last line "N killed, M survived"; exits 1 when
any mutant survived.  The first failing test need not be the only one that
notices the mutant.  A surviving mutant runs the whole of tier-1, so the
full list takes about 10 min on two cores.  The scan is not part of tier-1
and changes no file of the repository.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def const(name: str, file: str, value: str, mutant: str) -> tuple[str, str, str, str]:
    """A module-level constant ``name = value`` changed to ``mutant``."""
    return name, file, f"\n{name} = {value}", f"\n{name} = {mutant}"


MUTANTS = [  # (name, file under src/laglab, text, replacement)
    const("SUPPORT_BUDGET", "solver.py", "20_000", "2_000"),
    const("SUPPORT_BUDGET", "solver.py", "20_000", "40_000"),
    const("TIE_TOL", "solver.py", "1e-9", "1e-12"),
    const("TIE_TOL", "solver.py", "1e-9", "1e-6"),
    const("KKT_TOL", "solver.py", "1e-8", "1e-5"),
    const("KKT_TOL", "solver.py", "1e-8", "1e-15"),
    const("POSITIVE_EPS", "solver.py", "1e-10", "1e-8"),
    const("POSITIVE_EPS", "solver.py", "1e-10", "1e-13"),
    const("CROSS_CHECK_MAX_ACTIVE", "solver.py", "6", "0"),
    const("NEWTON_ITERS", "solver.py", "60", "20"),
    const("STARTS", "solver.py", "32", "4"),
    const("STARTS", "solver.py", "32", "128"),
    const("ASCENT_ITERS", "solver.py", "300", "100"),
    const("FACE_ASCENT_ITERS", "solver.py", "30", "100"),
    const("FACE_ASCENT_STOP", "solver.py", "1e-4", "1e-2"),
    const("START_ASCENT_STOP", "solver.py", "1e-13", "1e-9"),
    const("CHUNK_ROWS", "solver.py", "256", "7"),
    ("cross-check tolerance", "solver.py",
     "abs(value - res.value) > 1e-8", "abs(value - res.value) > 1e-5"),
    ("peel depth", "solver.py",
     "range(min(3, len(base)))", "range(min(2, len(base)))"),
    ("support cut", "solver.py", "x > 1e-9", "x > 1e-12"),
    ("Newton convergence", "solver.py", ")) < 1e-14", ")) < 1e-12"),
    ("Newton step bound", "solver.py", ".min(axis=1) >= -1e-9", ".min(axis=1) >= 0"),
    ("Newton step bound", "solver.py", ".min(axis=1) >= -1e-9", ".min(axis=1) >= -1e-6"),
    ("climb end", "solver.py",  # a row ends at its state before its stopping step
     "np.where(np.isnan(after), before, after)", "np.where(np.isnan(after), before, before)"),
    ("climb zero value", "solver.py",  # a row whose value is zero ends NaN
     "np.where(np.isnan(after), before, after)", "after"),
    ("row key", "solver.py",  # every pair keyed by its edges up to the face's top vertex
     "masks.sum(axis=1)[face] <= top[face]", "masks.sum(axis=1)[face] < 0"),
    const("CELL_BLOCK", "verifier.py", "1024", "3"),
    const("INEQ_TOL", "verifier.py", "1e-7", "1e-12"),
    const("INEQ_TOL", "verifier.py", "1e-7", "1e-4"),
    ("settle margin", "verifier.py",
     "solved[cell.colex][1].value - TIE_TOL", "solved[cell.colex][1].value + 1e-6"),
    ("settle uncertified", "verifier.py", "res.certified and res.value <", "res.value <"),
]


def first_failure(name: str, file: str, text: str, mutant: str) -> str:
    """Tier-1 on a copy of ``src/`` with ``text`` replaced by ``mutant``: the
    first failing test's id, or ``SURVIVED``."""
    with tempfile.TemporaryDirectory(prefix="laglab-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "laglab" / file
        code = path.read_text()
        if code.count(text) != 1:
            raise SystemExit(f"{name}: {text.strip()!r} occurs {code.count(text)} times in {file}")
        path.write_text(code.replace(text, mutant))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return "SURVIVED"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.MULTILINE)
    return failed.group(1) if failed else f"pytest exited {proc.returncode}"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    if not chosen:
        raise SystemExit(f"no mutant named {' or '.join(argv)}")
    survived = 0
    for name, file, text, mutant in chosen:
        outcome = first_failure(name, file, text, mutant)
        survived += outcome == "SURVIVED"
        print(f"{name}: {mutant.strip()}: {outcome}", flush=True)
    print(f"{len(chosen) - survived} killed, {survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
