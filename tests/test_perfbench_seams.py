"""The benchmark's traced mode wraps module attributes of laglab by name;
every one of them must exist, or ``perfbench/run.py --trace 1`` fails."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_layer_patch_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    patches = workloads.layer_patches()
    assert len(patches) >= 16
    for module, attr, span, *_ in patches:
        assert hasattr(module, attr), f"{module.__name__}.{attr} ({span})"
