"""The benchmark's tracer binds every target it times: a deleted or renamed
traced function fails here, in the unit suite, not only in the benchmark."""
import pathlib

import covertsim.experiments  # noqa: F401  (imports every traced module)

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    t = tracer.Tracer()  # KeyError on a target that no longer exists
    sites = [(owner, attr, original) for owner, attr, original, _ in t._sites]
    t.install()  # BindingMissed on a binding the tracer cannot patch
    try:
        assert all(hasattr(getattr(owner, attr), "__wrapped__") for owner, attr, _ in sites)
    finally:
        t.uninstall()
    assert all(getattr(owner, attr) is original for owner, attr, original in sites)
