"""The benchmark's tracer binds every target it times: a deleted or renamed
traced function fails here, in the unit suite, not only in the benchmark."""
import pathlib

import numpy as np

import covertsim.experiments  # noqa: F401  (imports every traced module)
from covertsim import acquire, adversary as adv, oracles
from covertsim import boolfunc as bf

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


def test_delivered_copies_probe_reads_the_output_block(monkeypatch):
    # the traced benchmark counts len(result.output) if result.output else 0:
    # m on an accepted acquisition, 0 on a rejected one
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    f = bf.random_truth_table(3, np.random.default_rng(80))

    def unidirectional(strategy):
        oracle = oracles.QuantumChannelOracle(f, "QPh", strategy)
        return acquire.acquire_unidirectional(oracle, oracles.MemOracle(f), 4, 0.1, 0.1,
                                              np.random.default_rng(81), n_blocks=5)

    def ancilla_free(strategy):
        oracle = oracles.QuantumChannelOracle(f, "QPh", strategy)
        return acquire.acquire_ancilla_free(oracle, oracles.MemOracle(f), 2, 0.2, 0.1, 1.0,
                                            np.random.default_rng(82), n_blocks=30)

    for name, run, attack, m in (
            ("acquire.acquire_unidirectional", unidirectional, adv.replace_zero(), 4),
            ("acquire.acquire_ancilla_free", ancilla_free, adv.ancilla_free(1.0), 2)):
        probe = tracer.PROBES[name]
        accepted, rejected = run(None), run(attack)
        assert accepted.accepted and not rejected.accepted and rejected.output is None
        assert probe((), {}, accepted) == ("acquire.delivered", m)
        assert probe((), {}, rejected) == ("acquire.delivered", 0)
