"""Golden records: fixed-seed outputs that a refactor must reproduce byte for
byte.

Each digest is the SHA-256 of canonical JSON (plus raw amplitudes for
acquired states). A change that deliberately alters RNG consumption or the
records updates the digests in the same change and says so in CHANGES.md;
a refactor never does.
"""
import dataclasses
import hashlib
import json
import pathlib

import numpy as np
import pytest

from covertsim import acquire, adversary as adv
from covertsim import boolfunc as bf
from covertsim import experiments as exp
from covertsim import covertsq, oracles, qsim

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"
TRIALS = 5

# first TRIALS records of every shipped config, run with the config's seed
RECORD_DIGESTS = {
    "acquire-af-leak":
        "0253096c5500c726d0cef2077dd4664b27ac95927de62824db27c07412f6840d",
    "acquire-uni-honest":
        "9bfaa2f47990f2a9c378d53b51b2be4d4381167a8aff0f18c029e359e30d389d",
    "acquire-uni-replace":
        "9eb2b92d0a41259aa5d9bccfa5f3fbb7ace812ba7e519b6d956b2c9988e7daf5",
    "certify":
        "ea62d088b73ac6a28bf4f855f06c6096ca91f55fe5b8c939e4046b406b8a6d24",
    "covert-sq":
        "b8d85c45ff1ae1b7f10ea78c3d2ef44048d9d61ad25c86371d0c1d029258bf80",
    "forrelation":
        "b56284a21e739f6d76d5787c1cf28cb21ed4285365816ca06d704d2dd373674c",
    "nogo-swap":
        "fa18a93abbdbab42c52e543b717505e5a50fe7499d690c5b367ddf242ab506d9",
    "parity":
        "8fc86f5b2407bac6aeb176954886d89f4b891e942e3234bede9096600af0986a",
    "quadratic":
        "248acfe2846edf7f99a1e52bc2abc5a8d75deed6a0496085bfb12073b9ac2e2c",
    "shadows-qsq":
        "27c98c6594ece7d67d50ab7d771abf6590fa635ae8e35a884dbcbe866aeac885",
    "simon":
        "667e02e349132e58f7c2655a7049c91e731f87e1cc863d2383cf8c837a690463",
}

# one nogo-swap trial that steals a 12-qubit register, a size whose density
# matrix the attack once formed (4096 x 4096); taken on the amplitude form
SWAP_12_QUBIT_DIGEST = (
    "765b61fa6c5ec934ee9cf49f87bae3d8cbbfac6f3d1eaf60cc21a066a6f58f05")


# first TRIALS records of task paths no shipped config reaches: the
# forrelation decision over copies that differ from copy 0 (a depolarizing
# tap), and the ancilla-free deliveries of forrelation and simon
TASK_CASES = {
    "forrelation-n2-depolarize": (
        {"scenario": "forrelation", "params": {"n": 2},
         "adversary": {"kind": "depolarize", "p": 0.01}, "seed": 3101},
        "a0329730a4e9c62926e5643b9aa94b411b9a29c7b4bd1627cfb8723b30182474",
    ),
    "forrelation-n2-ancilla-free": (
        {"scenario": "forrelation", "params": {"n": 2, "ancilla_free": True, "delta_leak": 0.05},
         "adversary": {"kind": "ancilla_free", "delta_leak": 0.05}, "seed": 3102},
        "65dac306b1427649600e8fe08fcf0961d3651890e86edc29ce8a4839e10cad82",
    ),
    "simon-n2-ancilla-free": (
        {"scenario": "simon", "params": {"n": 2, "ancilla_free": True}, "seed": 3103},
        "a78997196a9de7b02a60b57c0b62ec5a61bcc128ca593b97559683b83f286e6b",
    ),
}


def records_digest(name: str) -> str:
    return spec_digest(json.loads((CONFIG_DIR / f"{name}.json").read_text()))


def spec_digest(spec: dict) -> str:
    cfg = exp.ExperimentConfig.from_dict(spec)
    records = [exp.run_trial(cfg, i) for i in range(TRIALS)]
    blob = json.dumps(records, sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()


def results_digest(results) -> str:
    """Every AcquisitionResult field; output copies by their raw amplitudes."""
    h = hashlib.sha256()
    for res in results:
        fields = {
            "accepted": res.accepted,
            "outputs": None if res.output is None else len(res.output),
            "record": dataclasses.asdict(res.record),
            "pub_queries": res.pub_queries,
            "pri_queries": res.pri_queries,
            "blocks_used": res.blocks_used,
            "paper_blocks": res.paper_blocks,
        }
        h.update(json.dumps(fields, sort_keys=True, default=float).encode())
        for copy in res.output or ():
            h.update(copy.vec.tobytes())
    return h.hexdigest()


# acquisition paths no shipped config reaches; seeds and sizes as in
# test_acquire.py


def _qmem_unidirectional():
    rng = np.random.default_rng(17)
    n = 2
    f = bf.random_simon_fn(n, 0b11, rng)
    return [acquire.acquire_unidirectional(
        oracles.QuantumChannelOracle(f, "QMem"), oracles.MemOracle(f), 1, 0.1, 0.1, rng,
        n_blocks=15,
    )]


def _qmem_ancilla_free_honest():
    rng = np.random.default_rng(18)
    n, w = 2, 1
    f = bf.random_truth_table(n, rng, w=w)
    return [acquire.acquire_ancilla_free(
        oracles.QuantumChannelOracle(f, "QMem"), oracles.MemOracle(f), 1, 0.2, 0.1, 0.5, rng,
        n_blocks=30,
    )]


def _qmem_ancilla_free_leaky():
    rng = np.random.default_rng(19)
    n, w = 2, 1
    f = bf.random_truth_table(n, rng, w=w)
    return [
        acquire.acquire_ancilla_free(
            oracles.QuantumChannelOracle(f, "QMem", adv.ancilla_free(1.0)), oracles.MemOracle(f),
            1, 0.1, 0.1, 1.0, np.random.default_rng(950 + t), n_blocks=40,
        )
        for t in range(20)
    ]


def _phase_entangled_mode():
    rng = np.random.default_rng(8)
    n, m = 2, 2
    f = bf.random_truth_table(n, rng)
    return [acquire.acquire_unidirectional(
        oracles.QuantumChannelOracle(f, "QPh"), oracles.MemOracle(f), m, 0.1, 0.1, rng,
        mode=acquire.ENTANGLED,
    )]


def _phase_tapped(strategy, seed):
    """Ten unidirectional phase-state acquisitions through one tap kind."""
    rng = np.random.default_rng(seed)
    n = 3
    f = bf.random_truth_table(n, rng)
    return [
        acquire.acquire_unidirectional(
            oracles.QuantumChannelOracle(f, "QPh", strategy), oracles.MemOracle(f), 1, 0.1, 0.1,
            np.random.default_rng(seed * 100 + t), n_blocks=20,
        )
        for t in range(10)
    ]


# tapped blocks of several copies: every shipped acquisition config runs
# blocks of one copy, or the identity tap


def _phase_tapped_blocks(strategy, mode, seed):
    """Ten unidirectional acquisitions of three-copy phase-state blocks
    through one tap kind, in one masking mode."""
    rng = np.random.default_rng(seed)
    n = 3
    f = bf.random_truth_table(n, rng)
    return [
        acquire.acquire_unidirectional(
            oracles.QuantumChannelOracle(f, "QPh", strategy), oracles.MemOracle(f), 3, 0.1, 0.1,
            np.random.default_rng(seed * 100 + t), n_blocks=20, mode=mode,
        )
        for t in range(10)
    ]


def _phase_swap_attack_blocks():
    """Ten randomness-masked unidirectional acquisitions of three-copy
    blocks of a parity's phase state, each through a fresh swap attack."""
    n = 3
    f = bf.parity_fn(0b101, n)
    return [
        acquire.acquire_unidirectional(
            oracles.QuantumChannelOracle(f, "QPh", adv.swap_attack()), oracles.MemOracle(f),
            3, 0.1, 0.1,
            np.random.default_rng(2800 + t), n_blocks=20,
        )
        for t in range(10)
    ]


def _ancilla_free_blocks(delta_leak, seed):
    """Ten ancilla-free acquisitions of two-copy blocks through a measuring
    ancilla-free tap that leaks at `delta_leak`."""
    rng = np.random.default_rng(seed)
    n = 2
    f = bf.random_truth_table(n, rng)
    return [
        acquire.acquire_ancilla_free(
            oracles.QuantumChannelOracle(f, "QPh", adv.ancilla_free(delta_leak)),
            oracles.MemOracle(f),
            2, 0.2, 0.1, delta_leak, np.random.default_rng(seed * 100 + t), n_blocks=30,
        )
        for t in range(10)
    ]


ACQUISITION_CASES = {
    "qmem-unidirectional": (
        _qmem_unidirectional,
        "ec24adc4bf63d547be7526bcc82dc12eab0c234ea23b1736b4098c322b93b676",
    ),
    "qmem-ancilla-free-honest": (
        _qmem_ancilla_free_honest,
        "638694699b4dc0b804edc074aa65566937f6c4659a4cbec4c7f4163834d2ae58",
    ),
    "qmem-ancilla-free-leaky": (
        _qmem_ancilla_free_leaky,
        "b804ccd46f56bd65a255a8cc61aec71273da2a00be995ac70e012af09e761eaf",
    ),
    "phase-entangled-mode": (
        _phase_entangled_mode,
        "5bc467bba526f11c23c3d47f2021924e7b43ee5c5c320eae6739db1fc50a3c2c",
    ),
    "phase-depolarize": (
        lambda: _phase_tapped(adv.depolarize(0.5), 21),
        "2352e5d439052d201136921ff5baf1224555f38bbe909b51b3d2b46ba01b67b3",
    ),
    "phase-measure-z": (
        lambda: _phase_tapped(adv.measure_z(), 22),
        "bab094b73b9f3bb1b1e0f4c1019a4245e7e2a8c0a4a035e61624f1a7c4bda420",
    ),
    "phase-m3-depolarize-randomness": (
        lambda: _phase_tapped_blocks(adv.depolarize(0.05), acquire.RANDOMNESS, 41),
        "a0c00b04ad061267e29a69544d448fbfec2d4f4dd8ad837ec0d8c4570c3a9942",
    ),
    "phase-m3-depolarize-entangled": (
        lambda: _phase_tapped_blocks(adv.depolarize(0.05), acquire.ENTANGLED, 51),
        "dafa12ed0c2a4f59c68e07ad349391e6bb59b094c1cb76b2ec46c5671bd65e52",
    ),
    "phase-m3-measure-z-randomness": (
        lambda: _phase_tapped_blocks(adv.measure_z(), acquire.RANDOMNESS, 42),
        "6b0771426598b8f5d4ee07354aa58713111598c2f0db43fa187ddb3d094076ba",
    ),
    "phase-m3-measure-z-entangled": (
        lambda: _phase_tapped_blocks(adv.measure_z(), acquire.ENTANGLED, 52),
        "8452cf050f8fb0506ad2312fca962ac0d999531657c96ea890ec4e8105725a70",
    ),
    "phase-m3-replace-zero-randomness": (
        lambda: _phase_tapped_blocks(adv.replace_zero(), acquire.RANDOMNESS, 43),
        "727148f8fc4161eb27d0bb652e970d6192bf195599190fa97d4d35f37e0e8b42",
    ),
    "phase-m3-replace-zero-entangled": (
        lambda: _phase_tapped_blocks(adv.replace_zero(), acquire.ENTANGLED, 53),
        "27dc1f4a189b386964d2a1aeeebaca89f68a07fce2941e79c0084aec354090d7",
    ),
    "phase-m3-swap-attack-randomness": (
        _phase_swap_attack_blocks,
        "e0f9ffa41989fd7d4e44cb49d373deed1a98a3e14cf8a38679a5f9b18191717d",
    ),
    "phase-af-m2-leak-0.05": (
        lambda: _ancilla_free_blocks(0.05, 61),
        "36e0937a55cb2815e57a36e4095c4eb4d3aa74f4848203d3464d81462b728948",
    ),
    "phase-af-m2-leak-0.5": (
        lambda: _ancilla_free_blocks(0.5, 62),
        "f000217307ac5cc3269b5bdd863dcfe51ea4a6564dd4562ba77c24ffd04750ff",
    ),
}


def at_memo_bounds(names):
    """Each name at the default memo bound, under its own id, and at bound
    0 (`-memo-0`), where every adversary.BoundedMemo keeps nothing: no memo
    changes a byte of the records."""
    names = sorted(names)
    return pytest.mark.parametrize(
        "name, memo_bound",
        [(n, adv.MEASUREMENT_MEMO_BYTES) for n in names] + [(n, 0) for n in names],
        ids=names + [f"{n}-memo-0" for n in names])


def test_every_shipped_config_has_a_digest():
    assert sorted(p.stem for p in CONFIG_DIR.glob("*.json")) == sorted(RECORD_DIGESTS)


@at_memo_bounds(RECORD_DIGESTS)
def test_config_records(name, memo_bound, monkeypatch):
    monkeypatch.setattr(adv, "MEASUREMENT_MEMO_BYTES", memo_bound)
    got = records_digest(name)
    assert got == RECORD_DIGESTS[name], (
        f"golden records of configs/{name}.json changed; new digest {got}"
    )


@at_memo_bounds(TASK_CASES)
def test_task_records(name, memo_bound, monkeypatch):
    monkeypatch.setattr(adv, "MEASUREMENT_MEMO_BYTES", memo_bound)
    spec, want = TASK_CASES[name]
    got = spec_digest(spec)
    assert got == want, f"golden task records {name!r} changed; new digest {got}"


def test_swap_attack_forms_no_density_matrix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the swap attack formed a density matrix")

    for owner, name in ((qsim, "partial_trace"), (qsim, "schmidt_rank"), (np.linalg, "eigh")):
        monkeypatch.setattr(owner, name, refuse)
    cfg = exp.ExperimentConfig.from_dict(
        {"scenario": "nogo-swap", "params": {"n": 12, "n_blocks": 2}, "seed": 404}
    )
    record = exp.run_trial(cfg, 0)
    assert record["adversary_learned"]
    blob = json.dumps([record], sort_keys=True, default=float)
    assert hashlib.sha256(blob.encode()).hexdigest() == SWAP_12_QUBIT_DIGEST, record


@at_memo_bounds(ACQUISITION_CASES)
def test_acquisition_results(name, memo_bound, monkeypatch):
    monkeypatch.setattr(adv, "MEASUREMENT_MEMO_BYTES", memo_bound)
    build, want = ACQUISITION_CASES[name]
    got = results_digest(build())
    assert got == want, f"golden acquisition {name!r} changed; new digest {got}"


# raw classical shadows: the config digest above sees only the pairs_ok
# counts, so the shot stream and the estimates are pinned separately


def _pauli_shots_digest():
    rng = np.random.default_rng(2020)
    v = rng.normal(size=16) + 1j * rng.normal(size=16)
    psi = qsim.PureState(4, v / np.linalg.norm(v))
    axes, bits = oracles.QMeasExOracle(psi).sample_product_pauli(428_800, rng)
    # the digest was taken of int64 arrays; the oracle returns the same
    # values as uint8
    h = hashlib.sha256(axes.astype(np.int64).tobytes())
    h.update(bits.astype(np.int64).tobytes())
    h.update(rng.random(4).tobytes())  # the generator's next draws
    return h.hexdigest()


def _shadow_estimates_digest():
    cfg = exp.ExperimentConfig.from_dict(
        json.loads((CONFIG_DIR / "shadows-qsq.json").read_text())
    )
    estimates = []
    real = covertsq.shadow_estimate

    def spy(*args):
        estimates.append(real(*args))
        return estimates[-1]

    covertsq.shadow_estimate = spy
    try:
        exp.run_trial(cfg, 0)
    finally:
        covertsq.shadow_estimate = real
    assert len(estimates) == 100
    return hashlib.sha256(np.array(estimates).tobytes()).hexdigest()


SHADOW_CASES = {
    "pauli-shots-4q": (
        _pauli_shots_digest,
        "5c338d3fa6969fdaea6f018b4a434b2ef15ecf11db10dbbf97883d3ca1021561",
    ),
    "shadows-qsq-estimates": (
        _shadow_estimates_digest,
        "bb15b43274273695b2c94953f6c76a4e0c0972e7c45c14be3f9c5a7c685cfc57",
    ),
}


@pytest.mark.parametrize("name", sorted(SHADOW_CASES))
def test_raw_shadows(name):
    build, want = SHADOW_CASES[name]
    got = build()
    assert got == want, f"golden shadows {name!r} changed; new digest {got}"
