"""Whole-run properties over small drawn configs.

Every algorithm, ablation, cut-off list and graph degree the config accepts
must run, give the same rows on one and two workers, and count exactly the
bytes it sent: a closed form for full sharing and random sampling, the
message dump's lengths for jwins and Choco.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jwins import codec
from jwins.sim import config_from_dict, run
from jwins.sparsify import selection_size

# Cut-offs that select no entry of any model drawn here, small and large
# ones, and 1.0.
_ALPHAS = [0.001, 0.05, 0.2, 0.5, 1.0]


@st.composite
def configs(draw):
    n = draw(st.sampled_from(range(1, 9)))
    # Degrees up to 4 and the complete graph's, as ``_validate`` accepts them.
    degrees = [d for d in range(1, n)
               if (d <= 4 or d == n - 1) and n * d % 2 == 0 and (d > 1 or n == 2)]
    d = draw(st.sampled_from(degrees)) if degrees else 1
    algo = draw(st.sampled_from(["jwins", "full", "random", "choco"]))
    rounds = draw(st.integers(1, 3))
    classes = draw(st.integers(2, 3))
    return {
        "algo": algo,
        "n": n,
        "seed": draw(st.integers(0, 2**32)),
        "rounds": rounds,
        "eval_every": draw(st.integers(1, rounds)),
        "random_alpha": draw(st.sampled_from(_ALPHAS)),
        "wavelet_levels": draw(st.integers(1, 4)),
        "topology": {"d": d, "dynamic": algo != "choco" and draw(st.booleans())},
        "model": draw(st.sampled_from([{"kind": "logreg"}, {"kind": "mlp", "hidden": 3}])),
        "data": {"classes": classes, "dims": draw(st.integers(2, 6)), "per_class": n + 2,
                 "test_per_class": 2, "mean_scale": 2.0},
        "sgd": {"eta": 0.05, "tau": draw(st.integers(1, 2)), "batch_size": 4},
        "alpha": {"support": draw(st.lists(st.sampled_from(_ALPHAS), min_size=1,
                                           max_size=3, unique=True))},
        "choco": {"gamma": 0.5, "alpha": draw(st.sampled_from(_ALPHAS))},
        "ablations": {key: draw(st.booleans()) for key in (
            "wavelet_on", "accumulation_on", "random_cutoff_on", "metadata_compression_on")},
    }


def _sent_bytes(path, n):
    """Per sender, the summed lengths of its messages in a message dump."""
    data = Path(path).read_bytes()
    sent = np.zeros(n, dtype=np.int64)
    at = 0
    while at < len(data):
        length = int.from_bytes(data[at : at + 4], "little")
        _, sender, _, _ = codec.HEADER.unpack_from(data, at + 4)
        sent[sender] += length
        at += 4 + length
    return sent


@settings(max_examples=100, deadline=None, derandomize=True)
@given(configs())
def test_run_rows_and_bytes(raw):
    with tempfile.TemporaryDirectory() as tmp:
        dump = str(Path(tmp) / "dump.bin")
        cfg = config_from_dict({**raw, "workers": 1, "message_dump": dump})
        rows, states = run(cfg, return_states=True)
        sent = _sent_bytes(dump, cfg.n)
    assert run(config_from_dict({**raw, "workers": 2})) == rows

    degree = 0 if cfg.n == 1 else cfg.topology.d
    final = [r for r in rows if r[0] == cfg.rounds and r[1] != "AGG"]
    assert [r[1] for r in final] == [str(i) for i in range(cfg.n)]
    bytes_cum = np.array([r[4] for r in final])
    np.testing.assert_array_equal(bytes_cum, sent * degree)
    plen = states[0].model.param_count
    if cfg.algo == "full":
        assert np.all(bytes_cum == degree * cfg.rounds * (13 + 4 * plen))
    elif cfg.algo == "random":
        k = selection_size(cfg.random_alpha, plen)
        assert np.all(bytes_cum == degree * cfg.rounds * (13 + 8 + 4 * k))
