"""Communication-efficient decentralized learning via wavelet-domain gossip.

The package simulates synchronous gossip learning over random regular
graphs. Its main protocol shares a small, importance-ranked slice of each
node's wavelet-transformed parameters per round, with compressed index
metadata; full sharing, seeded random sampling, and a Choco-SGD baseline run
in the same harness for comparison.

The API lives in the submodules, e.g. ``from jwins.sim import run,
config_from_dict``.
"""

__version__ = "0.1.0"
