"""equicheck: exactness checks for rotation/mirror equivariance of
subsampling convolutional architectures (p4/p4m groups).

The package provides a small forward-only layer zoo, a static analyzer for
the (i + 2p - k) mod s = 0 subsampling condition and the lattice of input
sizes that satisfy it everywhere, brute-force index
commutation oracles, empirical equivariance-error profiling, and a CLI.

The names exported here are the ones the README's Library section uses;
every other name is imported from its module.
"""

from .analyzer import analyze, exact_size_lattice
from .config import build_network
from .group import ROT90, act_spatial
from .layers import MovedMaps, Network, forward, seed_network
from .metrics import profile_equivariance, rotation_commutation
from .tensor import random_feature_map

__version__ = "0.1.0"
