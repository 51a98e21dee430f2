"""equicheck: exactness checks for rotation/mirror equivariance of
subsampling convolutional architectures (p4/p4m groups).

The package provides a small forward-only layer zoo, a static analyzer for
the (i + 2p - k) mod s = 0 subsampling condition and the lattice of input
sizes that satisfy it everywhere, brute-force index
commutation oracles, empirical equivariance-error profiling, and a CLI.
"""

from .analyzer import (
    AnalysisReport,
    LayerTrace,
    SizeLattice,
    analyze,
    check_layer,
    exact_size_lattice,
    output_size,
    suggest_input_sizes,
)
from .config import build_network
from .group import (
    IDENTITY,
    MIRROR,
    ROT90,
    ROT180,
    ROT270,
    GroupElement,
    GroupKind,
    IndexPatch,
    act_full,
    act_spatial,
    compose,
    elements,
    inverse,
    mirror_index,
    rotate_index,
)
from .layers import (
    Layer,
    LayerKind,
    MovedMaps,
    Network,
    circle_crop,
    conv2d,
    coset_maxpool,
    dense,
    forward,
    gconv,
    gconv_lift,
    global_avg_pool,
    maxpool,
    relu,
    seed_network,
)
from .metrics import (
    CommutationVerdict,
    EquivarianceProfile,
    equivariance_error,
    invariance_sweep,
    mirror_commutation,
    profile_equivariance,
    rotate_bilinear,
    rotation_commutation,
)
from .tensor import (
    FeatureMap,
    FilterBank,
    max_abs_diff,
    random_feature_map,
)

__version__ = "0.1.0"
