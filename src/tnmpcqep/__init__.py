"""Tensor-network latent encoding, metered three-party secure aggregation,
and an exactly simulated quantum post-processor, with a desk-scale pipeline
tying them together."""

__version__ = "0.1.0"

from . import bench, mpc, pipeline, qep, qsim, tn, verify  # noqa: F401
from .ring import FixedPointCodec  # noqa: F401
