"""Transform-coding laboratory: mode-dependent Saab transforms inside a
simplified 8x8 intra codec, with DCT as anchor and RD analysis tooling."""

from .codec import STRATEGIES, StrategyConfig, decode_sequence, encode_sequence
from .errors import SaabCodecError
from .kernelio import KernelBank
from .pipeline import extract_residuals, train_kernel_bank
from .transforms import (
    SaabKernel,
    dct_forward,
    dct_inverse,
    learn_klt,
    learn_saab1,
    learn_saab2,
    saab_forward,
    saab_inverse,
)

__version__ = "0.1.0"

__all__ = [
    "STRATEGIES",
    "SaabCodecError",
    "SaabKernel",
    "KernelBank",
    "StrategyConfig",
    "dct_forward",
    "dct_inverse",
    "decode_sequence",
    "encode_sequence",
    "extract_residuals",
    "learn_klt",
    "learn_saab1",
    "learn_saab2",
    "saab_forward",
    "saab_inverse",
    "train_kernel_bank",
    "__version__",
]
