"""Exact-arithmetic toolkit for maximally recoverable tensor-product codes
on grid-like topologies: pattern enumeration, certification, constructive
search, and uncorrectable-pattern attacks."""

from .galois import FieldSpec, discrete_log, primitive_element
from .gfmatrix import GFMatrix, every_w_columns_independent, rank, solve_unique
from .patterns import (ErasurePattern, PatternType, Topology, enumerate_types,
                       is_irreducible, is_regular)
from .codes import (GridWord, TensorCode, build_pseudo_parity, decode, encode,
                    is_correctable_by, reduce_restricted)
from .mr import (AttackOutcome, CertReport, SidonWitness, attack_t3, attack_t4,
                 certify_mr, find_sum_collision, search_mr)
from .bounds import BoundReport, bound

__all__ = [
    "FieldSpec", "discrete_log", "primitive_element",
    "GFMatrix", "every_w_columns_independent", "rank", "solve_unique",
    "ErasurePattern", "PatternType", "Topology", "enumerate_types",
    "is_irreducible", "is_regular",
    "GridWord", "TensorCode", "build_pseudo_parity", "decode", "encode",
    "is_correctable_by", "reduce_restricted",
    "AttackOutcome", "CertReport", "SidonWitness", "attack_t3", "attack_t4",
    "certify_mr", "find_sum_collision", "search_mr",
    "BoundReport", "bound",
]

__version__ = "0.1.0"
