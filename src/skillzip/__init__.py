"""skillzip: delta compression into quantized low-rank skillpacks plus a
shared backbone, executed through a two-stage integer pipeline."""

from .archive import read_archive, write_archive
from .deltas import MergePlan, TaskDelta, extract_delta, merge_shared, recenter
from .errors import FormatError, RoutingError, ShapeError, SkillzipError, ValidationError
from .kernel import CompiledSkillLayer, ForwardDiag, compile_layer, forward_full, forward_quantized, gemm_i8_i32, requant_mid
from .lowrank import RankPolicy, SvdResult, jacobi_svd_full, split_factors, truncated_svd
from .packio import Manifest, Skillpack, compression_ratio, read_skillpack, write_skillpack
from .pipeline import CompressionResult, PipelineConfig, Toggles, compress
from .prng import Prng
from .quant import (
    QuantConfig,
    QuantGrid,
    ScaleDescriptor,
    bitdelta_compress,
    bitdelta_dequantize,
    dequantize,
    gptq_refine,
    pack_int4,
    quantize,
    unpack_int4,
)
from .routing import Batch, ForwardRequest, SkillRegistry, dispatch_batch, dispatch_sequential
from .smoothing import RotationChoice, apply_smooth, compute_smooth, fold_rotation, profile, sample_rotation, select_rotation
from .tensors import fro_norm, matmul

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "CompiledSkillLayer",
    "CompressionResult",
    "ForwardDiag",
    "ForwardRequest",
    "FormatError",
    "Manifest",
    "MergePlan",
    "PipelineConfig",
    "Prng",
    "QuantConfig",
    "QuantGrid",
    "RankPolicy",
    "RotationChoice",
    "RoutingError",
    "ScaleDescriptor",
    "ShapeError",
    "Skillpack",
    "SkillzipError",
    "SkillRegistry",
    "SvdResult",
    "TaskDelta",
    "Toggles",
    "ValidationError",
    "apply_smooth",
    "bitdelta_compress",
    "bitdelta_dequantize",
    "compile_layer",
    "compress",
    "compression_ratio",
    "compute_smooth",
    "dequantize",
    "dispatch_batch",
    "dispatch_sequential",
    "extract_delta",
    "fold_rotation",
    "forward_full",
    "forward_quantized",
    "fro_norm",
    "gemm_i8_i32",
    "gptq_refine",
    "jacobi_svd_full",
    "matmul",
    "merge_shared",
    "pack_int4",
    "profile",
    "quantize",
    "read_archive",
    "read_skillpack",
    "recenter",
    "requant_mid",
    "sample_rotation",
    "select_rotation",
    "split_factors",
    "truncated_svd",
    "unpack_int4",
    "write_archive",
    "write_skillpack",
]
