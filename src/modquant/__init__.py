"""Modality-partitioned post-training weight quantization toolkit."""

__version__ = "0.1.0"

from .calibration import (
    CalibrationSet,
    capture_calibration,
    hessian_from_samples,
    load_calibration,
    save_calibration,
    synthetic_activations,
)
from .errors import FormatError, InvariantError, ModquantError, NumericError
from .kernel import (
    TileConfig,
    TimingSpan,
    Tracer,
    autotune,
    quant_matmul,
)
from .model import (
    GROUP_ORDER,
    ComponentGroup,
    CrossModalLayer,
    SyntheticModel,
    generate_model,
    load_model,
    save_model,
    vision_seq_len,
)
from .packfmt import (
    PackedLinear,
    dequantize_packed,
    estimate_packed_size,
    pack_linear,
    pack_weights,
    pack_zeros,
    unpack_weights,
    unpack_zeros,
)
from .pipeline import (
    QuantizedCheckpoint,
    circular_eval_accuracy,
    load_checkpoint,
    quantize_model,
    save_checkpoint,
    size_report,
)
from .quantcore import (
    GroupQuantParams,
    QuantConfig,
    QuantizedMatrix,
    dequantize_matrix,
    gptq_quantize,
    group_index,
    lanes_per_word,
    proxy_loss,
    rtn_quantize,
)
from .tensorio import (
    load_container,
    seeded_random_matrix,
    write_container,
)
