"""Streaming inference for frame sequences with bounded KV memory.

One carrier token per frame summarizes the frame; raw frame-token K/V
is used once at prefill and discarded. A fixed-capacity bank of
carriers keeps per-frame cost and memory constant no matter how long
the stream runs.
"""

from .autodiff import (
    TrainBatch,
    backward,
    batch_loss,
    batch_loss_and_grads,
    cross_entropy,
    forward_train,
)
from .carrier import (
    CarrierRecord,
    EvictionReport,
    FrameTokens,
    MemoryBank,
    build_carrier_embedding,
    oracle_select_victim,
)
from .config import ModelConfig
from .engine import (
    EvictionReplay,
    GenerationOutput,
    IngestReport,
    OracleResult,
    StreamSession,
    derive_replay,
    oracle_full_forward,
)
from .errors import (
    CapacityError,
    CarrierStreamError,
    ConfigError,
    DegenerateInputError,
    FormatError,
    LayoutError,
    OracleError,
    OrderingError,
    PayloadLengthError,
    SelectionError,
    ShapeError,
    StateError,
)
from .frames_io import load_frames, make_random_frames, save_frames
from .instrumentation import (
    AttentionCapture,
    AttentionTrace,
    BenchReport,
    BenchSchedule,
    CaptureFilter,
    FlopCounter,
    averaged_generated_attention,
    bench_serving,
    record_attention,
    step_flops,
    write_attention_csv,
    write_bench_json,
)
from .masking import (
    MaskSpec,
    SegmentLayout,
    build_semantic_mask,
    build_streaming_mask,
    remove_carrier_visibility,
)
from .model import (
    Checkpoint,
    KvCache,
    LayerWeights,
    Weights,
    attention_forward,
    embed_positions,
    forward_step,
    get_param,
    init_model,
    iter_params,
    load_checkpoint,
    save_checkpoint,
    set_param,
)
from .numerics import cosine_similarity, gelu, gelu_grad, layer_norm, softmax_rows
from .training import (
    Optimizer,
    StreamPlan,
    TaskSpec,
    TrainConfig,
    all_param_paths,
    build_batch,
    evaluate_recall,
    frames_for_engine,
    gen_synthetic_stream,
    grad_check,
    init_stub,
    make_plan,
    materialize_frames,
    train_stage1,
    train_stage2,
    trainable_paths,
)

__version__ = "0.1.0"
