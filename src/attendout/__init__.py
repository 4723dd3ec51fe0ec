"""Learned attention dropout at desk scale.

A defender and an attacker, two identical transformer classifiers, train on
the same batches; a small attention-only generator drops units of the
attacker's attention matrices and is rewarded by policy gradient whenever
the attacker evaluates ahead. Random attention regularizers (per-unit
Bernoulli dropout, block skipping, attention-only skipping, scheduled
Bernoulli dropout) ride the same harness for fair comparison.
"""

from .attention import (
    AttentionParams,
    MaskMatrix,
    MaskMode,
    attn_backward,
    attn_forward,
    constant_attention,
)
from .config import TrainConfig, load_config, parse_config_text
from .models import (
    GeneratorConfig,
    GeneratorParams,
    MaskDecision,
    ModelConfig,
    TaskModelParams,
    gnet_logprob_backward,
    gnet_sample_masks,
    init_generator,
    init_task_model,
    load_checkpoint,
    save_checkpoint,
    task_backward,
    task_forward,
)
from .numkernel import (
    NEG_INF,
    ConfigError,
    ContractViolation,
    DivergenceError,
    OracleError,
    RngState,
    ShapeError,
    cross_entropy_logits,
    finite_diff_grad,
    softmax_rows,
)
from .policygrad import (
    Baseline,
    RewardRecord,
    compute_rewards,
    expected_reward_oracle,
    reinforce_update,
    update_baseline,
)
from .regularizers import (
    Schedule,
    layerdrop_decision,
    schedule_probability,
    vanilla_attention_mask,
)
from .tasks import Dataset, gen_balanced_brackets, gen_majority_token, split
from .trainer import (
    BatchStream,
    OptimizerState,
    TrainResult,
    dropout_step,
    evaluate,
    optimizer_state,
    optimizer_step,
    sync_models,
    train,
)

__version__ = "0.1.0"
