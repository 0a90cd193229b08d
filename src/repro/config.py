"""Model and pre-training hyperparameter configuration.

The paper's production settings (N=4 blocks, d_model=312 from TinyBERT,
80 epochs on 570 K tables) are GPU-scale; :class:`TURLConfig` defaults are
CPU-scale but keep every architectural ratio and objective parameter —
including the MLM 20 % and MER 60 % masking ratios and their sub-splits —
identical to Section 4.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict


@dataclass
class TURLConfig:
    """Hyperparameters for the TURL model and pre-training objectives."""

    # -- architecture (paper: N=4, d=312, inter=1200, k=12) ---------------
    num_layers: int = 2
    dim: int = 64
    intermediate_dim: int = 128
    num_heads: int = 4
    dropout: float = 0.0

    # -- input limits -----------------------------------------------------
    max_caption_tokens: int = 24
    max_header_tokens: int = 6
    max_mention_tokens: int = 4
    max_rows: int = 24
    max_columns: int = 8

    # -- Masked Language Model (paper: 20%; 80/10/10 mask/random/keep) ----
    mlm_probability: float = 0.2
    mlm_mask_fraction: float = 0.8
    mlm_random_fraction: float = 0.1

    # -- Masked Entity Recovery (paper Section 4.4) -----------------------
    #: fraction of entity cells selected for MER
    mer_probability: float = 0.6
    #: of selected: fraction left fully intact
    mer_keep_fraction: float = 0.1
    #: of the remaining 90%: fraction with BOTH mention and entity masked
    mer_full_mask_fraction: float = 0.7
    #: of mention-kept cells: fraction whose entity embedding is replaced by
    #: a random entity (noise injection)
    mer_random_entity_fraction: float = 0.1

    # -- MER candidate set --------------------------------------------------
    n_random_negatives: int = 32
    n_cooccurrence_candidates: int = 64
    max_candidates: int = 256

    # -- optimization -------------------------------------------------------
    learning_rate: float = 1e-3
    batch_size: int = 8
    gradient_clip: float = 5.0
    weight_decay: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "TURLConfig":
        payload = dict(payload)
        # Written by older checkpoints; it only chose how dropout streams
        # were seeded, which loaded weights do not depend on.
        payload.pop("spawn_dropout_rng", None)
        return cls(**payload)

    def validate(self) -> None:
        if self.dim % self.num_heads != 0:
            raise ValueError("dim must be divisible by num_heads")
        for name in ("mlm_probability", "mlm_mask_fraction",
                     "mlm_random_fraction", "mer_probability",
                     "mer_keep_fraction", "mer_full_mask_fraction",
                     "mer_random_entity_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.mlm_mask_fraction + self.mlm_random_fraction > 1.0:
            raise ValueError(
                "mlm_mask_fraction + mlm_random_fraction must be <= 1, got "
                f"{self.mlm_mask_fraction} + {self.mlm_random_fraction}")
        split = self.mer_corruption_split()
        total = sum(split.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"MER corruption split must sum to 1, got {total!r} "
                f"from {split!r}")

    def mer_corruption_split(self) -> dict:
        """Absolute fraction of MER-selected cells per corruption outcome.

        The config stores the split hierarchically (keep, then full-mask of
        the remainder, then noise of the mention-kept rest); this flattens it
        so the invariant "outcomes partition the selected cells" is checkable.
        """
        keep = self.mer_keep_fraction
        full_mask = (1.0 - keep) * self.mer_full_mask_fraction
        mention_kept = (1.0 - keep) * (1.0 - self.mer_full_mask_fraction)
        noised = mention_kept * self.mer_random_entity_fraction
        return {
            "keep": keep,
            "full_mask": full_mask,
            "mention_kept_masked": mention_kept - noised,
            "mention_kept_noised": noised,
        }
