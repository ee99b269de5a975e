"""Cross-modality video re-identification lab.

A self-contained stack: dense tensors with reverse-mode differentiation,
a ViT-style frame encoder with a learnable space-time hub, prompt-based
identity prototypes from a frozen text encoder, the metric-learning loss
suite, a synthetic two-modality benchmark, retrieval evaluation, and an
analytic cost profiler.
"""

__version__ = "0.1.0"
