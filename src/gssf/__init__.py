"""Clustering of online handwritten answers via generative sequence similarity.

Pipeline: pen trajectories are preprocessed into point features (`ink`),
a small trainable recognizer decodes them (`seq2seq`), cross-conditioned
teacher-forced scores give pairwise similarities (`similarity`), which form
a similarity-based representation matrix (`sbr`) clustered by k-means or
complete linkage (`cluster`) and evaluated by purity and marking cost
(`metrics`). `synthgen` provides deterministic synthetic answer sets and
`cli` ties everything into a command-line pipeline.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """Input the user can correct: a bad file, spec, config or flag. The CLI exits 2."""


class RunFailure(RuntimeError):
    """Valid input on which a run cannot finish: training diverged, no answer
    can be scored, or the scores are not finite. The CLI exits 3."""
