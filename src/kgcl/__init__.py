"""Contrastive knowledge graph embedding with hard negatives and
structure-aware false-negative debiasing.

The package re-exports nothing: import names from its submodules, for
example `from kgcl.training import TrainConfig, train`. The command line
lives in `kgcl.cli`, which is left out here so that `python -m kgcl.cli`
runs it without importing it twice."""

from . import data, evaluation, graph, losses, model, sampling, synthetic, training

__version__ = "0.1.0"
