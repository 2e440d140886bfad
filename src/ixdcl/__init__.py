"""Regular downward closures of indexed languages."""

from .grammar import (GrammarError, IndexedGrammar, grammar_from_text,
                      label_pushes)
from .pipeline import PipelineCaps, run_pipeline

__all__ = [
    "GrammarError", "IndexedGrammar", "grammar_from_text", "label_pushes",
    "PipelineCaps", "run_pipeline",
]
