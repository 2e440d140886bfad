"""Regular downward closures of indexed languages."""

from .grammar import (GrammarError, IndexedGrammar, desugar, grammar_from_text,
                      label_pushes, parse_grammar)
from .pipeline import PipelineCaps, run_pipeline

__all__ = [
    "GrammarError", "IndexedGrammar", "desugar", "grammar_from_text",
    "label_pushes", "parse_grammar",
    "PipelineCaps", "run_pipeline",
]
