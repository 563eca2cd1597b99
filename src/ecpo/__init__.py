"""Deterministic toolkit for layered-constraint policy validation.

Parses structured driving-mediation policy documents, scores them with a
weighted composite of constraint compliance, evidence coverage, and
structural integrity, derives preference pairs for offline optimization,
retrieves and compresses constraint snippets from a versioned store, and
evaluates candidate corpora under a fixed offline metric protocol.
"""

__version__ = "0.1.0"
