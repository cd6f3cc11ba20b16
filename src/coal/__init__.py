"""Cost overlapped active learning for cost-sensitive multiclass problems.

A learner that queries, per example, only the label costs whose achievable
ranges still overlap the best alternative, with exact (version-space) and
streaming (sensitivity-based) range computations, baseline policies, a
synthetic stream generator with controlled margins, and an experiment
harness producing deterministic learning curves.

Import each name from the submodule that defines it; this module defines none.
"""
