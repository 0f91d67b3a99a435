"""The paper's soundness theorem and its converse, exhaustively at width 1.

A one-column width-1 rule takes each of its sets S0..S3 from the subsets
of the four width-1 tiles: 16^4 = 65,536 rules.  This holds that a rule
passes validation exactly when it maps every tiling of k = 1..3, at every
coordinate h, to a tiling, and that 64 rules do.  It takes 3.5-5.3 s on one
core, more than tier-1 should carry, so it runs as its own CI step:

    PYTHONPATH=src python -m pytest -q tests/width_one_rules.py

The file name keeps it out of tier-1's collection, which takes test_*.py.
"""

import itertools

from usokit import (
    InvalidRuleError,
    PartialTileSet,
    SimpleRule,
    apply_simple,
    enumerate_brute,
    is_tiling,
    validate_simple,
)


def _sound_on(rule, inputs):
    """Whether the rule maps every (tiling, h) of inputs to a tiling."""
    for ts, h in inputs:
        try:
            if not is_tiling(apply_simple(rule, ts, h)):
                return False
        except InvalidRuleError:  # the output's tile count is wrong
            return False
    return True


def test_width_one_rules_are_valid_exactly_when_sound():
    inputs = [(ts, h) for k in (1, 2, 3) for ts in enumerate_brute(k) for h in range(1, k + 1)]
    subsets = [PartialTileSet(1, [t for t in range(4) if s >> t & 1]) for s in range(16)]
    valid = 0
    for sets in itertools.product(subsets, repeat=4):
        rule = SimpleRule(1, *sets)
        accepted = validate_simple(rule) == []
        assert accepted == _sound_on(rule, inputs), rule
        valid += accepted
    assert valid == 64
