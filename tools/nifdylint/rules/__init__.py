"""Rule registry.

Each rule module exports NAME (the rule id reported to the user) and
check(ctx) -> list[Violation]. ALL_RULES maps every id to its check
function; cli.main() runs them all unless --rules narrows the set.
"""

from . import (
    annotations,
    hot_alloc,
    naked_new,
    no_rand,
    pointer_keys,
    randomness,
    static_state,
    stdio_funnel,
    steppable_tested,
    taxonomy,
    unordered_iter,
    wallclock,
)

_MODULES = [
    naked_new,
    no_rand,
    stdio_funnel,
    steppable_tested,
    taxonomy,
    unordered_iter,
    pointer_keys,
    randomness,
    wallclock,
    static_state,
    hot_alloc,
    annotations,
]

ALL_RULES = {}
for _mod in _MODULES:
    for _name, _fn in _mod.RULES.items():
        assert _name not in ALL_RULES, f"duplicate rule {_name}"
        ALL_RULES[_name] = _fn
