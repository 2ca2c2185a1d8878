"""no-naked-new: no `new` expressions; ownership must go through
std::make_unique / containers. The one allowed idiom is gtest's
AddGlobalTestEnvironment(new ...), which takes ownership by
contract."""

import re

from ..common import Violation, find_on_lines

NEW_RE = re.compile(r"(?<![A-Za-z0-9_:])new\s+[A-Za-z_(]")


def check(ctx):
    violations = []
    for path, sf in ctx.all_files.items():
        for lineno, line in find_on_lines(sf.text, NEW_RE):
            if "AddGlobalTestEnvironment" in line:
                continue  # gtest takes ownership by contract
            if "operator new" in line:
                continue  # tests/allocgate.cc's interposer defines these
            violations.append(Violation(
                path, lineno, "no-naked-new",
                "naked `new`; use std::make_unique or a container"))
    return violations


RULES = {"no-naked-new": check}
