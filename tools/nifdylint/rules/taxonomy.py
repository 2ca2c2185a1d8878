"""telemetry-taxonomy / anatomy-taxonomy: telemetry names and stall
causes must follow the documented taxonomy.

  telemetry-taxonomy -- every metric / trace-event name emitted as a
                        string literal in src/, bench/ or examples/
                        (trace.hh ev:: constants, and the name
                        argument of gauge/writeDist/addMetric/
                        counter/distribution/timeSeries) must follow
                        the component.noun[.verb] convention and be
                        listed in the DESIGN.md section 8 taxonomy
                        table.
  anatomy-taxonomy   -- every StallCause enum member in
                        src/sim/anatomy.hh must be documented
                        (backticked) in the DESIGN.md section 8 cause
                        table, so the latency-anatomy blame taxonomy
                        never drifts from its docs.
"""

import re

from ..common import (Violation, cpp_files,
                      strip_comments_and_strings)

TAXONOMY_RE = re.compile(r"^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*){1,2}$")
# A complete string literal passed as the name argument of a
# metric/stat sink -- the first argument, or the second after a
# writer (writeDist(w, "name", ...)); partial literals built with `+`
# do not match.
TELEMETRY_CALL_RE = re.compile(
    r"\b(?:gauge|writeDist|addMetric|counter|distribution|"
    r'timeSeries)\s*\(\s*(?:\w+\s*,\s*)?"([a-z0-9.]+)"\s*[,)]')
# ev:: taxonomy constants in src/sim/trace.hh.
TRACE_EV_RE = re.compile(
    r'inline\s+constexpr\s+const\s+char\s*\*\s*\w+\s*=\s*"([^"]+)"')
STALL_ENUM_RE = re.compile(
    r"enum\s+class\s+StallCause\s*(?::[^{]*)?\{(.*?)\}", re.DOTALL)


def design_taxonomy_section(ctx):
    """The text of DESIGN.md section 8 (empty if absent)."""
    text = (ctx.root / "DESIGN.md").read_text()
    m = re.search(r"^## 8\..*?(?=^## |\Z)", text,
                  re.MULTILINE | re.DOTALL)
    return m.group(0) if m else ""


def check_telemetry(ctx):
    """Raw-text scan (names live inside string literals)."""
    section = design_taxonomy_section(ctx)
    violations = []

    def check_name(path, lineno, name):
        if not TAXONOMY_RE.match(name):
            violations.append(Violation(
                path, lineno, "telemetry-taxonomy",
                f"name '{name}' does not follow "
                "component.noun[.verb]"))
        elif f"`{name}`" not in section:
            violations.append(Violation(
                path, lineno, "telemetry-taxonomy",
                f"name '{name}' is missing from the DESIGN.md "
                "section 8 taxonomy table"))

    trace_hh = ctx.root / "src" / "sim" / "trace.hh"
    if trace_hh.is_file():
        for lineno, line in enumerate(
                trace_hh.read_text().splitlines(), start=1):
            for m in TRACE_EV_RE.finditer(line):
                check_name(trace_hh, lineno, m.group(1))
    scan_dirs = [ctx.root / "src", ctx.root / "bench",
                 ctx.root / "examples"]
    for path in cpp_files(*scan_dirs):
        text = path.read_text()
        for lineno, line in enumerate(text.splitlines(), start=1):
            for m in TELEMETRY_CALL_RE.finditer(line):
                check_name(path, lineno, m.group(1))
    return violations


def check_anatomy(ctx):
    """Every StallCause enum member must appear backticked in the
    DESIGN.md section 8 cause table."""
    anatomy_hh = ctx.root / "src" / "sim" / "anatomy.hh"
    if not anatomy_hh.is_file():
        return []
    text = anatomy_hh.read_text()
    m = STALL_ENUM_RE.search(text)
    if not m:
        return [Violation(
            anatomy_hh, 1, "anatomy-taxonomy",
            "StallCause enum not found in src/sim/anatomy.hh")]
    body = strip_comments_and_strings(m.group(1))
    members = re.findall(r"[A-Za-z_]\w*", body)
    if not members:
        return [Violation(
            anatomy_hh, 1, "anatomy-taxonomy",
            "StallCause enum has no members")]
    section = design_taxonomy_section(ctx)
    enum_at = 1 + text[:m.start()].count("\n")
    violations = []
    for member in members:
        if f"`{member}`" not in section:
            violations.append(Violation(
                anatomy_hh, enum_at, "anatomy-taxonomy",
                f"StallCause::{member} is not documented "
                "(backticked) in the DESIGN.md section 8 cause "
                "table"))
    return violations


RULES = {
    "telemetry-taxonomy": check_telemetry,
    "anatomy-taxonomy": check_anatomy,
}
