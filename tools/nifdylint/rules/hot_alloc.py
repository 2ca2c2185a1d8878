"""hot-required / hot-alloc: the hot-path allocation discipline.

  hot-required -- the per-cycle hot path must be marked: every
                  out-of-class definition of a Steppable `step()`,
                  `Kernel::run`, the channel flit/credit push/pop
                  family and every router's `route()` (src/net/)
                  and the NIC inject/eject family, the NIC's wake
                  computation and the lossy NIC's timer walk
                  (src/nic/) must carry the
                  NIFDY_HOT macro (src/sim/types.hh) on its
                  definition. The macro is both a compiler hint and
                  the anchor this linter uses to find hot regions.
  hot-alloc    -- no heap allocation inside a NIFDY_HOT function
                  body: no new/make_unique/make_shared, no
                  std::string building, no growable-container
                  mutation. Steady-state work must recycle
                  pre-sized storage (Ring, PacketPool, member
                  scratch). Cold paths inside a hot function
                  (panic/fatal/warn/inform statements) are exempt;
                  deliberate high-water growth carries
                  // nifdy:alloc-ok(<reason>).

The runtime complement is tests/allocgate.cc: an operator new/delete
interposer, built into its own test binary, that counts allocations
in four warmed-up steady-state windows and asserts zero.
"""

import re

from ..common import Violation, brace_matched_body, statement_start_line

#: Out-of-class definition head: `Type Class::name(` (calls and
#: declarations are filtered out by looking for `{` before `;`).
DEF_RE = re.compile(r"\b(\w+)::(\w+)\s*\(")

#: Method families that must be NIFDY_HOT, keyed by the source
#: subtree they live in (None = anywhere in src/).
HOT_FAMILIES = (
    (None, {"step"}),
    (None, {"run"}),  # Kernel::run (the only `run` in src/)
    ("net", {"push", "pop", "canPush", "hasFlit", "pushCredit",
             "popCredit", "hasCredit", "route"}),
    ("nic", {"nextToInject", "onPacketDelivered", "pumpInject",
             "pumpEject", "acceptArrival", "deliverArrival",
             "pushArrival", "needsArrivalSlot", "injectQueued",
             "nextWork", "checkTimers"}),
)

#: Heap-allocating constructs. `new` is also covered by
#: no-naked-new; the rest are the growable-container / string
#: builders that libstdc++ turns into operator new calls.
ALLOC_RE = re.compile(
    r"(?:(?<![A-Za-z0-9_:])new\s+[A-Za-z_(]"
    r"|\bmake_unique\b|\bmake_shared\b"
    r"|\bstd::string\s*[({]|\bto_string\s*\(|\btoString\s*\("
    r"|\.\s*str\s*\(\s*\)"
    r"|[.>]\s*(?:push_back|emplace_back|emplace|insert|try_emplace|"
    r"resize|reserve|assign|append)\s*\()")

#: Statement heads that are cold by construction: failure/report
#: paths that end or bracket the run, never the steady state.
COLD_STMT_RE = re.compile(
    r"^\s*(?:panic|panic_if|fatal|fatal_if|warn|inform)\b")

TAG = "alloc"


def _subtree(ctx, path, name):
    return path.is_relative_to(ctx.root / "src" / name)


def _definition_ranges(sf):
    """[(start_line, body_start_line, body_end_line, stmt_text)] for
    every out-of-class definition head in the file."""
    out = []
    text = sf.text
    for m in DEF_RE.finditer(text):
        # A definition opens a brace before the next semicolon; a
        # call or declaration hits ';' first.
        tail = text[m.end():]
        brace = tail.find("{")
        semi = tail.find(";")
        if brace < 0 or (0 <= semi < brace):
            continue
        lineno = 1 + text[:m.start()].count("\n")
        stmt_at = statement_start_line(sf, lineno)
        stmt = " ".join(sf.lines[stmt_at - 1:lineno])
        body_open = m.end() + brace
        _, body_end = brace_matched_body(text, body_open)
        out.append((lineno, m.group(1), m.group(2), stmt,
                    1 + text[:body_open].count("\n"),
                    1 + text[:body_end].count("\n")))
    return out


def check_required(ctx):
    src = ctx.root / "src"
    violations = []
    for path, sf in ctx.src_files.items():
        if not path.is_relative_to(src):
            continue
        for (lineno, cls, name, stmt, _b0, _b1) in \
                _definition_ranges(sf):
            required = False
            for subtree, names in HOT_FAMILIES:
                if name not in names:
                    continue
                if subtree is None or _subtree(ctx, path, subtree):
                    required = True
                    break
            if not required or "NIFDY_HOT" in stmt:
                continue
            violations.append(Violation(
                path, lineno, "hot-required",
                f"{cls}::{name} is on the per-cycle hot path and "
                "must be marked NIFDY_HOT (src/sim/types.hh)"))
    return violations


def check_alloc(ctx):
    src = ctx.root / "src"
    violations = []
    for path, sf in ctx.src_files.items():
        if not path.is_relative_to(src):
            continue
        for (lineno, cls, name, stmt, body0, body1) in \
                _definition_ranges(sf):
            if "NIFDY_HOT" not in stmt:
                continue
            for at in range(body0, min(body1, len(sf.lines)) + 1):
                line = sf.lines[at - 1]
                if not ALLOC_RE.search(line):
                    continue
                stmt_at = statement_start_line(sf, at)
                if COLD_STMT_RE.match(sf.lines[stmt_at - 1]):
                    continue
                if sf.annotated(at, TAG) or \
                        sf.annotated(stmt_at, TAG):
                    continue
                violations.append(Violation(
                    path, at, "hot-alloc",
                    f"heap allocation inside NIFDY_HOT "
                    f"{cls}::{name}; recycle pre-sized storage "
                    "(Ring/pool/member scratch) or annotate "
                    "// nifdy:alloc-ok(<reason>)"))
    return violations


RULES = {
    "hot-required": check_required,
    "hot-alloc": check_alloc,
}
