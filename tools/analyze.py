#!/usr/bin/env python3
"""Analyzer CLI for NIFDY run reports and packet-lifecycle traces.

One subcommand per probe; `analyze.py <subcommand> --help` lists its
flags.

  latency REPORT       latency-anatomy blame per group, the blame
                       shift between groups, and the conservation
                       gate (DESIGN.md section 8)
  congestion REPORT    link stall heatmap, victim/aggressor
                       attribution and episodes per group, the shift
                       between groups, and the conservation gate
                       (DESIGN.md section 14)
  profile REPORT       host-cost blame and idle-work account per
                       group, and the blame shift between groups
                       (DESIGN.md section 12)
  trace TRACE.json...  nifdy-trace-1 packet-lifecycle validation

REPORT is the nifdy-report-1 JSON written by `run_experiment --json`
or any bench's `--json` flag (src/sim/report.hh), or "-" for stdin.
A report carries one *group* per observed run: run_experiment writes
the bare "<family>.<key>" set, the benches one "<family>.<tag>.<key>"
set per configuration. The family is anatomy, congestion, or host in
the report's profile section.

Exit status: 0 clean; 1 on a conservation or validation failure, a
report without the family's data, or an unknown group tag. Host
speed is perfbench's to measure (perfbench/README.md).
"""

import argparse
import json
import re
import sys

SCHEMA = "nifdy-report-1"

# Mirrors stallCauseSlugs / stallCauseLabels in src/sim/anatomy.hh
# (tools/test_analyze.py checks that the two stay equal).
CAUSES = [
    ("swsend", "send staging"),
    ("ackwait", "ack wait"),
    ("optslot", "OPT slot busy"),
    ("optcap", "OPT cap"),
    ("window", "window closed"),
    ("inject", "inject backpressure"),
    ("arb", "router arb loss"),
    ("wire", "wire transit"),
    ("retx", "retx backoff"),
    ("epoch", "epoch recovery"),
    ("reorder", "reorder wait"),
    ("swrecv", "receive poll"),
    ("coll", "collective defer"),
]
LABEL = dict(CAUSES)

# Mirrors profPhaseSlugs in src/sim/profile.hh (checked likewise).
PHASES = ["probes", "trace", "self"]


def fail(msg):
    """End the command: msg on stderr, exit status 1."""
    sys.exit("error: " + msg)


def load_report(path):
    """Load and schema-check a report; "-" reads stdin."""
    with (sys.stdin if path == "-" else open(path)) as f:
        doc = json.load(f)
    if doc.get("schema") != SCHEMA:
        fail(f"{path}: not a {SCHEMA} document "
             f"(schema={doc.get('schema')!r})")
    return doc


def cell(text, kind=int):
    """Parse a Table::num cell ("1,234", "12.5" or "12.5%")."""
    return kind(text.replace(",", "").rstrip("%"))


def tables(doc, title_prefix):
    """(title, rows) for every table whose title starts with
    title_prefix; rows are {column: cell} dicts."""
    for table in doc.get("tables", []):
        if table.get("title", "").startswith(title_prefix):
            cols = table["columns"]
            yield table["title"], [dict(zip(cols, raw))
                                   for raw in table["rows"]]


def slugs(section, prefix, suffix=""):
    """{slug: int} for every key `prefix + slug + suffix` of section
    whose slug is one component-class name."""
    pat = re.compile(re.escape(prefix) + r"([a-z-]+)" +
                     re.escape(suffix) + "$")
    return {m.group(1): int(v) for k, v in section.items()
            if (m := pat.match(k))}


class Group:
    """One observed run of a probe family: the keys named
    "<FAMILY>.[<tag>.]<key>" in the report's SECTION, found by their
    "<FAMILY>.[<tag>.]<ANCHOR>" key. DATA and HINT word the error for
    a report that has none."""

    SECTION = "metrics"

    def __init__(self, tag, doc):
        self.tag = tag or "(run)"
        self.mid = tag + "." if tag else ""
        self.section = doc.get(self.SECTION, {})

    def key(self, name):
        return f"{self.FAMILY}.{self.mid}{name}"

    def value(self, name, default=-1, kind=int):
        return kind(self.section.get(self.key(name), default))

    @classmethod
    def find(cls, doc, path=None):
        """{tag: group} over the report, sorted by key; with a path,
        a report without the family's data is an error."""
        pat = re.compile(rf"^{cls.FAMILY}\.(?:(?P<tag>.+)\.)?"
                         + re.escape(cls.ANCHOR) + "$")
        groups = {}
        for key in sorted(doc.get(cls.SECTION, {})):
            if m := pat.match(key):
                g = cls(m.group("tag") or "", doc)
                groups[g.tag] = g
        if path is not None and not groups:
            fail(f"{path}: no {cls.DATA} in report ({cls.HINT})")
        return groups


def pick(groups, tags):
    """The groups named by tags, in order; an unknown tag is fatal."""
    missing = [t for t in tags if t not in groups]
    if missing:
        fail("no such group(s): " + ", ".join(missing) +
             "; available: " + (", ".join(sorted(groups)) or "(none)"))
    return [groups[t] for t in tags]


def check_conservation(groups, summary):
    """Print every group's conservation violations to stderr and
    return 1, or print one summary line and return 0."""
    failures = 0
    for tag, g in groups.items():
        for err in g.conservation_errors():
            print(f"CONSERVATION VIOLATION [{tag}]: {err}",
                  file=sys.stderr)
            failures += 1
    if failures:
        return 1
    print(f"conservation OK: {len(groups)} group(s), {summary}")
    return 0


# --- latency: the anatomy's per-cause blame ------------------------

class Latency(Group):
    """One attributed run: per-cause totals + end-to-end latency."""

    FAMILY, ANCHOR = "anatomy", "cycles.total"
    DATA = "anatomy metrics"
    HINT = "run with --anatomy / anatomy.enabled=true"

    def __init__(self, tag, doc):
        super().__init__(tag, doc)
        self.total = self.value("cycles.total")
        self.latency = self.value("latency.cycles")
        self.packets = self.value("packets", 0)
        self.discarded = self.value("discarded", 0)
        self.cycles = {slug: self.value("cycles." + slug)
                       for slug, _ in CAUSES
                       if self.key("cycles." + slug) in self.section}

    def share(self, slug):
        return self.cycles.get(slug, 0) / self.total if self.total else 0.0

    def dominant(self):
        return max(self.cycles, key=self.cycles.get, default=None)

    def conservation_errors(self):
        errs = []
        if self.latency < 0:
            errs.append("latency.cycles metric missing")
        elif self.total != self.latency:
            errs.append(
                f"cycles.total {self.total} != latency.cycles "
                f"{self.latency} (leak {self.total - self.latency})")
        by_cause = sum(self.cycles.values())
        if len(self.cycles) == len(CAUSES) and by_cause != self.total:
            errs.append(
                f"sum of per-cause cycles {by_cause} != cycles.total "
                f"{self.total} (leak {by_cause - self.total})")
        missing = [s for s, _ in CAUSES if s not in self.cycles]
        if missing:
            errs.append("per-cause metrics missing: " + ", ".join(missing))
        return errs


def print_latency_group(g, top):
    print(f"== {g.tag}: {g.packets:,} packets, "
          f"{g.total:,} cycles attributed"
          + (f", {g.discarded:,} lifecycles discarded" if g.discarded
             else "") + " ==")
    ranked = sorted(g.cycles.items(), key=lambda kv: -kv[1])
    shown = 0
    for slug, cyc in ranked:
        if shown >= top and cyc == 0:
            break
        mean = cyc / g.packets if g.packets else 0.0
        print(f"  {LABEL[slug]:<20} {cyc:>14,}  "
              f"{100.0 * g.share(slug):5.1f}%  {mean:10.1f}/pkt")
        shown += 1
        if shown >= top:
            break
    dom = g.dominant()
    if dom is not None:
        print(f"  dominant cause: {LABEL[dom]} "
              f"({100.0 * g.share(dom):.1f}% of latency)")
    print()


def print_latency_compare(a, b):
    """Blame shift from group a to group b, in share points."""
    print(f"== blame shift: {a.tag} -> {b.tag} ==")
    print(f"  {'cause':<20} {a.tag:>12} {b.tag:>12} {'shift':>8}")
    rows = [(s, a.share(s), b.share(s)) for s, _ in CAUSES
            if a.cycles.get(s, 0) or b.cycles.get(s, 0)]
    rows.sort(key=lambda r: -(r[2] - r[1]))
    for slug, sa, sb in rows:
        print(f"  {LABEL[slug]:<20} {100 * sa:11.1f}% {100 * sb:11.1f}% "
              f"{100 * (sb - sa):+7.1f}%")
    la = a.total / a.packets if a.packets else 0.0
    lb = b.total / b.packets if b.packets else 0.0
    print(f"  mean latency/pkt: {la:.1f} -> {lb:.1f} cycles "
          f"({'%+.1f' % (100.0 * (lb - la) / la) if la else 'n/a'}%)")
    print()


def print_node_outliers(doc, count):
    """Worst per-node mean latencies from the 'latency blame by node'
    table (emitted by run_experiment reports)."""
    for title, table in tables(doc, "latency blame by node"):
        rows = []
        for row in table:
            pkts = cell(row["pkts"])
            if not pkts:
                continue
            causes = {s: cell(row[s]) for s, _ in CAUSES if s in row}
            rows.append((cell(row["latency"]) / pkts, row["node"], pkts,
                         causes))
        if not rows:
            continue
        rows.sort(reverse=True)
        fleet = sum(r[0] * r[2] for r in rows) / sum(r[2] for r in rows)
        print(f"== slowest source nodes ({title}) ==")
        for mean, node, pkts, causes in rows[:count]:
            dom = max(causes, key=causes.get) if causes else "?"
            print(f"  node {node:>4}: {mean:8.1f} cycles/pkt "
                  f"({pkts:,} pkts, fleet mean {fleet:.1f}), "
                  f"mostly {LABEL.get(dom, dom)}")
        print()


def cmd_latency(args):
    doc = load_report(args.report)
    groups = Latency.find(doc, args.report)
    if args.check_conservation:
        packets = sum(g.packets for g in groups.values())
        return check_conservation(
            groups, f"{packets:,} packets, every cycle accounted for")
    if args.compare:
        print_latency_compare(*pick(groups, args.compare))
        return 0
    if args.baseline:
        base = Latency.find(load_report(args.baseline))
        shared = [t for t in groups if t in base]
        if not shared:
            fail("no shared anatomy groups with baseline")
        for tag in shared:
            print_latency_compare(base[tag], groups[tag])
        return 0
    for tag in sorted(groups):
        print_latency_group(groups[tag], args.top)
    if args.outliers:
        print_node_outliers(doc, args.outliers)
    return 0


# --- congestion: link stall maps and victim/aggressor blame --------

# Link labels are "<class><index>"; the class tells us where in the
# topology the hot spot lives (NIC injection port, ejection port, or
# fabric-internal channel).
LINK_CLASS_RE = re.compile(r"^(?P<cls>[a-z]+?)(?P<idx>\d+)$")

TABLE_KINDS = ("link stall map", "flow progress", "episodes")

HEAT_WIDTH = 24  # characters in the heatmap bar


class Congestion(Group):
    """One observed run: aggregate counters + the three tables."""

    FAMILY, ANCHOR = "congestion", "cycles.observed"
    DATA = "congestion metrics"
    HINT = "run with --congestion / congestion.enabled=true"

    def __init__(self, tag, doc):
        super().__init__(tag, doc)
        self.links = self.value("links", 0)
        self.observed = self.value("cycles.observed")
        self.windows = self.value("windows", 0)
        self.episodes = self.value("episodes", 0)
        self.busy = self.value("cycles.busy")
        self.idle = self.value("cycles.idle")
        self.stalled = self.value("cycles.stalled")
        self.flows = self.value("flows", 0)
        self.aggressors = self.value("aggressors", 0)
        self.victims = self.value("victims", 0)
        self.slowdown_max = self.value("slowdown.max", 0.0, float)
        prefix = f"congestion[{tag}]: " if tag else "congestion: "
        found = {}
        for title, rows in tables(doc, prefix):
            rest = title[len(prefix):]
            for kind in TABLE_KINDS:
                if rest.startswith(kind):
                    found[kind] = rows
        self.link_rows, self.flow_rows, self.episode_rows = (
            found.get(kind, []) for kind in TABLE_KINDS)

    def stall_share(self):
        total = self.busy + self.idle + self.stalled
        return self.stalled / total if total > 0 else 0.0

    def conservation_errors(self):
        """Aggregate and per-link tiling checks.

        Every link is observed for exactly `cycles.observed` cycles
        and each cycle lands in exactly one of busy/idle/stalled, so
        the three totals must tile links x observed, and each link
        row must tile observed on its own.
        """
        errs = []
        for name, v in (("cycles.busy", self.busy),
                        ("cycles.idle", self.idle),
                        ("cycles.stalled", self.stalled)):
            if v < 0:
                errs.append(f"{name} metric missing")
        if errs:
            return errs
        expect = self.links * self.observed
        got = self.busy + self.idle + self.stalled
        if got != expect:
            errs.append(
                f"busy+idle+stalled {got} != links x observed "
                f"{expect} (leak {got - expect})")
        for row in self.link_rows:
            got = (cell(row["busy"]) + cell(row["idle"]) +
                   cell(row["stalled"]))
            if got != self.observed:
                errs.append(
                    f"link {row['link']}: busy+idle+stalled {got} "
                    f"!= cycles.observed {self.observed} "
                    f"(leak {got - self.observed})")
        return errs


def link_class(label):
    m = LINK_CLASS_RE.match(label)
    return m.group("cls") if m else label


def heat_bar(frac):
    n = round(frac * HEAT_WIDTH)
    return "#" * n + "." * (HEAT_WIDTH - n)


def print_heatmap(g, top):
    """Ranked per-link heatmap + per-link-class hotspot rollup."""
    print(f"== {g.tag}: hotspot heatmap "
          f"({g.links} links, {g.observed:,} cycles observed, "
          f"{g.windows:,} windows) ==")
    if not g.link_rows:
        print("  (no link carried or refused traffic)")
        print()
        return
    ranked = sorted(g.link_rows,
                    key=lambda r: -cell(r["stall%"], float))
    for row in ranked[:top]:
        stall = cell(row["stall%"], float)
        print(f"  {row['link']:<12} {heat_bar(stall / 100.0)} "
              f"{stall:5.1f}% stalled  "
              f"(busy {row['busy']}, hiwater {row['hiwater']}, "
              f"{row['episodes']} episodes)")
    if len(ranked) > top:
        print(f"  ... {len(ranked) - top} more links")
    by_cls = {}
    for row in g.link_rows:
        acc = by_cls.setdefault(link_class(row["link"]), [0, 0, 0, 0])
        acc[0] += cell(row["busy"])
        acc[1] += cell(row["idle"])
        acc[2] += cell(row["stalled"])
        acc[3] += 1
    print("  by link class:")
    for cls in sorted(by_cls):
        busy, idle, stalled, n = by_cls[cls]
        total = busy + idle + stalled
        frac = stalled / total if total else 0.0
        print(f"    {cls:<10} {n:>4} links  {heat_bar(frac)} "
              f"{100.0 * frac:5.1f}% stalled")
    print()


def print_attribution(g, top):
    """Ranked aggressors (by episodes implicated, then traffic) and
    victims (by slowdown vs their own isolation baseline)."""
    print(f"== {g.tag}: victim/aggressor attribution "
          f"({g.flows} flows, {g.episodes} episodes, "
          f"{g.aggressors} aggressors, {g.victims} victims) ==")
    if not g.flow_rows:
        print("  (no flows observed)")
        print()
        return
    have_eps = "agg ep" in g.flow_rows[0]
    if not have_eps:
        print("  (flow table lacks episode columns; re-run with a "
              "current build)")
    aggressors = [r for r in g.flow_rows
                  if have_eps and cell(r["agg ep"]) > 0]
    aggressors.sort(key=lambda r: (-cell(r["agg ep"]),
                                   -cell(r["flits"])))
    victims = [r for r in g.flow_rows
               if have_eps and cell(r["vic ep"]) > 0]
    victims.sort(key=lambda r: -cell(r["slowdown"], float))
    for title, rows in (("aggressors", aggressors),
                        ("victims", victims)):
        print(f"  {title}:")
        if not rows:
            print("    (none)")
            continue
        for row in rows[:top]:
            print(f"    {row['src']:>4} > {row['dst']:<4} "
                  f"{row['flits']:>12} flits  "
                  f"slowdown {cell(row['slowdown'], float):6.2f}x  "
                  f"({row['agg ep']} aggressor / "
                  f"{row['vic ep']} victim episodes)")
        if len(rows) > top:
            print(f"    ... {len(rows) - top} more")
    if g.slowdown_max > 0:
        print(f"  worst slowdown vs isolation baseline: "
              f"{g.slowdown_max:.2f}x")
    print()


def print_episodes(g, top):
    if not g.episode_rows:
        return
    print(f"== {g.tag}: episodes ==")
    ranked = sorted(g.episode_rows, key=lambda r: -cell(r["flits"]))
    for row in ranked[:top]:
        print(f"  {row['link']:<12} open {row['open']:>12} "
              f"close {row['close']:>12} {row['windows']:>4} windows "
              f"peak {row['peak%']:>6}  aggressors {row['aggressors']}"
              f"  victims {row['victims']}")
    if len(ranked) > top:
        print(f"  ... {len(ranked) - top} more episodes")
    print()


def print_congestion_compare(a, b):
    """Congestion shift from group a to group b."""
    print(f"== congestion shift: {a.tag} -> {b.tag} ==")
    sa, sb = a.stall_share(), b.stall_share()
    print(f"  {'stalled link-cycles':<24} {100 * sa:10.1f}% "
          f"{100 * sb:10.1f}% {100 * (sb - sa):+8.1f}%")
    for name, va, vb in (("episodes", a.episodes, b.episodes),
                         ("aggressor flows", a.aggressors,
                          b.aggressors),
                         ("victim flows", a.victims, b.victims)):
        print(f"  {name:<24} {va:>10} {vb:>10} {vb - va:+8}")
    print(f"  {'worst slowdown':<24} {a.slowdown_max:9.2f}x "
          f"{b.slowdown_max:9.2f}x {b.slowdown_max - a.slowdown_max:+8.2f}")
    print()


def cmd_congestion(args):
    groups = Congestion.find(load_report(args.report), args.report)
    if args.check_conservation:
        cycles = sum(g.links * g.observed for g in groups.values())
        return check_conservation(
            groups, f"{cycles:,} link-cycles, every cycle exactly one "
                    "of busy/idle/stalled")
    if args.compare:
        print_congestion_compare(*pick(groups, args.compare))
        return 0
    for tag in sorted(groups):
        g = groups[tag]
        print_heatmap(g, args.top)
        print_attribution(g, args.top)
        print_episodes(g, args.top)
    return 0


# --- profile: host-cost blame and idle work ------------------------
#
# Two data families (DESIGN.md section 12):
#   metrics  profile[.<tag>].steps.<class> / .idlesteps.<class>
#            deterministic step/idle counters (the idle-work account)
#   profile  host[.<tag>].class.<class>.ns / .phase.<phase>.ns /
#            .loop.ns -- nondeterministic host-time figures,
#            quarantined in the report's "profile" section

class Profile(Group):
    """One profiled run: host-ns blame + idle-work account."""

    SECTION, FAMILY, ANCHOR = "profile", "host", "loop.ns"
    DATA = "profiler data"
    HINT = "run with profile.enabled=true"

    def __init__(self, tag, doc):
        super().__init__(tag, doc)
        self.loop_ns = self.value("loop.ns")
        self.phase_ns = {ph: self.value(f"phase.{ph}.ns")
                         for ph in PHASES
                         if self.key(f"phase.{ph}.ns") in self.section}
        self.class_ns = slugs(self.section, self.key("class."), ".ns")
        metrics = doc.get("metrics", {})
        self.steps = slugs(metrics, f"profile.{self.mid}steps.")
        self.idle = {cls: int(metrics.get(
            f"profile.{self.mid}idlesteps.{cls}", 0))
            for cls in self.steps}

    def blame(self):
        """(label, ns) rows: classes + in-loop phases, ranked."""
        rows = [(f"class {c}", ns)
                for c, ns in self.class_ns.items()]
        rows += [(f"phase {p}", ns)
                 for p, ns in self.phase_ns.items() if p != "trace"]
        return sorted(rows, key=lambda r: -r[1])


def print_profile_group(g):
    print(f"== host-cost blame: {g.tag} "
          f"(loop total {g.loop_ns / 1e6:.2f} ms) ==")
    for label, ns in g.blame():
        share = ns / g.loop_ns if g.loop_ns else 0.0
        print(f"  {label:<22} {ns / 1e6:>10.3f} ms  {share:>6.1%}")
    trace_ns = g.phase_ns.get("trace", 0)
    if trace_ns:
        print(f"  {'phase trace (off-loop)':<22} "
              f"{trace_ns / 1e6:>10.3f} ms")
    if g.steps:
        print("  idle-work account (idle steps / steps):")
        for cls in sorted(g.steps):
            steps, idle = g.steps[cls], g.idle[cls]
            frac = idle / steps if steps else 0.0
            print(f"    {cls:<20} {idle:>12} / {steps:<12} "
                  f"{frac:>6.1%} idle")
    print()


def print_profile_compare(ga, gb):
    print(f"== host-cost share shift: {ga.tag} -> {gb.tag} ==")
    da, db = dict(ga.blame()), dict(gb.blame())
    for label in sorted(set(da) | set(db)):
        sa = da.get(label, 0) / ga.loop_ns if ga.loop_ns else 0.0
        sb = db.get(label, 0) / gb.loop_ns if gb.loop_ns else 0.0
        print(f"  {label:<22} {sa:>7.1%} -> {sb:>7.1%} "
              f"({sb - sa:+.1%})")


def cmd_profile(args):
    groups = Profile.find(load_report(args.report), args.report)
    if args.compare:
        print_profile_compare(*pick(groups, args.compare))
        return 0
    for tag in sorted(groups):
        print_profile_group(groups[tag])
    return 0


# --- trace: nifdy-trace-1 lifecycle validation ---------------------

NAME_RE = re.compile(r"^[a-z][a-z0-9]*(\.[a-z][a-z0-9]*){1,2}$")
OVERLAY_RE = re.compile(r"^(?P<family>anatomy|congestion)\.")
REQUIRED_FIELDS = ("name", "cat", "ph", "id", "pid", "tid", "ts",
                   "args")
ORDERED_LIFECYCLE = ("nic.packet.send", "nic.packet.inject",
                     "router.packet.hop", "nic.packet.deliver")


def validate_trace(path, complete, require_acks, min_events):
    """Errors found in one packet-lifecycle trace (Chrome trace-event
    JSON); an empty list means it passes. Checks:

      - the wrapper has traceEvents + otherData with schema
        nifdy-trace-1
      - the trace has at least max(min_events, 1) events and was not
        truncated by the ring-buffer cap (otherData.eventsDropped > 0
        means trace.maxEvents cut the recording short; raise the knob
        instead of validating a partial trace)
      - every event carries name/cat/ph/id/pid/tid/ts/args and the
        name follows the component.noun[.verb] taxonomy (DESIGN.md
        section 8)
      - per async id: phases frame the chain as b (n)* e and
        timestamps are monotone non-decreasing (attempts may
        interleave: a late original can trail its own retransmission
        clone)
      - anatomy.* stall slices and congestion.* episode slices are
        overlays stamped retroactively at segment or window
        boundaries: explicit b/e pairs, or ph "C" counter tracks with
        the family as category. They are shape-checked only, exempt
        from chain framing and monotonicity
      - complete: every chain either ends in a drop or runs the full
        send -> inject -> hop+ -> deliver lifecycle in that order.
        node.* chains (a node's crash/restart history), coll.* chains
        (its collective engine; collective packets are control-only)
        and congestion.* chains (a link's episodes) are exempt
      - require_acks: every delivered chain also records
        nic.ack.issue
    """
    errors = []

    def err(msg, limit=20):
        if len(errors) < limit:
            errors.append(f"{path}: {msg}")
        elif len(errors) == limit:
            errors.append("... further errors suppressed")

    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    other = doc.get("otherData")
    if not isinstance(other, dict):
        return [f"{path}: missing otherData"]
    if other.get("schema") != "nifdy-trace-1":
        return [f"{path}: unknown schema {other.get('schema')!r}"]
    if other.get("clockDomain") != "cycles":
        err("clockDomain is not 'cycles'")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: traceEvents is not a list"]
    floor = max(min_events, 1)
    if len(events) < floor:
        what = ("empty trace" if not events
                else f"only {len(events)} event(s)")
        err(f"{what}, expected at least {floor}")
    if truncated := other.get("eventsDropped", 0):
        err(f"truncated trace: {truncated} event(s) dropped by the "
            "trace.maxEvents cap; raise the knob (or lower "
            "trace.sampleRate) and re-record")
    recorded = other.get("eventsRecorded")
    if recorded is not None and recorded != len(events):
        err(f"eventsRecorded={recorded} but {len(events)} events "
            "present")

    chains = {}
    for i, ev in enumerate(events):
        for field in REQUIRED_FIELDS:
            if field not in ev:
                err(f"event {i} missing '{field}'")
        name, ph = ev.get("name", ""), ev.get("ph")
        if not NAME_RE.match(name):
            err(f"event {i} name '{name}' violates the "
                "component.noun[.verb] taxonomy")
        if overlay := OVERLAY_RE.match(name):
            family = overlay.group("family")
            if ph not in ("b", "e", "C"):
                err(f"event {i} {family} phase {ph!r}, want b/e "
                    "slice or C counter")
            want_cat = family if ph == "C" else "packet"
            if ev.get("cat") != want_cat:
                err(f"event {i} category is not '{want_cat}'")
            continue
        if ph not in ("b", "n", "e"):
            err(f"event {i} has phase {ph!r}, want async b/n/e")
        if ev.get("cat") != "packet":
            err(f"event {i} category is not 'packet'")
        chains.setdefault(ev.get("id"), []).append(ev)

    for cid, chain in chains.items():
        phases = [ev["ph"] for ev in chain]
        if phases[0] != "b":
            err(f"id {cid} does not open with 'b'")
        if phases[-1] != "e":
            err(f"id {cid} does not close with 'e'")
        if "b" in phases[1:] or "e" in phases[:-1] or len(chain) < 2:
            err(f"id {cid} phases are not b (n)* e: {phases}")
        last_ts = None
        for ev in chain:
            ts = ev.get("ts")
            if last_ts is not None and ts < last_ts:
                err(f"id {cid} timestamps go backwards "
                    f"({last_ts} -> {ts})")
            last_ts = ts
            attempt = ev.get("args", {}).get("attempt")
            if attempt is not None and attempt < 0:
                err(f"id {cid} has a negative attempt")

        names = [ev["name"] for ev in chain]
        if complete:
            dropped = any(n.endswith(".drop") for n in names)
            # Narrative chains (node.*, coll.*, congestion.*) are not
            # packet lifecycles.
            narrative = all(
                n.startswith(("node.", "coll.", "congestion."))
                for n in names)
            if not dropped and not narrative:
                pos = -1
                for step in ORDERED_LIFECYCLE:
                    try:
                        pos = names.index(step, pos + 1)
                    except ValueError:
                        err(f"id {cid} chain has no '{step}' after "
                            f"position {pos} (chain: {names})")
                        break
        if (require_acks and "nic.packet.deliver" in names
                and "nic.ack.issue" not in names):
            err(f"id {cid} was delivered but never acked")
    return errors


def cmd_trace(args):
    status = 0
    for path in args.traces:
        errors = validate_trace(path, args.complete, args.require_acks,
                             args.min_events)
        if errors:
            status = 1
            for e in errors:
                print(e, file=sys.stderr)
        else:
            print(f"{path}: OK")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, conservation=None):
        """A report subcommand, with the family's conservation gate."""
        p = sub.add_parser(name, help=help, description=help)
        p.set_defaults(func=func)
        p.add_argument("report", help="report JSON path, or - for stdin")
        p.add_argument("--compare", nargs=2, metavar=("TAG_A", "TAG_B"),
                       help="shift between two groups of the report")
        if conservation:
            p.add_argument("--check-conservation", action="store_true",
                           help="verify " + conservation)
        return p

    lat = command("latency", cmd_latency,
                  "latency-anatomy blame analyzer",
                  "per-cause cycles sum exactly to the end-to-end "
                  "latency in every group")
    lat.add_argument("--baseline", metavar="REPORT",
                     help="second report: per-tag delta against it")
    lat.add_argument("--top", type=int, default=len(CAUSES),
                     help="causes to show per group (default: all)")
    lat.add_argument("--outliers", type=int, default=3,
                     help="slowest nodes to list (default 3; 0 = none)")

    cong = command("congestion", cmd_congestion,
                   "congestion hotspot / victim-aggressor analyzer",
                   "busy+idle+stalled tiles the cycles observed, per "
                   "link and per group")
    cong.add_argument("--top", type=int, default=8,
                      help="rows per ranked section (default 8)")

    command("profile", cmd_profile, "host-cost blame / idle-work analyzer")

    trace_help = "validate nifdy-trace-1 packet-lifecycle traces"
    trace = sub.add_parser("trace", help=trace_help,
                           description=trace_help)
    trace.set_defaults(func=cmd_trace)
    trace.add_argument("--complete", action="store_true",
                       help="require full send->inject->hop->deliver "
                            "chains (drops exempt)")
    trace.add_argument("--require-acks", action="store_true",
                       help="require nic.ack.issue on delivered chains")
    trace.add_argument("--min-events", type=int, default=1, metavar="N",
                       help="fail traces with fewer than N events "
                            "(default 1: an empty trace always fails)")
    trace.add_argument("traces", nargs="+", metavar="TRACE.json")

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
