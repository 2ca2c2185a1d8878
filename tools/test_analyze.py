#!/usr/bin/env python3
"""Tests for tools/analyze.py: each subcommand's pass path on the
committed BENCH_*.json snapshots, its failure paths on mutated copies
of them and on small synthetic traces, and the cause and phase tables
against the C++ arrays they mirror.

Runs standalone (no pytest needed):

    python3 tools/test_analyze.py
"""

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
REPO_ROOT = TOOLS.parent

sys.path.insert(0, str(TOOLS))

import analyze  # noqa: E402


def run(*args):
    """Run analyze.py from the repo root; (status, stdout, stderr)."""
    p = subprocess.run(
        [sys.executable, str(TOOLS / "analyze.py"), *map(str, args)],
        cwd=REPO_ROOT, capture_output=True, text=True)
    return p.returncode, p.stdout, p.stderr


def run_on(doc, command, *flags):
    """Run one subcommand on @p doc, written to a temp file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(json.dumps(doc))
        return run(command, path, *flags)


def snapshot(name):
    return json.loads((REPO_ROOT / name).read_text())


def expect_fail(result, stream, text):
    """Exit status 1 with @p text on stdout (1) or stderr (2)."""
    status, out, err = result
    assert status == 1, f"exit {status}, want 1:\n{out}{err}"
    got = out if stream == 1 else err
    assert text in got, f"{text!r} not in:\n{got}"


# --- pass paths on the committed snapshots -------------------------

def test_latency_conservation_holds_on_snapshot():
    status, out, err = run("latency", "BENCH_anatomy_fig2.json",
                           "--check-conservation")
    assert status == 0, err
    assert out.startswith("conservation OK: 21 group(s)"), out


def test_latency_renders_groups_and_shift():
    status, out, err = run("latency", "BENCH_anatomy_fig2.json",
                           "--compare", "fattree.none", "fattree.nifdy")
    assert status == 0, err
    assert "== blame shift: fattree.none -> fattree.nifdy ==" in out
    status, out, err = run("latency", "BENCH_anatomy_fig2.json")
    assert status == 0, err
    assert out.count("dominant cause:") == 21, out


def test_congestion_conservation_holds_on_snapshot():
    status, out, err = run("congestion", "BENCH_ext_congestion.json",
                           "--check-conservation")
    assert status == 0, err
    assert out.startswith("conservation OK: 2 group(s)"), out


def test_congestion_renders_groups_and_shift():
    status, out, err = run("congestion", "BENCH_ext_congestion.json")
    assert status == 0, err
    for tag in ("incast.none", "incast.nifdy"):
        assert f"== {tag}: hotspot heatmap" in out, out
        assert f"== {tag}: victim/aggressor attribution" in out, out
    status, out, err = run("congestion", "BENCH_ext_congestion.json",
                           "--compare", "incast.none", "incast.nifdy")
    assert status == 0, err
    assert "== congestion shift: incast.none -> incast.nifdy ==" in out


def test_profile_renders_bench_and_group():
    status, out, err = run("profile", "BENCH_kernel.json")
    assert status == 0, err
    assert "== host-cost blame: fig2heavy" in out, out


# --- failure paths on mutated snapshots ----------------------------

def test_latency_leaked_cause_cycle_fails():
    doc = snapshot("BENCH_anatomy_fig2.json")
    doc["metrics"]["anatomy.fattree.nifdy.cycles.arb"] += 1
    expect_fail(run_on(doc, "latency", "--check-conservation"), 2,
                "CONSERVATION VIOLATION [fattree.nifdy]: sum of "
                "per-cause cycles")


def test_latency_missing_cause_fails():
    doc = snapshot("BENCH_anatomy_fig2.json")
    del doc["metrics"]["anatomy.fattree.nifdy.cycles.coll"]
    expect_fail(run_on(doc, "latency", "--check-conservation"), 2,
                "per-cause metrics missing: coll")


def test_congestion_link_row_leak_fails():
    doc = snapshot("BENCH_ext_congestion.json")
    table = next(t for t in doc["tables"] if t["title"] ==
                 "congestion[incast.nifdy]: link stall map")
    col = table["columns"].index("busy")
    row = table["rows"][0]
    row[col] = f"{analyze.cell(row[col]) + 1:,}"
    expect_fail(run_on(doc, "congestion", "--check-conservation"), 2,
                f"CONSERVATION VIOLATION [incast.nifdy]: link {row[0]}: "
                "busy+idle+stalled")


def test_unknown_compare_tag_fails():
    for command, report, tag in (
            ("latency", "BENCH_anatomy_fig2.json", "fattree.nifdy"),
            ("congestion", "BENCH_ext_congestion.json", "incast.nifdy"),
            ("profile", "BENCH_kernel.json", "fig2heavy")):
        expect_fail(run(command, report, "--compare", tag, "nope"), 2,
                    "error: no such group(s): nope; available: ")


def test_report_without_family_data_fails():
    for command, report, what in (
            ("latency", "BENCH_ext_congestion.json", "anatomy metrics"),
            ("congestion", "BENCH_anatomy_fig2.json",
             "congestion metrics"),
            ("profile", "BENCH_fig2_heavy.json", "profiler data")):
        expect_fail(run(command, report), 2,
                    f"error: {report}: no {what} in report")


def test_wrong_schema_fails():
    doc = snapshot("BENCH_kernel.json")
    doc["schema"] = "nifdy-report-0"
    expect_fail(run_on(doc, "profile"), 2,
                "not a nifdy-report-1 document")


# --- trace validation on synthetic traces --------------------------

def event(name, ph, ts, pkt=1, cat="packet"):
    return {"name": name, "cat": cat, "ph": ph, "id": pkt, "pid": 0,
            "tid": 0, "ts": ts, "args": {"attempt": 0}}


def lifecycle(acked=True):
    """Packet 1's send -> inject -> hop -> deliver [-> ack] chain."""
    chain = [event("nic.packet.send", "b", 0),
             event("nic.packet.inject", "n", 1),
             event("router.packet.hop", "n", 6),
             event("nic.packet.deliver", "n", 39)]
    if acked:
        chain.append(event("nic.ack.issue", "e", 40))
    else:
        chain[-1]["ph"] = "e"
    return chain


def trace(events, dropped=0):
    return {"traceEvents": events,
            "otherData": {"schema": "nifdy-trace-1",
                          "clockDomain": "cycles",
                          "eventsRecorded": len(events),
                          "eventsDropped": dropped}}


def test_trace_passes_with_overlays():
    events = lifecycle() + [
        event("anatomy.stall.arb", "b", 2),
        event("anatomy.stall.arb", "e", 5),
        event("anatomy.live.swsend", "C", 0, 0, "anatomy"),
        event("congestion.links.congested", "C", 0, 0, "congestion")]
    status, out, err = run_on(trace(events), "trace", "--complete",
                              "--require-acks")
    assert status == 0, err
    assert out.endswith("doc.json: OK\n"), out


def test_trace_empty_fails():
    expect_fail(run_on(trace([]), "trace"), 2, "empty trace")


def test_trace_truncated_fails():
    expect_fail(run_on(trace(lifecycle(), dropped=5), "trace"), 2,
                "truncated trace: 5 event(s) dropped")


def test_trace_misframed_fails():
    events = lifecycle()
    events[0]["ph"] = "n"
    expect_fail(run_on(trace(events), "trace"), 2,
                "id 1 does not open with 'b'")


def test_trace_time_reversed_fails():
    events = lifecycle()
    events[2]["ts"] = 0
    expect_fail(run_on(trace(events), "trace"), 2,
                "id 1 timestamps go backwards (1 -> 0)")


def test_trace_incomplete_fails_under_complete():
    events = [e for e in lifecycle() if e["name"] != "router.packet.hop"]
    assert run_on(trace(events), "trace")[0] == 0
    expect_fail(run_on(trace(events), "trace", "--complete"), 2,
                "id 1 chain has no 'router.packet.hop'")


def test_trace_unacked_fails_under_require_acks():
    events = lifecycle(acked=False)
    assert run_on(trace(events), "trace", "--complete")[0] == 0
    expect_fail(run_on(trace(events), "trace", "--require-acks"), 2,
                "id 1 was delivered but never acked")


# --- the hand-kept tables match the C++ arrays ---------------------

def cpp_strings(header, array):
    """The string literals of `array[...] = { ... };` in @p header."""
    text = (REPO_ROOT / "src" / "sim" / header).read_text()
    m = re.search(re.escape(array) + r"\[[^\]]*\]\s*=\s*\{(.*?)\};",
                  text, re.DOTALL)
    assert m, f"{array} not found in {header}"
    return re.findall(r'"([^"]*)"', m.group(1))


def test_cause_table_matches_anatomy_hh():
    assert [s for s, _ in analyze.CAUSES] == cpp_strings(
        "anatomy.hh", "stallCauseSlugs")
    assert [label for _, label in analyze.CAUSES] == cpp_strings(
        "anatomy.hh", "stallCauseLabels")


def test_phase_table_matches_profile_hh():
    assert analyze.PHASES == cpp_strings("profile.hh", "profPhaseSlugs")


def main():
    tests = [(n, f) for n, f in sorted(globals().items())
             if n.startswith("test_") and callable(f)]
    fails = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as e:
            fails += 1
            print(f"FAIL {name}: {e}")
    print(f"\n{len(tests) - fails}/{len(tests)} passed")
    return 1 if fails else 0


if __name__ == "__main__":
    sys.exit(main())
