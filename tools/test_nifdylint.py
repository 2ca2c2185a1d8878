#!/usr/bin/env python3
"""Tests for the nifdylint package: one positive (violation caught)
and one negative (clean or annotated code accepted) fixture per
rule, plus the annotation grammar and an end-to-end run over the
real repository.

Runs under pytest (CI) and standalone:

    python3 tools/test_nifdylint.py
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from nifdylint.common import ANNOTATION_RE, Context, SourceFile  # noqa: E402
from nifdylint.rules import ALL_RULES  # noqa: E402

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_rule(rule, files):
    """Materialize @p files ({relpath: text}) in a temp repo and run
    one rule; returns the violations."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for rel, text in files.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text)
        ctx = Context.from_root(root)
        return ALL_RULES[rule](ctx)


def rules_hit(violations):
    return {v.rule for v in violations}


# --- annotation grammar -------------------------------------------------

def test_annotation_grammar_parses_tag_and_reason():
    m = ANNOTATION_RE.search(
        "x.insert(id); // nifdy:alloc-ok(crash path only)")
    assert m and m.group(1) == "alloc"
    assert m.group(2) == "crash path only"
    m = ANNOTATION_RE.search("// nifdy:unordered-ok")
    assert m and m.group(2) is None


def test_annotated_covers_same_and_previous_line():
    sf = SourceFile("mem.cc", raw=(
        "// nifdy:unordered-ok(commutative)\n"
        "for (auto &kv : m_) sum += kv.second;\n"
        "m_.clear(); // nifdy:alloc-ok(teardown)\n"))
    assert sf.annotated(2, "unordered")
    assert sf.annotated(3, "alloc")
    assert not sf.annotated(2, "alloc")


# --- no-naked-new -------------------------------------------------------

def test_naked_new_positive():
    vs = run_rule("no-naked-new",
                  {"src/a.cc": "int *p = new int(3);\n"})
    assert rules_hit(vs) == {"no-naked-new"}


def test_naked_new_negative():
    vs = run_rule("no-naked-new", {"src/a.cc": (
        "auto p = std::make_unique<int>(3);\n"
        "testing::AddGlobalTestEnvironment(new Env);\n")})
    assert not vs


# --- no-rand ------------------------------------------------------------

def test_no_rand_positive():
    vs = run_rule("no-rand", {"src/a.cc": "int x = rand();\n"})
    assert rules_hit(vs) == {"no-rand"}


def test_no_rand_negative():
    vs = run_rule("no-rand",
                  {"src/a.cc": "int x = rng_.next(); strand(y);\n"})
    assert not vs


# --- stdio-funnel -------------------------------------------------------

def test_stdio_funnel_positive():
    vs = run_rule("stdio-funnel",
                  {"src/a.cc": 'printf("hi\\n");\n'})
    assert rules_hit(vs) == {"stdio-funnel"}


def test_stdio_funnel_negative():
    vs = run_rule("stdio-funnel", {
        "src/sim/log.cc": 'fprintf(stderr, "%s", msg);\n',
        "src/a.cc": "snprintf(buf, sizeof buf, \"%d\", v);\n",
    })
    assert not vs


# --- steppable-tested ---------------------------------------------------

STEPPABLE_DECL = (
    "class Widget : public Steppable {\n"
    "  public:\n"
    "    void step(Cycle now) override { ++n_; }\n"
    "  private:\n"
    "    int n_ = 7; // `= 0;` would read as a pure virtual\n"
    "};\n")


def test_steppable_tested_positive():
    vs = run_rule("steppable-tested",
                  {"src/widget.hh": STEPPABLE_DECL})
    assert rules_hit(vs) == {"steppable-tested"}


def test_steppable_tested_negative():
    vs = run_rule("steppable-tested", {
        "src/widget.hh": STEPPABLE_DECL,
        "tests/test_widget.cc": (
            "Widget w;\nkernel.add(&w);\nkernel.run(10);\n"),
    })
    assert not vs


# --- telemetry-taxonomy -------------------------------------------------

def test_telemetry_taxonomy_positive():
    vs = run_rule("telemetry-taxonomy", {
        "src/a.cc": 'counter("nic.undocumented", 1);\n'
                    'counter("flat", 1);\n'
                    'writeDist(w, "nic.unlisted", d);\n',
        "DESIGN.md": "## 8. Telemetry\n| `nic.pkts` |\n",
    })
    msgs = [v.message for v in vs]
    assert any("nic.undocumented" in m for m in msgs)
    assert any("component.noun" in m for m in msgs)
    assert any("nic.unlisted" in m for m in msgs)


def test_telemetry_taxonomy_negative():
    vs = run_rule("telemetry-taxonomy", {
        "src/a.cc": 'counter("nic.pkts", 1);\n',
        "DESIGN.md": "## 8. Telemetry\n| `nic.pkts` |\n",
    })
    assert not vs


# --- anatomy-taxonomy ---------------------------------------------------

ANATOMY_HH = "enum class StallCause { CreditStarved, LinkDown };\n"


def test_anatomy_taxonomy_positive():
    vs = run_rule("anatomy-taxonomy", {
        "src/sim/anatomy.hh": ANATOMY_HH,
        "DESIGN.md": "## 8. Telemetry\n| `CreditStarved` |\n",
    })
    assert rules_hit(vs) == {"anatomy-taxonomy"}
    assert "LinkDown" in vs[0].message


def test_anatomy_taxonomy_negative():
    vs = run_rule("anatomy-taxonomy", {
        "src/sim/anatomy.hh": ANATOMY_HH,
        "DESIGN.md":
            "## 8. Telemetry\n| `CreditStarved` | `LinkDown` |\n",
    })
    assert not vs


# --- unordered-iter -----------------------------------------------------

UNORDERED_HH = "std::unordered_map<int, int> counts_;\n"


def test_unordered_iter_positive():
    vs = run_rule("unordered-iter", {
        "src/a.hh": UNORDERED_HH,
        "src/a.cc": "for (auto &kv : counts_)\n    use(kv);\n"
                    "auto it = counts_.begin();\n",
    })
    assert len(vs) == 2
    assert rules_hit(vs) == {"unordered-iter"}


def test_unordered_iter_negative():
    vs = run_rule("unordered-iter", {
        "src/a.hh": UNORDERED_HH,
        "src/a.cc": (
            "// nifdy:unordered-ok(commutative sum)\n"
            "for (auto &kv : counts_)\n"
            "    total += kv.second;\n"
            "counts_.erase(key); // keyed access stays fine\n"),
    })
    assert not vs


# --- pointer-keys -------------------------------------------------------

def test_pointer_keys_positive():
    vs = run_rule("pointer-keys", {
        "src/a.hh": "std::unordered_set<Packet *> inFlight_;\n"})
    assert rules_hit(vs) == {"pointer-keys"}


def test_pointer_keys_negative():
    vs = run_rule("pointer-keys", {"src/a.hh": (
        "std::unordered_set<std::uint64_t> inFlight_;\n"
        "// nifdy:pointer-ok(membership-only, never iterated)\n"
        "std::unordered_set<Channel *> internal_;\n")})
    assert not vs


# --- randomness ---------------------------------------------------------

def test_randomness_positive():
    vs = run_rule("randomness", {
        "src/a.cc": "std::uniform_int_distribution<int> d(0, 9);\n"})
    assert rules_hit(vs) == {"randomness"}


def test_randomness_negative():
    vs = run_rule("randomness", {
        "src/sim/rng.hh": "std::mt19937_64 gen_;\n",
        "src/a.cc": "int v = rng_.range(0, 9);\n",
    })
    assert not vs


# --- wallclock ----------------------------------------------------------

def test_wallclock_positive():
    vs = run_rule("wallclock", {
        "src/a.cc": "auto t = time(nullptr);\n"
                    "auto n = std::chrono::steady_clock::now();\n"})
    assert len(vs) == 2
    assert rules_hit(vs) == {"wallclock"}


def test_wallclock_negative():
    vs = run_rule("wallclock", {"src/a.cc": (
        "Cycle t = simTime(now);\n"
        "// nifdy:wallclock-ok(harness opt-in, read once)\n"
        'const char *v = std::getenv("NIFDY_AUDIT");\n')})
    assert not vs


# --- static-state -------------------------------------------------------

def test_static_state_positive():
    vs = run_rule("static-state", {
        "src/a.cc": "static int counter = 0;\n"})
    assert rules_hit(vs) == {"static-state"}


def test_static_state_negative():
    vs = run_rule("static-state", {"src/a.cc": (
        "static const int kMax = 8;\n"
        "static constexpr double kPi = 3.14;\n"
        "static int helper(int x) { return x + 1; }\n"
        "// nifdy:static-ok(harness sink stack)\n"
        "static std::vector<Audit *> stack;\n")})
    assert not vs


# --- hot-required -------------------------------------------------------

def test_hot_required_positive():
    vs = run_rule("hot-required", {"src/sim/kernel.cc": (
        "void\nKernel::step()\n{\n    tick();\n}\n")})
    assert rules_hit(vs) == {"hot-required"}


def test_hot_required_negative():
    vs = run_rule("hot-required", {"src/sim/kernel.cc": (
        "NIFDY_HOT void\nKernel::step()\n{\n    tick();\n}\n"
        "void\nKernel::helper()\n{\n    Kernel::step();\n}\n")})
    assert not vs


def test_hot_required_covers_router_route():
    # Every router's route() runs at each allocation attempt: an
    # unmarked override under src/net/ is flagged, one elsewhere is not.
    route = ("bool\nMeshRouter::route(int in, Packet &p, "
             "std::vector<int> &c)\n{\n    c.push_back(0);\n"
             "    return false;\n}\n")
    vs = run_rule("hot-required", {"src/net/mesh.cc": route})
    assert rules_hit(vs) == {"hot-required"}
    assert not run_rule("hot-required", {"src/traffic/mesh.cc": route})


def test_hot_required_covers_nic_slot_and_pump_queries():
    # needsArrivalSlot() runs at every packet head and injectQueued()
    # once per NIC per cycle: unmarked definitions under src/nic/ are
    # flagged, marked ones pass.
    for name in ("needsArrivalSlot", "injectQueued"):
        body = ("bool\nBufferedNic::%s(const Packet &pkt) const\n{\n"
                "    return true;\n}\n" % name)
        vs = run_rule("hot-required", {"src/nic/plainnic.cc": body})
        assert rules_hit(vs) == {"hot-required"}, name
        assert not run_rule("hot-required",
                            {"src/nic/plainnic.cc": "NIFDY_HOT " + body})


def test_hot_required_covers_lossy_timer_walk():
    # checkTimers() runs once per lossy NIC per cycle: an unmarked
    # definition under src/nic/ is flagged, a marked one passes.
    body = ("void\nLossyNifdyNic::checkTimers(Cycle now)\n{\n"
            "    (void)now;\n}\n")
    vs = run_rule("hot-required", {"src/nic/retransmit.cc": body})
    assert rules_hit(vs) == {"hot-required"}
    assert not run_rule("hot-required",
                        {"src/nic/retransmit.cc": "NIFDY_HOT " + body})


def test_hot_required_covers_nic_wake_computation():
    # nextWork() runs at the end of every NIC step: an unmarked
    # definition under src/nic/ is flagged, a marked one passes.
    body = ("Cycle\nNifdyNic::nextWork(Cycle now) const\n{\n"
            "    return now + 1;\n}\n")
    vs = run_rule("hot-required", {"src/nic/nifdy.cc": body})
    assert rules_hit(vs) == {"hot-required"}
    assert not run_rule("hot-required",
                        {"src/nic/nifdy.cc": "NIFDY_HOT " + body})


# --- hot-alloc ----------------------------------------------------------

def test_hot_alloc_positive():
    vs = run_rule("hot-alloc", {"src/net/channel.cc": (
        "NIFDY_HOT void\nChannel::push(Flit f)\n{\n"
        "    flits_.push_back(f);\n}\n")})
    assert rules_hit(vs) == {"hot-alloc"}


def test_hot_alloc_negative():
    vs = run_rule("hot-alloc", {"src/net/channel.cc": (
        "NIFDY_HOT void\nChannel::push(Flit f)\n{\n"
        "    // nifdy:alloc-ok(Ring grows to high-water then reuses)\n"
        "    flits_.push_back(f);\n"
        "    panic_if(flits_.size() > cap_,\n"
        '             "overflow " + std::to_string(cap_));\n'
        "}\n"
        "void\nChannel::coldRebuild()\n{\n"
        "    flits_.reserve(cap_);\n}\n")})
    assert not vs


# --- annotation-reason --------------------------------------------------

def test_annotation_reason_positive():
    vs = run_rule("annotation-reason", {"src/a.cc": (
        "x.insert(k); // nifdy:alloc-ok\n"
        "y.insert(k); // nifdy:alloc-ok()\n")})
    assert len(vs) == 2
    assert rules_hit(vs) == {"annotation-reason"}


def test_annotation_reason_negative():
    vs = run_rule("annotation-reason", {"src/a.cc": (
        "x.insert(k); // nifdy:alloc-ok(rare fault path)\n")})
    assert not vs


# --- annotation-tag -----------------------------------------------------

def test_annotation_tag_positive():
    vs = run_rule("annotation-tag", {"src/a.cc": (
        "x.insert(k); // nifdy:allocs-ok(typo in the tag)\n")})
    assert rules_hit(vs) == {"annotation-tag"}


def test_annotation_tag_negative():
    vs = run_rule("annotation-tag", {"src/a.cc": (
        "x.insert(k); // nifdy:alloc-ok(fine)\n"
        "for (auto &kv : m_) { } // nifdy:unordered-ok(fine)\n")})
    assert not vs


# --- end to end ---------------------------------------------------------

def test_repo_is_clean():
    """The real repository passes every token-level rule."""
    ctx = Context.from_root(REPO_ROOT)
    for name, check in sorted(ALL_RULES.items()):
        vs = check(ctx)
        assert not vs, (
            f"rule {name} fails on the repo:\n" +
            "\n".join(v.render(REPO_ROOT) for v in vs))


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
