"""The project-wide analysis layer: ProjectIndex resolution, the
RPR006-RPR009 rule pack (including seeded mutations of real tree files),
the incremental cache, the committed baseline and the SARIF output."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools import all_rules, run_lint_tree
from repro.devtools.cache import LintCache
from repro.devtools.cli import main as lint_main
from repro.devtools.project import ProjectIndex, module_dotted
from repro.devtools.walker import FileContext

REPO_ROOT = Path(__file__).parents[2]
REPO_SRC = REPO_ROOT / "src" / "repro"
NO_EXCLUDES = frozenset({"__pycache__"})


def write(root: Path, rel: str, src: str) -> Path:
    p = root / rel
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(textwrap.dedent(src))
    return p


def lint_tree(root: Path, **kw):
    return run_lint_tree([str(root)], rules=all_rules(),
                         excludes=NO_EXCLUDES, **kw)


# --------------------------------------------------------------------- #
# ProjectIndex units
# --------------------------------------------------------------------- #
def test_module_dotted():
    assert module_dotted("src/repro/runtime/trace.py") == "repro.runtime.trace"
    assert module_dotted("src/repro/comm/__init__.py") == "repro.comm"
    assert module_dotted("elsewhere/mod.py").endswith("elsewhere.mod")


def _index_of(root: Path) -> ProjectIndex:
    contexts = [FileContext.parse(f, str(f))
                for f in sorted(root.rglob("*.py"))]
    return ProjectIndex.build(contexts)


def test_index_cross_module_resolution(tmp_path):
    write(tmp_path, "base.py", """\
        class Base:
            def snapshot_state(self):
                return {"count": self.count}

            def restore_state(self, snap):
                self.count = snap["count"]
        """)
    write(tmp_path, "sub.py", """\
        from base import Base


        class Sub(Base):
            pass
        """)
    index = _index_of(tmp_path)
    sub = index.resolve_class("Sub")
    assert sub is not None and sub.name == "Sub"
    assert index.is_subclass_of(sub, frozenset({"base.Base"}))
    hit = index.mro_method(sub, "snapshot_state")
    assert hit is not None and hit[0].name == "Base"
    chain = [c.name for c in index.mro_chain(sub)]
    assert chain == ["Sub", "Base"]


def test_index_tracks_local_classes_and_calls(tmp_path):
    write(tmp_path, "factory.py", """\
        def make(mailbox):
            class Payload:
                pass

            mailbox.push(Payload())
            return None
        """)
    index = _index_of(tmp_path)
    payload = index.resolve_class("Payload")
    assert payload is not None
    assert payload.enclosing_function is not None
    assert payload.enclosing_function.name == "make"
    (fn_key,) = [k for k in index.calls if k.endswith(".make")]
    assert "push" in index.calls[fn_key]


# --------------------------------------------------------------------- #
# RPR007 across modules + seeded mutations
# --------------------------------------------------------------------- #
BASE_SRC = """\
    class Base:
        def __init__(self):
            self.count = 0

        def bump(self):
            self.count += 1

        def snapshot_state(self):
            return {"count": self.count}

        def restore_state(self, snap):
            self.count = snap["count"]
    """


def test_rpr007_inherited_pair_cross_module(tmp_path):
    write(tmp_path, "base.py", BASE_SRC)
    write(tmp_path, "sub.py", """\
        from base import Base


        class Sub(Base):
            def __init__(self):
                super().__init__()
                self.extra = []

            def step(self):
                self.extra = [1]
        """)
    result = lint_tree(tmp_path)
    assert [(v.rule, Path(v.path).name) for v in result.violations] == [
        ("RPR007", "sub.py")]
    assert "self.extra" in result.violations[0].message


def test_rpr007_inherited_pair_volatile_pragma(tmp_path):
    write(tmp_path, "base.py", BASE_SRC)
    write(tmp_path, "sub.py", """\
        from base import Base


        class Sub(Base):
            def __init__(self):
                super().__init__()
                # repro-lint: volatile -- derived scratch, rebuilt on restore
                self.extra = []

            def step(self):
                self.extra = [1]
        """)
    assert lint_tree(tmp_path).violations == []


SYMMETRIC_SRC = """\
    class Engine:
        def __init__(self):
            self.count = 0
            self.frontier = []

        def step(self):
            self.count += 1
            self.frontier = [self.count]

        def snapshot_state(self):
            return {"count": self.count, "frontier": list(self.frontier)}

        def restore_state(self, snap):
            self.count = snap["count"]
            self.frontier = list(snap["frontier"])
    """


def test_seeded_mutation_deleted_restore_attr_fires(tmp_path):
    """Deleting one attr from restore_state must trip RPR007."""
    write(tmp_path, "engine.py", SYMMETRIC_SRC)
    assert lint_tree(tmp_path).violations == []
    mutated = SYMMETRIC_SRC.replace(
        '        self.frontier = list(snap["frontier"])\n', "")
    assert mutated != SYMMETRIC_SRC
    write(tmp_path, "engine.py", mutated)
    result = lint_tree(tmp_path)
    assert [v.rule for v in result.violations] == ["RPR007"]
    assert "self.frontier" in result.violations[0].message


# --------------------------------------------------------------------- #
# RPR006 on the real k-core module
# --------------------------------------------------------------------- #
def test_kcore_clean_and_seeded_local_visitor_fires(tmp_path):
    src = (REPO_SRC / "algorithms" / "kcore.py").read_text()
    (tmp_path / "kcore.py").write_text(src)
    assert lint_tree(tmp_path).violations == []

    seeded = src + textwrap.dedent("""\


        def make_kcore_visitor(k):
            class LocalKCoreVisitor(Visitor):
                __slots__ = ()

            return LocalKCoreVisitor
        """)
    (tmp_path / "kcore.py").write_text(seeded)
    result = lint_tree(tmp_path)
    assert [v.rule for v in result.violations] == ["RPR006"]
    assert "LocalKCoreVisitor" in result.violations[0].message


# --------------------------------------------------------------------- #
# RPR008 against the real TraversalStats
# --------------------------------------------------------------------- #
def test_seeded_unregistered_stats_counter_fires(tmp_path):
    trace_src = (REPO_SRC / "runtime" / "trace.py").read_text()
    p = tmp_path / "runtime" / "trace.py"
    p.parent.mkdir(parents=True)
    p.write_text(trace_src)
    assert lint_tree(tmp_path).violations == []

    write(tmp_path, "runtime/bump.py", """\
        def record(stats):
            stats.bogus_counter += 1
        """)
    result = lint_tree(tmp_path)
    assert [v.rule for v in result.violations] == ["RPR008"]
    assert "bogus_counter" in result.violations[0].message


def test_seeded_unregistered_family_field_fires(tmp_path):
    """Declaring a durable_* field without registering it must fire."""
    trace_src = (REPO_SRC / "runtime" / "trace.py").read_text()
    needle = "    durable_resumes: int = 0"
    assert needle in trace_src
    mutated = trace_src.replace(
        needle, needle + "\n    durable_phantom_epochs: int = 0")
    p = tmp_path / "runtime" / "trace.py"
    p.parent.mkdir(parents=True)
    p.write_text(mutated)
    result = lint_tree(tmp_path)
    assert [v.rule for v in result.violations] == ["RPR008"]
    assert "durable_phantom_epochs" in result.violations[0].message
    assert "DURABILITY_STATS_FIELDS" in result.violations[0].message


# --------------------------------------------------------------------- #
# Suppression round-trips for the project rules
# --------------------------------------------------------------------- #
def _rpr006_tree(root: Path, pragma: str) -> None:
    write(root, "factory.py", f"""\
        from repro.core.visitor import Visitor


        def make(k):
            class LocalVisitor(Visitor):{pragma}
                pass

            return LocalVisitor
        """)


def _rpr007_tree(root: Path, pragma: str) -> None:
    write(root, "engine.py", f"""\
        class Engine:
            def __init__(self):
                self.depth = 0

            def step(self):
                self.depth += 1

            def snapshot_state(self):{pragma}
                return {{"depth": self.depth}}

            def restore_state(self, snap):
                return None
        """)


def _rpr008_tree(root: Path, pragma: str) -> None:
    write(root, "runtime/trace.py", """\
        class TraversalStats:
            ticks: int = 0
        """)
    write(root, "runtime/bump.py", f"""\
        def record(stats):
            stats.phantom += 1{pragma}
        """)


def _rpr009_tree(root: Path, pragma: str) -> None:
    write(root, "runtime/gate.py", f"""\
        LOG = open("gate.log", "a"){pragma}
        """)


@pytest.mark.parametrize(
    "rule,builder",
    [
        ("RPR006", _rpr006_tree),
        ("RPR007", _rpr007_tree),
        ("RPR008", _rpr008_tree),
        ("RPR009", _rpr009_tree),
    ],
)
def test_project_rule_suppression_round_trip(tmp_path, rule, builder):
    # Unsuppressed: the violation fires.
    bare = tmp_path / "bare"
    builder(bare, "")
    assert rule in {v.rule for v in lint_tree(bare).violations}

    # A reasoned disable pragma hides exactly that finding.
    ok = tmp_path / "ok"
    builder(ok, f"  # repro-lint: disable={rule} -- test: sanctioned here")
    assert lint_tree(ok).violations == []

    # A reasonless pragma is RPR000 and the finding stays visible.
    bad = tmp_path / "bad"
    builder(bad, f"  # repro-lint: disable={rule}")
    rules_fired = {v.rule for v in lint_tree(bad).violations}
    assert {"RPR000", rule} <= rules_fired


# --------------------------------------------------------------------- #
# Incremental cache
# --------------------------------------------------------------------- #
def _violating_tree(root: Path) -> None:
    write(root, "dirty.py", """\
        import random


        def roll():
            return random.random()
        """)
    write(root, "clean.py", """\
        def double(x):
            return 2 * x
        """)


def test_cache_warm_run_parses_zero_files(tmp_path):
    proj = tmp_path / "proj"
    _violating_tree(proj)
    cache_dir = tmp_path / "cache"

    cold = lint_tree(proj, cache_dir=cache_dir)
    assert cold.cache_enabled and cold.parsed_files == 2
    assert cold.cache_hits == 0 and not cold.project_cache_hit

    warm = lint_tree(proj, cache_dir=cache_dir)
    assert warm.parsed_files == 0
    assert warm.cache_hits == 2 and warm.project_cache_hit
    assert warm.violations == cold.violations


def test_cache_invalidated_by_edit(tmp_path):
    proj = tmp_path / "proj"
    _violating_tree(proj)
    cache_dir = tmp_path / "cache"
    lint_tree(proj, cache_dir=cache_dir)

    (proj / "clean.py").write_text("def triple(x):\n    return 3 * x\n")
    third = lint_tree(proj, cache_dir=cache_dir)
    # The unchanged file's *analysis* is served from cache; the tree
    # digest changed, so the index (and hence parsing) runs again.
    assert third.cache_hits == 1
    assert not third.project_cache_hit
    assert {v.rule for v in third.violations} == {"RPR001"}


def test_cache_invalidated_by_rule_selection(tmp_path):
    cache_dir = tmp_path / "cache"
    cache = LintCache(cache_dir, ("RPR001",))
    cache.store_file("x.py", "digest", [])
    cache.save({"x.py"})

    same = LintCache(cache_dir, ("RPR001",))
    assert same.file_violations("x.py", "digest") == []
    other = LintCache(cache_dir, ("RPR001", "RPR002"))
    assert other.file_violations("x.py", "digest") is None


def test_cli_cached_reports_byte_identical(tmp_path, capsys):
    proj = tmp_path / "proj"
    _violating_tree(proj)
    cache_dir = tmp_path / "cache"
    argv = [str(proj), "--include-excluded",
            "--cache-dir", str(cache_dir), "--format", "json"]

    assert lint_main(argv) == 1
    first = json.loads(capsys.readouterr().out)
    assert lint_main(argv) == 1
    second = json.loads(capsys.readouterr().out)

    # The cache-hit counters are the only difference...
    assert first["cache"]["files_reparsed"] == 2
    assert second["cache"]["files_reparsed"] == 0
    assert second["cache"]["file_hits"] == 2
    assert second["cache"]["project_hit"] is True
    # ... the report core is byte-identical.
    first.pop("cache")
    second.pop("cache")
    assert json.dumps(first) == json.dumps(second)

    # Text mode keeps telemetry on stderr; stdout is identical too.
    argv_text = [str(proj), "--include-excluded", "--cache-dir", str(cache_dir)]
    assert lint_main(argv_text) == 1
    out_a = capsys.readouterr().out
    assert lint_main(argv_text) == 1
    out_b = capsys.readouterr().out
    assert out_a == out_b


# --------------------------------------------------------------------- #
# Baseline
# --------------------------------------------------------------------- #
def test_baseline_update_filter_and_stale(tmp_path):
    proj = tmp_path / "proj"
    _violating_tree(proj)
    bl = tmp_path / "lint-baseline.json"

    first = lint_tree(proj, baseline_path=bl, update_baseline=True)
    assert first.violations == [] and first.baselined == 1
    entries = json.loads(bl.read_text())["entries"]
    assert entries and "col" not in entries[0]

    # Steady state: still filtered, nothing stale.
    second = lint_tree(proj, baseline_path=bl)
    assert second.violations == [] and second.baselined == 1
    assert second.stale_baseline == []

    # A new violation is NOT absorbed by the old baseline.
    write(proj, "fresh.py", """\
        import random


        def fresh_roll():
            return random.random()
        """)
    third = lint_tree(proj, baseline_path=bl)
    assert [Path(v.path).name for v in third.violations] == ["fresh.py"]

    # Fixing the baselined file turns its entry stale (warn, don't gate).
    (proj / "dirty.py").write_text("def quiet():\n    return 0\n")
    (proj / "fresh.py").unlink()
    fourth = lint_tree(proj, baseline_path=bl)
    assert fourth.violations == [] and fourth.baselined == 0
    assert len(fourth.stale_baseline) == 1


def test_cli_stale_baseline_warns_on_stderr(tmp_path, capsys):
    proj = tmp_path / "proj"
    _violating_tree(proj)
    bl = tmp_path / "lint-baseline.json"
    assert lint_main([str(proj), "--include-excluded", "--no-cache",
                      "--baseline", str(bl), "--update-baseline"]) == 0
    capsys.readouterr()

    (proj / "dirty.py").write_text("def quiet():\n    return 0\n")
    assert lint_main([str(proj), "--include-excluded", "--no-cache",
                      "--baseline", str(bl)]) == 0
    err = capsys.readouterr().err
    assert "stale baseline" in err


def test_cli_update_baseline_requires_baseline(tmp_path):
    assert lint_main([str(tmp_path), "--update-baseline"]) == 2


def test_committed_baseline_has_no_runtime_or_comm_entries():
    """Policy: the parallel/durability trees may never be baselined —
    their invariants are exactly what RPR006-RPR009 exist to keep."""
    data = json.loads((REPO_ROOT / "lint-baseline.json").read_text())
    for entry in data.get("entries", []):
        path = entry.get("path", "")
        assert not path.startswith(("src/repro/runtime/", "src/repro/comm/")), (
            f"baselined violation in a protected tree: {entry}")


# --------------------------------------------------------------------- #
# SARIF
# --------------------------------------------------------------------- #
def test_cli_sarif_output(tmp_path, capsys):
    proj = tmp_path / "proj"
    _violating_tree(proj)
    assert lint_main([str(proj), "--include-excluded", "--no-cache",
                      "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert run["results"]
    result = run["results"][0]
    assert result["ruleId"] == "RPR001"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"].endswith("dirty.py")
    assert loc["region"]["startLine"] >= 1
    assert result["ruleId"] in {r["id"] for r in run["tool"]["driver"]["rules"]}


def test_cli_output_file(tmp_path):
    proj = tmp_path / "proj"
    _violating_tree(proj)
    out = tmp_path / "lint.sarif"
    assert lint_main([str(proj), "--include-excluded", "--no-cache",
                      "--format", "sarif", "--output", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["runs"][0]["results"]
