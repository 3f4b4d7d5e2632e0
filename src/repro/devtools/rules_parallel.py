"""The parallel/durability rule pack: RPR006-RPR009.

Project-scoped rules over the :class:`~repro.devtools.project.ProjectIndex`
— each one encodes an invariant the worker pool (INTERNALS §11), the
supervisor (§12) or the durability layer (§13) multiplied across
modules, where a per-file AST walk cannot see the other half of the
contract:

``RPR006`` *pickle-safety*
    Visitor envelopes cross worker pipes and checkpoint sections cross a
    pickle stream, so every class whose instances ride either channel
    must be importable by name on the far side.  A visitor class defined
    in function scope is the exact bug class the parallel executor hit
    with the per-``k`` k-core visitors, since replaced by one module-level
    class that carries ``k`` in a slot.
    Lambdas/generator expressions stored on pickle-reachable classes are
    flagged for the same reason.

``RPR007`` *snapshot/restore symmetry*
    ``restore_state`` must reinstall exactly the attribute set
    ``snapshot_state`` saves — an attr saved but never restored (or
    restored from thin air) silently resurrects stale state after the
    *next* crash.  Wiring attrs (never rebound outside ``__init__``) and
    constant resets in restore are exempt.  For classes that *inherit*
    the pair from a base in another module, every mutable ``__init__``
    attr must be covered — the cross-module generalization of RPR004.

``RPR008`` *stats-field registration*
    Every ``stats.X`` counter mutated under ``runtime/`` or ``comm/``
    must be a declared ``TraversalStats`` field, and the supervision /
    durability field families must be registered in their exclusion
    tuples (``SUPERVISION_STATS_FIELDS`` / ``DURABILITY_STATS_FIELDS``)
    — those tuples *are* the bit-identity contract's fine print, so an
    unregistered counter either breaks the equivalence gates or silently
    escapes them.

``RPR009`` *fork-safety*
    Worker processes are forked mid-run; OS resources created before the
    fork (open file handles, thread locks, sockets, multiprocessing
    primitives) and persisted on simulation state are shared or
    duplicated across the fork boundary without going through the
    arena/pipe protocol.  Persisting one on a *checkpointed* class is
    doubly wrong: it would also be pickled into a durable section.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator

from repro.devtools.project import (
    PIPE_SINKS,
    ClassInfo,
    ProjectIndex,
    ProjectRule,
)
from repro.devtools.report import Violation
from repro.devtools.rules import _assigned_self_attrs, _self_attr, register

#: Classes whose subclasses travel through worker pipes as envelopes.
VISITOR_BASES = frozenset({"repro.core.visitor.Visitor"})

#: Method pairs that make a class part of a checkpoint section.
SNAPSHOT_PAIRS = (("snapshot_state", "restore_state"), ("snapshot", "restore"))


def _snapshot_pair(
    index: ProjectIndex, info: ClassInfo
) -> tuple[tuple[ClassInfo, ast.FunctionDef],
           tuple[ClassInfo, ast.FunctionDef], bool] | None:
    """Resolve a snapshot/restore pair on ``info`` (possibly inherited).

    Returns ``((snap_cls, snap_fn), (restore_cls, restore_fn),
    inherited)`` or None; ``inherited`` is True when either method comes
    from a base class rather than the class body itself.
    """
    for snap_name, restore_name in SNAPSHOT_PAIRS:
        snap = index.mro_method(info, snap_name)
        restore = index.mro_method(info, restore_name)
        if snap is not None and restore is not None:
            inherited = snap[0].key != info.key or restore[0].key != info.key
            return snap, restore, inherited
    return None


def _method_self_attrs(fn: ast.FunctionDef) -> set[str]:
    """Every ``self.X`` attribute referenced anywhere in a method."""
    out: set[str] = set()
    for node in ast.walk(fn):
        name = _self_attr(node)
        if name is not None:
            out.add(name)
    return out


def _uses_dynamic_attrs(fn: ast.FunctionDef) -> bool:
    """True when the method goes through setattr/getattr/vars/__dict__ —
    the attr set is then statically unknowable and the rule stands down."""
    for node in ast.walk(fn):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in {"setattr", "getattr", "vars"}):
            return True
        if isinstance(node, ast.Attribute) and node.attr == "__dict__":
            return True
    return False


def _constant_only_writes(fn: ast.FunctionDef, attr: str) -> bool:
    """True when every appearance of ``self.attr`` in ``fn`` is an
    assignment of a constant / empty literal (the reset-on-restore
    idiom: the attr is deliberately cleared, not round-tripped)."""
    appearances = 0
    resets = 0
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            names = {_self_attr(t) for t in node.targets}
            if attr in names:
                appearances += sum(1 for t in node.targets
                                   if _self_attr(t) == attr)
                value = node.value
                if isinstance(value, ast.Constant) or (
                        isinstance(value, (ast.List, ast.Dict, ast.Set,
                                           ast.Tuple))
                        and not getattr(value, "elts",
                                        getattr(value, "keys", []))):
                    resets += sum(1 for t in node.targets
                                  if _self_attr(t) == attr)
                continue
        name = _self_attr(node)
        if name == attr and not _is_assign_target(node, fn):
            appearances += 1
    return appearances > 0 and appearances == resets


def _is_assign_target(node: ast.AST, fn: ast.FunctionDef) -> bool:
    for stmt in ast.walk(fn):
        if isinstance(stmt, ast.Assign) and node in stmt.targets:
            return True
    return False


def _rebound_outside_init(chain: list[ClassInfo]) -> set[str]:
    """Attrs assigned in any non-``__init__`` method across the chain."""
    out: set[str] = set()
    for info in chain:
        for mname, m in info.methods.items():
            if mname == "__init__":
                continue
            for name, _ in _assigned_self_attrs(m):
                out.add(name)
    return out


# --------------------------------------------------------------------- #
# RPR006: pickle-safety across worker pipes / checkpoint sections
# --------------------------------------------------------------------- #

_UNPICKLABLE_VALUE_KINDS = (ast.Lambda, ast.GeneratorExp)


@register
class PickleSafety(ProjectRule):
    """See module docstring — RPR006."""

    code = "RPR006"
    summary = "worker-pipe / checkpoint payload classes must pickle"

    def check_project(self, index: ProjectIndex) -> list[Violation]:
        out: list[Violation] = []
        for info in index.iter_classes():
            if info.enclosing_function is not None:
                out.extend(self._check_local_class(index, info))
            out.extend(self._check_unpicklable_attrs(index, info))
        return out

    # -- local visitor classes ---------------------------------------- #
    def _check_local_class(
        self, index: ProjectIndex, info: ClassInfo
    ) -> Iterator[Violation]:
        fn = info.enclosing_function
        assert fn is not None
        pipe_bound = index.is_subclass_of(info, VISITOR_BASES)
        if not pipe_bound:
            # Not a visitor: still flagged when the enclosing factory
            # hands instances to a pipe/pickle sink.
            called = index.calls.get(
                self._function_key(index, info, fn), frozenset())
            pipe_bound = bool(called & PIPE_SINKS)
        if not pipe_bound:
            return
        yield Violation(
            info.path, info.node.lineno, info.node.col_offset + 1, self.code,
            f"class {info.name} is defined in local scope inside "
            f"{fn.name}() but its instances cross a worker pipe / pickle "
            f"stream; define it at module level")

    @staticmethod
    def _function_key(index: ProjectIndex, info: ClassInfo,
                      fn: ast.FunctionDef) -> str:
        for key, node in index.functions.items():
            if node is fn:
                return key
        return f"{info.module}.{fn.name}"

    # -- unpicklable attrs on pickle-reachable classes ------------------ #
    def _check_unpicklable_attrs(
        self, index: ProjectIndex, info: ClassInfo
    ) -> Iterator[Violation]:
        reachable = (index.is_subclass_of(info, VISITOR_BASES)
                     or _snapshot_pair(index, info) is not None)
        if not reachable:
            return
        for m in info.methods.values():
            for node in ast.walk(m):
                if not isinstance(node, ast.Assign):
                    continue
                if not isinstance(node.value, _UNPICKLABLE_VALUE_KINDS):
                    continue
                for t in node.targets:
                    attr = _self_attr(t)
                    if attr is None:
                        continue
                    kind = ("lambda"
                            if isinstance(node.value, ast.Lambda)
                            else "generator expression")
                    yield Violation(
                        info.path, node.lineno, node.col_offset + 1,
                        self.code,
                        f"class {info.name}: 'self.{attr}' holds a {kind}, "
                        f"which cannot pickle across worker pipes or into "
                        f"a checkpoint section; use a module-level "
                        f"function or precomputed state")


# --------------------------------------------------------------------- #
# RPR007: snapshot/restore symmetry (cross-module)
# --------------------------------------------------------------------- #


@register
class SnapshotSymmetry(ProjectRule):
    """See module docstring — RPR007."""

    code = "RPR007"
    summary = "snapshot_state/restore_state must cover the same attrs"

    def check_project(self, index: ProjectIndex) -> list[Violation]:
        out: list[Violation] = []
        for info in index.iter_classes():
            pair = _snapshot_pair(index, info)
            if pair is None:
                out.extend(self._check_orphan_half(index, info))
                continue
            (snap_cls, snap_fn), (restore_cls, restore_fn), inherited = pair
            if inherited:
                out.extend(self._check_inherited_completeness(
                    index, info, snap_fn, restore_fn))
            if snap_cls.key != info.key and restore_cls.key != info.key:
                # Symmetry of the pair itself is checked once, on the
                # class that defines it, not on every subclass.
                continue
            out.extend(self._check_symmetry(
                index, info, snap_fn, restore_fn))
        return out

    def _check_orphan_half(
        self, index: ProjectIndex, info: ClassInfo
    ) -> Iterator[Violation]:
        """A class shipping one half of a pair cannot round-trip a
        checkpoint at all — the durability layer would snapshot it and
        then have no way to reinstall it (or vice versa)."""
        for snap_name, restore_name in SNAPSHOT_PAIRS:
            snap = index.mro_method(info, snap_name)
            restore = index.mro_method(info, restore_name)
            if snap is not None and restore is None:
                fn = snap[1]
                yield Violation(
                    info.path, fn.lineno, fn.col_offset + 1, self.code,
                    f"class {info.name} defines {snap_name}() but no "
                    f"{restore_name}(); a checkpoint of this class can "
                    f"never be reinstalled")
            elif restore is not None and snap is None:
                fn = restore[1]
                yield Violation(
                    info.path, fn.lineno, fn.col_offset + 1, self.code,
                    f"class {info.name} defines {restore_name}() but no "
                    f"{snap_name}(); there is nothing for it to restore "
                    f"from")

    def _check_symmetry(
        self, index: ProjectIndex, info: ClassInfo,
        snap_fn: ast.FunctionDef, restore_fn: ast.FunctionDef,
    ) -> Iterator[Violation]:
        if _uses_dynamic_attrs(snap_fn) or _uses_dynamic_attrs(restore_fn):
            return
        snap_attrs = _method_self_attrs(snap_fn)
        restore_attrs = _method_self_attrs(restore_fn)
        chain = index.mro_chain(info)
        rebound = _rebound_outside_init(chain)
        init_attrs: set[str] = set()
        for c in chain:
            init = c.methods.get("__init__")
            if init is not None:
                init_attrs.update(n for n, _ in _assigned_self_attrs(init))
        wiring = init_attrs - rebound
        for attr in sorted(snap_attrs - restore_attrs):
            if attr in wiring:
                continue
            yield Violation(
                info.path, snap_fn.lineno, snap_fn.col_offset + 1, self.code,
                f"class {info.name}: 'self.{attr}' is saved by "
                f"{snap_fn.name}() but never reinstalled by "
                f"{restore_fn.name}(); a restore would silently keep the "
                f"pre-crash value")
        for attr in sorted(restore_attrs - snap_attrs):
            if attr in wiring:
                continue
            if _constant_only_writes(restore_fn, attr):
                continue  # deliberate reset-on-restore, not a round-trip
            yield Violation(
                info.path, restore_fn.lineno, restore_fn.col_offset + 1,
                self.code,
                f"class {info.name}: {restore_fn.name}() touches "
                f"'self.{attr}' which {snap_fn.name}() never saves; the "
                f"restore depends on state the checkpoint does not carry")

    def _check_inherited_completeness(
        self, index: ProjectIndex, info: ClassInfo,
        snap_fn: ast.FunctionDef, restore_fn: ast.FunctionDef,
    ) -> Iterator[Violation]:
        """RPR004, but across modules: the pair lives on a base class the
        single-file walk cannot see from the subclass's file."""
        init = info.methods.get("__init__")
        if init is None:
            return
        if _uses_dynamic_attrs(snap_fn) or _uses_dynamic_attrs(restore_fn):
            return
        covered = _method_self_attrs(snap_fn) | _method_self_attrs(restore_fn)
        # The subclass may extend the pair locally; count its own
        # overrides as coverage too.
        for name in ("snapshot_state", "restore_state", "snapshot", "restore"):
            own = info.methods.get(name)
            if own is not None:
                covered |= _method_self_attrs(own)
        rebound = _rebound_outside_init([info])
        init_lines: dict[str, int] = {}
        for name, lineno in _assigned_self_attrs(init):
            init_lines.setdefault(name, lineno)
        for name, lineno in sorted(init_lines.items(), key=lambda kv: kv[1]):
            if name in covered or name not in rebound:
                continue
            if info.ctx.suppressions.is_volatile(lineno):
                continue
            yield Violation(
                info.path, lineno, 1, self.code,
                f"class {info.name}: 'self.{name}' is assigned in __init__ "
                f"and mutated later, but the inherited snapshot/restore "
                f"pair never covers it; snapshot it, override the pair, or "
                f"mark it '# repro-lint: volatile -- reason'")


# --------------------------------------------------------------------- #
# RPR008: stats-field registration
# --------------------------------------------------------------------- #

_STATS_CLASS = "TraversalStats"
_STATS_TUPLES = ("SUPERVISION_STATS_FIELDS", "DURABILITY_STATS_FIELDS")
_SUPERVISION_PREFIXES = ("worker_", "supervision_")
_SUPERVISION_EXTRAS = frozenset({"degraded_ranks"})
_DURABILITY_PREFIX = "durable_"
#: Local names a mutation target must hang off to count as "the stats
#: object" (``stats.X += 1``, ``self.stats.X = ...``, ``self._stats...``).
_STATS_NAMES = frozenset({"stats", "_stats"})


@register
class StatsRegistration(ProjectRule):
    """See module docstring — RPR008."""

    code = "RPR008"
    summary = "mutated stats counters must be declared & registered"
    scoped_dirs = ("runtime", "comm")

    def check_project(self, index: ProjectIndex) -> list[Violation]:
        stats = self._find_stats_class(index)
        if stats is None:
            return []
        declared, decl_lines = self._declared_fields(stats)
        properties = {
            n.name for n in stats.node.body
            if isinstance(n, ast.FunctionDef)
            and any(isinstance(d, ast.Name) and d.id == "property"
                    for d in n.decorator_list)
        }
        tuples = self._field_tuples(stats.ctx)

        out: list[Violation] = []
        out.extend(self._check_mutations(index, declared | properties))
        out.extend(self._check_families(stats, declared, decl_lines, tuples))
        out.extend(self._check_tuple_entries(stats, declared, tuples))
        return out

    # ------------------------------------------------------------------ #
    @staticmethod
    def _find_stats_class(index: ProjectIndex) -> ClassInfo | None:
        candidates = index.by_name.get(_STATS_CLASS, [])
        for c in candidates:
            if c.path.endswith("trace.py"):
                return c
        return candidates[0] if candidates else None

    @staticmethod
    def _declared_fields(stats: ClassInfo) -> tuple[set[str], dict[str, int]]:
        declared: set[str] = set()
        lines: dict[str, int] = {}
        for node in stats.node.body:
            target = None
            if isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                              ast.Name):
                target = node.target
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and isinstance(node.targets[0], ast.Name)):
                target = node.targets[0]
            if target is not None:
                declared.add(target.id)
                lines[target.id] = target.lineno
        return declared, lines

    @staticmethod
    def _field_tuples(ctx) -> dict[str, tuple[frozenset[str], int]]:
        """Module-level ``*_STATS_FIELDS`` tuples: name -> (entries, line)."""
        out: dict[str, tuple[frozenset[str], int]] = {}
        for node in ctx.tree.body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name = node.targets[0].id
            if name not in _STATS_TUPLES:
                continue
            if isinstance(node.value, (ast.Tuple, ast.List)):
                entries = frozenset(
                    e.value for e in node.value.elts
                    if isinstance(e, ast.Constant) and isinstance(e.value, str)
                )
                out[name] = (entries, node.lineno)
        return out

    # ------------------------------------------------------------------ #
    def _check_mutations(
        self, index: ProjectIndex, known: set[str]
    ) -> Iterator[Violation]:
        for path, ctx in sorted(index.files.items()):
            if not set(Path(path).parts) & set(self.scoped_dirs):
                continue
            for node in ast.walk(ctx.tree):
                targets: list[ast.expr] = []
                if isinstance(node, ast.AugAssign):
                    targets = [node.target]
                elif isinstance(node, ast.Assign):
                    targets = list(node.targets)
                for t in targets:
                    if not isinstance(t, ast.Attribute):
                        continue
                    base = t.value
                    base_name = (base.id if isinstance(base, ast.Name)
                                 else base.attr
                                 if isinstance(base, ast.Attribute) else None)
                    if base_name not in _STATS_NAMES:
                        continue
                    if t.attr in known:
                        continue
                    yield Violation(
                        path, t.lineno, t.col_offset + 1, self.code,
                        f"'stats.{t.attr}' is mutated here but is not a "
                        f"declared TraversalStats field; declare it (and "
                        f"register it in the summary()/*_STATS_FIELDS "
                        f"reporting surface) or the equivalence gates "
                        f"cannot see it")

    def _check_families(
        self, stats: ClassInfo, declared: set[str],
        decl_lines: dict[str, int],
        tuples: dict[str, tuple[frozenset[str], int]],
    ) -> Iterator[Violation]:
        supervision = tuples.get(_STATS_TUPLES[0], (frozenset(), 0))[0]
        durability = tuples.get(_STATS_TUPLES[1], (frozenset(), 0))[0]
        for name in sorted(declared):
            line = decl_lines.get(name, stats.node.lineno)
            in_supervision_family = (
                name.startswith(_SUPERVISION_PREFIXES)
                or name in _SUPERVISION_EXTRAS)
            if in_supervision_family and name not in supervision:
                yield Violation(
                    stats.path, line, 1, self.code,
                    f"TraversalStats.{name} belongs to the supervision "
                    f"counter family but is missing from "
                    f"SUPERVISION_STATS_FIELDS; the worker-chaos "
                    f"bit-identity gate would wrongly compare it")
            elif name.startswith(_DURABILITY_PREFIX) and name not in durability:
                yield Violation(
                    stats.path, line, 1, self.code,
                    f"TraversalStats.{name} belongs to the durability "
                    f"counter family but is missing from "
                    f"DURABILITY_STATS_FIELDS; the crash-restart "
                    f"bit-identity gate would wrongly compare it")

    def _check_tuple_entries(
        self, stats: ClassInfo, declared: set[str],
        tuples: dict[str, tuple[frozenset[str], int]],
    ) -> Iterator[Violation]:
        for tuple_name, (entries, line) in sorted(tuples.items()):
            for entry in sorted(entries - declared):
                yield Violation(
                    stats.path, line, 1, self.code,
                    f"{tuple_name} lists '{entry}' which is not a declared "
                    f"TraversalStats field; the exclusion is dead and the "
                    f"gates' field arithmetic is off by one")


# --------------------------------------------------------------------- #
# RPR009: fork-safety
# --------------------------------------------------------------------- #

_FORK_UNSAFE_CTORS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore", "threading.BoundedSemaphore",
    "threading.Barrier", "multiprocessing.Lock", "multiprocessing.RLock",
    "multiprocessing.Queue", "multiprocessing.SimpleQueue",
    "multiprocessing.Condition", "multiprocessing.Event",
    "multiprocessing.Semaphore", "socket.socket",
})
_FORK_UNSAFE_BARE = frozenset({"open"})


@register
class ForkSafety(ProjectRule):
    """See module docstring — RPR009."""

    code = "RPR009"
    summary = "no fork-crossing OS resources on simulation state"
    scoped_dirs = ("runtime", "comm", "memory", "core")

    def check_project(self, index: ProjectIndex) -> list[Violation]:
        out: list[Violation] = []
        for path, ctx in sorted(index.files.items()):
            if not set(Path(path).parts) & set(self.scoped_dirs):
                continue
            # Module-level persistent resources.
            for node in ctx.tree.body:
                if isinstance(node, ast.Assign):
                    kind = self._unsafe_ctor(ctx, node.value)
                    if kind is not None:
                        out.append(Violation(
                            path, node.lineno, node.col_offset + 1, self.code,
                            f"module-level {kind} is created at import time "
                            f"and duplicated by every forked worker; create "
                            f"it per-process or route it through the "
                            f"WorkerPool pipe protocol"))
        for info in index.iter_classes():
            if not set(Path(info.path).parts) & set(self.scoped_dirs):
                continue
            checkpointed = _snapshot_pair(index, info) is not None
            for m in info.methods.values():
                for node in ast.walk(m):
                    if not isinstance(node, ast.Assign):
                        continue
                    kind = self._unsafe_ctor(info.ctx, node.value)
                    if kind is None:
                        continue
                    for t in node.targets:
                        attr = _self_attr(t)
                        if attr is None:
                            continue
                        extra = (" — and this class is checkpointed, so the "
                                 "handle would also be pickled into a "
                                 "durable section" if checkpointed else "")
                        out.append(Violation(
                            info.path, node.lineno, node.col_offset + 1,
                            self.code,
                            f"class {info.name}: 'self.{attr}' persists a "
                            f"{kind} across ticks; it crosses the fork "
                            f"boundary un-reopened and breaks re-forked "
                            f"worker pools{extra}"))
        return out

    @staticmethod
    def _unsafe_ctor(ctx, value: ast.expr) -> str | None:
        if not isinstance(value, ast.Call):
            return None
        dotted = ctx.imports.resolve(value.func)
        if dotted in _FORK_UNSAFE_CTORS:
            return f"'{dotted}()' resource"
        if (isinstance(value.func, ast.Name)
                and value.func.id in _FORK_UNSAFE_BARE):
            return "file handle (open(...))"
        return None
