"""Interprocedural function summaries over the project call graph.

Each project function gets a :class:`FunctionSummary` with three facts the
domain rules consume:

* **may-block** — the function, or anything it (transitively) calls,
  performs blocking work: ``time.sleep``, a condition/event ``.wait()``,
  blocking I/O (``open``/``input``), a retrain/rebuild entry point, a
  retraining sweep, or a ``retrain_lock`` acquisition. RL001 flags any
  call inside a ``query_lock`` body whose summary may block — that is the
  helper-indirection blind spot the lexical rule had.
* **acquires-retrain-lock** — the function enters ``with retrain_lock``
  somewhere in its body (directly or transitively). Acquiring the
  exclusive lock from under a shared query lock is a lock-order inversion
  that deadlocks against the retrainer's reader drain.
* **mutates-counters** — the function writes a
  :class:`~repro.baselines.counters.Counters` field through a counters
  receiver. RL007 uses this to prove diagnostic functions counter-neutral.

Propagation is a reverse-edge worklist: start from the functions with a
direct fact and push it caller-ward until fixpoint. The worklist marks
each function at most once per fact, so recursion and mutual-recursion
cycles terminate trivially, and every propagated fact carries a witness
chain (``f -> g -> h: time.sleep``) so a finding three hops from the
blocking call still reads like a diagnosis instead of an accusation.

The fault-injection module (:mod:`repro.robustness.faults`) is exempt from
blocking facts by design: its injected delays are the chaos harness's
instrument — they *simulate* slow operations under test and are compiled
out in production paths — so routing every hot path's ``fire()`` hook into
a "may block" verdict would poison the whole graph.

The durability layer (:mod:`repro.robustness.durability`) is exempt for a
different reason: it deliberately mirrors the index write API
(``insert``/``delete``/``delete_batch``), and name-based call resolution
would route the index's *internal* calls to those names through the
WAL-backed wrapper, tagging every locked hot path as blocking. The wrapper
is apply-then-log — the WAL write happens strictly after the index call
returns and releases its interval locks — so its (real) file I/O can never
execute under a query lock.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .callgraph import CallGraph, FunctionInfo, FunctionNode

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .context import ModuleContext

LOCK_METHODS = ("query_lock", "retrain_lock")

#: Call-name fragments that count as blocking work.
BLOCKING_FRAGMENTS = ("retrain", "rebuild")
#: Exact terminal names that count as blocking work. "join" is deliberately
#: absent: str.join is ubiquitous and harmless. "fsync" waits on the disk
#: and is the single slowest syscall in the durability layer.
BLOCKING_EXACT = ("sleep", "sweep_once", "wait", "fsync")
#: Blocking I/O builtins (flagged only as plain-name calls).
BLOCKING_BUILTINS = ("open", "input")

#: Modules whose functions never receive blocking facts (see docstring).
BLOCKING_EXEMPT_MODULES = (
    "repro.robustness.faults",
    "repro.robustness.durability",
)

#: Receiver identifiers that designate a Counters instance by convention
#: (shared with RL002).
COUNTER_RECEIVERS = frozenset({"counters", "_counters", "ctrs"})


@dataclass
class FunctionSummary:
    """Computed facts for one project function.

    ``blocking_chain`` / ``retrain_lock_chain`` are witness call paths:
    the first element is the function itself, the last is the function
    containing the direct fact; ``blocking_reason`` describes that direct
    fact (e.g. ``"blocking call 'sleep'"``).
    """

    qname: str
    blocks_directly: bool = False
    blocking_reason: str | None = None
    may_block: bool = False
    blocking_chain: tuple[str, ...] = ()
    acquires_retrain_lock: bool = False
    retrain_lock_chain: tuple[str, ...] = ()
    mutates_counters: bool = False
    counter_chain: tuple[str, ...] = ()
    #: Lock identities this function may acquire, directly or through any
    #: callee, each with its witness call chain (first element is this
    #: function, last is the function containing the ``with``). Feeds the
    #: RL009 lock-order graph.
    acquires_locks: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def chain_text(self) -> str:
        """Human-readable witness, ``f -> g -> h``, bare names only."""
        return " -> ".join(q.rsplit(".", 1)[-1] for q in self.blocking_chain)


def blocking_reason_of(call: ast.Call) -> str | None:
    """Why one call expression is considered blocking, or None.

    This is the *direct* (lexical) classification shared with RL001: exact
    names, retrain/rebuild fragments, and the I/O builtins.
    """
    func = call.func
    name = _terminal(func)
    if name is None:
        return None
    if is_asyncio_call(func):
        # asyncio.sleep / asyncio.wait / loop.run_in_executor are the
        # *cooperative* counterparts — awaiting them is the fix RL010
        # recommends, so they must never classify as blocking.
        return None
    if isinstance(func, ast.Name) and name in BLOCKING_BUILTINS:
        return f"blocking I/O builtin {name!r}"
    if name in BLOCKING_EXACT:
        return f"blocking call {name!r}"
    if name in LOCK_METHODS:
        return None  # lock acquisitions are classified separately
    for fragment in BLOCKING_FRAGMENTS:
        if fragment in name:
            return f"{fragment} call {name!r}"
    return None


@dataclass
class SummaryTable:
    """All function summaries for one project, keyed by qname."""

    graph: CallGraph
    summaries: dict[str, FunctionSummary] = field(default_factory=dict)

    def get(self, qname: str) -> FunctionSummary | None:
        return self.summaries.get(qname)

    def may_block(self, qname: str) -> bool:
        summary = self.summaries.get(qname)
        return bool(summary and summary.may_block)

    def mutates_counters(self, qname: str) -> bool:
        summary = self.summaries.get(qname)
        return bool(summary and summary.mutates_counters)


def compute_summaries(graph: CallGraph) -> SummaryTable:
    """Direct-fact scan plus caller-ward fixpoint over ``graph``."""
    table = SummaryTable(graph=graph)
    for qname, info in graph.functions.items():
        summary = _direct_facts(qname, info)
        summary.acquires_locks = {
            site.lock: (qname,) for site in graph.lock_sites.get(qname, [])
        }
        table.summaries[qname] = summary

    reverse: dict[str, set[str]] = {}
    for caller, callees in graph.edges.items():
        for callee in callees:
            reverse.setdefault(callee, set()).add(caller)

    _propagate(
        table,
        reverse,
        fact="may_block",
        chain="blocking_chain",
        honor_exemptions=True,
    )
    _propagate(
        table,
        reverse,
        fact="acquires_retrain_lock",
        chain="retrain_lock_chain",
        honor_exemptions=True,
    )
    _propagate(
        table,
        reverse,
        fact="mutates_counters",
        chain="counter_chain",
    )
    _propagate_locks(table, reverse)
    return table


def _module_exempt(module: str) -> bool:
    return any(
        module == mod or module.startswith(mod + ".")
        for mod in BLOCKING_EXEMPT_MODULES
    )


def _propagate(
    table: SummaryTable,
    reverse: dict[str, set[str]],
    fact: str,
    chain: str,
    honor_exemptions: bool = False,
) -> None:
    """Caller-ward fixpoint for one fact.

    With ``honor_exemptions`` (the blocking facts), functions in
    :data:`BLOCKING_EXEMPT_MODULES` never *receive* the fact — neither
    directly (handled in ``_direct_facts``) nor by propagation — so an
    exempt module is a wall, not merely a non-source: chains through the
    fault injector or the durability wrapper stop at its boundary. The
    lock protocol's own context managers (:data:`LOCK_METHODS`) are a wall
    too: the condition waits inside the guard they return are the
    sanctioned blocking.
    """
    worklist = [q for q, s in table.summaries.items() if getattr(s, fact)]
    while worklist:
        callee = worklist.pop()
        callee_summary = table.summaries[callee]
        for caller in reverse.get(callee, ()):
            caller_summary = table.summaries.get(caller)
            if caller_summary is None or getattr(caller_summary, fact):
                continue  # already known: cycle-safe, each node flips once
            if honor_exemptions:
                info = table.graph.functions.get(caller)
                if info is not None and (
                    _module_exempt(info.module) or info.name in LOCK_METHODS
                ):
                    continue
            setattr(caller_summary, fact, True)
            setattr(
                caller_summary,
                chain,
                (caller,) + getattr(callee_summary, chain),
            )
            if fact == "may_block" and caller_summary.blocking_reason is None:
                caller_summary.blocking_reason = callee_summary.blocking_reason
            worklist.append(caller)


def _propagate_locks(table: SummaryTable, reverse: dict[str, set[str]]) -> None:
    """Caller-ward fixpoint for the per-lock acquisition fact.

    Unlike the boolean facts this merges a *dict* (lock -> witness chain)
    and a function can be re-queued when a new lock reaches it. The lock
    protocol's own context managers (functions named ``query_lock`` /
    ``retrain_lock``) never propagate their internal mutex acquisitions to
    callers: those mutexes are released before the generator yields, so
    they are not held across the caller's body and cannot order-deadlock
    against anything the caller does.
    """
    work = [q for q, s in table.summaries.items() if s.acquires_locks]
    while work:
        callee = work.pop()
        info = table.graph.functions.get(callee)
        if info is not None and info.name in LOCK_METHODS:
            continue
        callee_summary = table.summaries[callee]
        for caller in reverse.get(callee, ()):
            caller_summary = table.summaries.get(caller)
            if caller_summary is None:
                continue
            changed = False
            for lock, chain in callee_summary.acquires_locks.items():
                if lock not in caller_summary.acquires_locks:
                    caller_summary.acquires_locks[lock] = (caller,) + chain
                    changed = True
            if changed:
                work.append(caller)


def _direct_facts(qname: str, info: FunctionInfo) -> FunctionSummary:
    summary = FunctionSummary(qname=qname)
    exempt = any(
        info.module == mod or info.module.startswith(mod + ".")
        for mod in BLOCKING_EXEMPT_MODULES
    )

    lock_contexts: set[int] = set()
    for node in ast.walk(info.node):
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                expr = item.context_expr
                if _is_lock_call(expr):
                    lock_contexts.add(id(expr))
                    assert isinstance(expr, ast.Call)
                    assert isinstance(expr.func, ast.Attribute)
                    if expr.func.attr == "retrain_lock" and not exempt:
                        summary.acquires_retrain_lock = True
                        summary.retrain_lock_chain = (qname,)

    if info.name in LOCK_METHODS:
        # The lock manager's own context managers (and forwarding wrappers
        # over them) *are* the protocol — their internal condition waits
        # are the sanctioned blocking, not a violation to propagate.
        exempt = True

    for node in ast.walk(info.node):
        if isinstance(node, ast.Call) and not exempt:
            if id(node) in lock_contexts:
                continue
            if summary.blocks_directly:
                continue
            reason = blocking_reason_of(node)
            if reason is not None:
                summary.blocks_directly = True
                summary.may_block = True
                summary.blocking_reason = reason
                summary.blocking_chain = (qname,)
        elif isinstance(node, (ast.AugAssign, ast.Assign)):
            target = node.target if isinstance(node, ast.AugAssign) else None
            targets = [target] if target is not None else list(node.targets)  # type: ignore[union-attr]
            for tgt in targets:
                if (
                    isinstance(tgt, ast.Attribute)
                    and _receiver_is_counters(tgt)
                    and not summary.mutates_counters
                ):
                    summary.mutates_counters = True
                    summary.counter_chain = (qname,)
    if summary.acquires_retrain_lock and not summary.may_block:
        # Taking the exclusive lock waits for the interval's readers to
        # drain, so it is blocking work in its own right.
        summary.may_block = True
        summary.blocking_reason = "retrain_lock acquisition"
        summary.blocking_chain = (qname,)
    return summary


def is_asyncio_call(func: ast.AST) -> bool:
    """True for ``asyncio.<...>.<name>(...)`` dotted call targets."""
    while isinstance(func, ast.Attribute):
        func = func.value
    return isinstance(func, ast.Name) and func.id == "asyncio"


def _is_lock_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in LOCK_METHODS
    )


def _receiver_is_counters(target: ast.Attribute) -> bool:
    value = target.value
    name = _terminal(value)
    return name in COUNTER_RECEIVERS


def _terminal(node: ast.AST) -> str | None:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def enclosing_class_of(
    tree: ast.Module, target: FunctionNode
) -> str | None:  # pragma: no cover - convenience for rules
    """Name of the class lexically enclosing ``target``, if any."""
    result: list[str | None] = [None]

    class V(ast.NodeVisitor):
        def __init__(self) -> None:
            self.cls: list[str] = []

        def visit_ClassDef(self, node: ast.ClassDef) -> None:
            self.cls.append(node.name)
            self.generic_visit(node)
            self.cls.pop()

        def generic_visit(self, node: ast.AST) -> None:
            if node is target and self.cls:
                result[0] = self.cls[-1]
            super().generic_visit(node)

    V().visit(tree)
    return result[0]
