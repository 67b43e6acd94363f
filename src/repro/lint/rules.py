"""The project-specific rules: the repo's contracts, statically enforced.

Each rule encodes an invariant the codebase already documents but until
now only enforced through scattered subprocess guards and review
attention (see ``docs/static-analysis.md`` for the catalog, the PR that
motivated each rule, and the fix recipes).  Rules are deliberately
*syntactic*: they flag the constructs that can break a contract, not
every semantic path that might — a static pass that needs no type
inference stays fast, predictable, and explainable in one sentence.

Checker protocol (see :mod:`repro.lint.registry`): a class with an
``interests`` tuple of AST node types and a ``check(node, ctx)``
generator yielding ``(node, message, hint)`` violations; one instance
per file, dispatched by the single-pass walker in
:mod:`repro.lint.analysis`.
"""

from __future__ import annotations

import ast
from typing import Iterator, Tuple

from .registry import register_lint_rule

Violation = Tuple[ast.AST, str, str]

#: Modules whose results must stay bit-identical across runs, backends
#: and worker counts — the scope of the determinism rules.
DETERMINISTIC_MODULES = ("repro.core", "repro.scoring", "repro.kernel")


def _call_name(node: ast.AST) -> str:
    """Dotted name of a call target / attribute chain, best effort."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    elif isinstance(node, ast.Call):
        return _call_name(node.func) + "()"
    return ".".join(reversed(parts))


def _mentions_score(node: ast.AST) -> bool:
    """Whether an expression's identifiers mark it as score-valued."""
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = sub.name
        if name is not None and "score" in name.lower():
            return True
    return False


def _is_inf_sentinel(node: ast.AST) -> bool:
    """``float("inf")`` / ``float("-inf")`` / ``math.inf`` expressions.

    Comparing a score against an infinity *sentinel* is exact by
    construction (the sentinel is assigned, never computed), so the
    float-discipline rule exempts it.
    """
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if (
        isinstance(node, ast.Call)
        and _call_name(node.func) == "float"
        and len(node.args) == 1
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
        and "inf" in node.args[0].value.lower()
    ):
        return True
    return _call_name(node) in ("math.inf", "math.nan")


def _is_hex_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "hex"
    )


@register_lint_rule(
    "REP101",
    "optional-import-confinement",
    "numpy imports only inside repro.kernel.numpy_backend; multiprocessing "
    "never at module top level outside repro.parallel",
    modules=("repro",),
)
class OptionalImportConfinement:
    """Optional/heavy dependencies stay behind their lazy boundaries.

    ``repro.kernel.numpy_backend`` is itself imported lazily (only when
    the numpy backend is selected), so *any* numpy import elsewhere in
    the library would silently break the stdlib-only install path and
    the ``REPRO_KERNEL=python`` bit-identity leg.  ``multiprocessing``
    at module top level would start the machinery on plain imports —
    the serial path must never pay for (or fork under) a pool it did
    not ask for.
    """

    interests = (ast.Import, ast.ImportFrom)

    NUMPY_HOME = "repro.kernel.numpy_backend"
    MP_HOME = "repro.parallel"

    def check(self, node: ast.AST, ctx) -> Iterator[Violation]:
        """Flag numpy / top-level multiprocessing imports out of bounds."""
        roots = []
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            roots = [node.module.split(".")[0]]
        if "numpy" in roots and ctx.module != self.NUMPY_HOME:
            yield (
                node,
                "numpy must only be imported by repro.kernel.numpy_backend",
                "route array work through the kernel backend interface",
            )
        in_parallel = ctx.module == self.MP_HOME or ctx.module.startswith(
            self.MP_HOME + "."
        )
        if "multiprocessing" in roots and ctx.at_module_level() and not in_parallel:
            yield (
                node,
                "multiprocessing imported at module top level outside "
                "repro.parallel",
                "import it lazily inside the function that starts workers",
            )


@register_lint_rule(
    "REP102",
    "no-unordered-iteration",
    "no iteration over bare set/frozenset expressions in deterministic "
    "modules (scoring must not depend on hash order)",
    modules=DETERMINISTIC_MODULES,
)
class NoUnorderedIteration:
    """Bit-identical scoring forbids hash-order-dependent loops.

    Iterating a set directly is fine when the loop only *accumulates*
    order-independent state — but that is exactly the property reviews
    keep re-proving, so the deterministic core bans the construct
    outright: materialize an order first (``sorted(...)`` or an
    insertion-ordered list/dict).
    """

    interests = (
        ast.For,
        ast.comprehension,
    )

    def check(self, node: ast.AST, ctx) -> Iterator[Violation]:
        """Flag for/comprehension iteration over bare set expressions."""
        iterable = node.iter
        for bad, kind in (
            (ast.Set, "a set literal"),
            (ast.SetComp, "a set comprehension"),
        ):
            if isinstance(iterable, bad):
                yield (
                    iterable,
                    f"iteration over {kind} is hash-order dependent",
                    "materialize a deterministic order first (sorted(...))",
                )
                return
        if isinstance(iterable, ast.Call) and _call_name(iterable.func) in (
            "set",
            "frozenset",
        ):
            yield (
                iterable,
                f"iteration over a bare {_call_name(iterable.func)}(...) is "
                "hash-order dependent",
                "materialize a deterministic order first (sorted(...))",
            )


@register_lint_rule(
    "REP103",
    "no-wall-clock",
    "no wall-clock, unseeded randomness, or uuid calls in deterministic "
    "modules (same inputs must give bit-identical outputs)",
    modules=DETERMINISTIC_MODULES,
)
class NoWallClock:
    """Scoring results must be a pure function of their inputs.

    ``random.Random(seed)`` with an explicit seed is allowed — seeded
    generators are how the repo *makes* randomness deterministic; the
    module-level ``random.*`` functions (process-global state) and every
    clock read are not.
    """

    interests = (ast.Call,)

    FORBIDDEN = frozenset(
        {
            "time.time",
            "time.time_ns",
            "datetime.now",
            "datetime.utcnow",
            "datetime.today",
            "datetime.datetime.now",
            "datetime.datetime.utcnow",
            "uuid.uuid1",
            "uuid.uuid4",
            "os.urandom",
        }
    )

    def check(self, node: ast.Call, ctx) -> Iterator[Violation]:
        """Flag clock reads and unseeded randomness."""
        name = _call_name(node.func)
        if name in self.FORBIDDEN or name.startswith("secrets."):
            yield (
                node,
                f"call to {name}() makes results time/process dependent",
                "thread the value in as an argument instead",
            )
        elif name.startswith("random."):
            if name == "random.Random" and node.args:
                return  # seeded generator: the sanctioned idiom
            yield (
                node,
                f"call to {name}() uses unseeded/global randomness",
                "use random.Random(seed) threaded from the caller",
            )


@register_lint_rule(
    "REP104",
    "float-equality",
    "no ==/!= on score-valued expressions outside the conformance "
    "oracles (exact float comparison belongs to float.hex diffs)",
    modules=("repro",),
    exclude=("repro.workload.oracle",),
)
class FloatEquality:
    """Score comparisons must be hex-exact or ordered, never ``==``.

    The conformance oracles compare via ``float.hex`` (both sides
    ``.hex()`` — allowed); sentinel checks against ``float("-inf")`` /
    ``math.inf`` are exact by construction (allowed).  Everything else
    is a latent "works until the fifth decimal" bug.
    """

    interests = (ast.Compare,)

    def check(self, node: ast.Compare, ctx) -> Iterator[Violation]:
        """Flag ==/!= with a score-valued operand, minus exemptions."""
        operands = [node.left] + list(node.comparators)
        for index, op in enumerate(node.ops):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            left, right = operands[index], operands[index + 1]
            if not (_mentions_score(left) or _mentions_score(right)):
                continue
            if _is_inf_sentinel(left) or _is_inf_sentinel(right):
                continue
            if _is_hex_call(left) and _is_hex_call(right):
                continue
            yield (
                node,
                "==/!= on a score-valued expression",
                "compare float.hex() values, or an ordered <=/>= bound",
            )


@register_lint_rule(
    "REP105",
    "no-bare-except",
    "no bare `except:` anywhere (it swallows SystemExit and "
    "KeyboardInterrupt along with everything else)",
)
class NoBareExcept:
    """``except:`` catches even interpreter-shutdown signals."""

    interests = (ast.ExceptHandler,)

    def check(self, node: ast.ExceptHandler, ctx) -> Iterator[Violation]:
        """Flag handlers with no exception type."""
        if node.type is None:
            yield (
                node,
                "bare except: catches SystemExit/KeyboardInterrupt",
                "name the exceptions, or use `except Exception` and re-raise",
            )


@register_lint_rule(
    "REP106",
    "broad-except-swallow",
    "an `except Exception`/`except BaseException` handler must contain "
    "a raise (re-raise, or wrap into a ReproError subclass)",
    modules=("repro", "tools", "benchmarks", "examples"),
)
class BroadExceptSwallow:
    """Broad handlers may translate errors, never absorb them.

    The library's error contract (public entry points fail with
    :class:`~repro.exceptions.ReproError` subclasses) survives a broad
    catch only when the handler *raises* — either re-raising after
    cleanup/logging or wrapping into a structured error.  PR 5 shipped
    exactly this bug class: a raw ``TimeoutError`` leaking from
    ``ServeClient`` through a handler that forgot to wrap.
    """

    interests = (ast.ExceptHandler,)

    BROAD = frozenset({"Exception", "BaseException"})

    def _is_broad(self, annotation: ast.AST) -> bool:
        if isinstance(annotation, ast.Tuple):
            return any(self._is_broad(elt) for elt in annotation.elts)
        return _call_name(annotation) in self.BROAD

    def check(self, node: ast.ExceptHandler, ctx) -> Iterator[Violation]:
        """Flag broad handlers whose body never raises."""
        if node.type is None or not self._is_broad(node.type):
            return
        for sub in node.body:
            for stmt in ast.walk(sub):
                if isinstance(stmt, ast.Raise):
                    return
        yield (
            node,
            "except Exception handler swallows without re-raise/wrap",
            "re-raise after cleanup, or `raise ReproError(...) from exc`",
        )


@register_lint_rule(
    "REP107",
    "public-raise-policy",
    "public repro.* code raises only ReproError subclasses "
    "(callers catch one base class at API boundaries)",
    modules=("repro",),
)
class PublicRaisePolicy:
    """The exception hierarchy is part of the public API.

    ``raise ValueError(...)`` from a public entry point forces callers
    to guess which stdlib types a library call can leak.  Private
    helpers (an ``_underscored`` def/class anywhere on the enclosing
    stack) may use builtins freely; ``NotImplementedError`` stays legal
    everywhere (abstract-method stubs).
    """

    interests = (ast.Raise,)

    FORBIDDEN = frozenset(
        {
            "ValueError",
            "TypeError",
            "KeyError",
            "IndexError",
            "RuntimeError",
            "AttributeError",
            "Exception",
            "BaseException",
            "ArithmeticError",
            "ZeroDivisionError",
            "LookupError",
            "AssertionError",
            "StopIteration",
        }
    )

    def check(self, node: ast.Raise, ctx) -> Iterator[Violation]:
        """Flag builtin-exception raises on the public surface."""
        if node.exc is None or not ctx.in_public_api():
            return
        target = node.exc
        if isinstance(target, ast.Call):
            target = target.func
        name = _call_name(target)
        if name in self.FORBIDDEN:
            yield (
                node,
                f"public API raises builtin {name}",
                "raise a ReproError subclass from repro.exceptions instead",
            )


@register_lint_rule(
    "REP108",
    "async-no-blocking",
    "no blocking calls (time.sleep, subprocess, sync sockets, sync HTTP) "
    "inside `async def` bodies",
    modules=("repro",),
)
class AsyncNoBlocking:
    """One blocking call inside ``async def`` stalls every connection.

    The serve tier runs a single event loop; blocking work belongs on
    the per-host worker thread (a nested synchronous ``def`` handed to
    the executor — which this rule deliberately does not descend into).
    """

    interests = (ast.Call,)

    BLOCKING_PREFIXES = ("subprocess.", "socket.", "urllib.", "requests.")
    BLOCKING_CALLS = frozenset(
        {
            "time.sleep",
            "os.system",
            "os.popen",
            "os.waitpid",
            "input",
        }
    )

    def check(self, node: ast.Call, ctx) -> Iterator[Violation]:
        """Flag known-blocking calls whose innermost scope is async."""
        if not ctx.in_async_function():
            return
        name = _call_name(node.func)
        if name in self.BLOCKING_CALLS or any(
            name.startswith(prefix) for prefix in self.BLOCKING_PREFIXES
        ):
            yield (
                node,
                f"blocking call {name}() inside async def",
                "await an async equivalent, or run it on the worker thread",
            )


@register_lint_rule(
    "REP109",
    "serve-worker-thread",
    "engine/graph method calls inside repro.serve async code go through "
    "the worker-thread helper, never straight from the event loop",
    modules=("repro.serve",),
)
class ServeWorkerThread:
    """Engine caches are single-threaded by construction — keep them so.

    Inside an ``async def``, a direct ``self.engine.run(...)`` /
    ``self.graph.add_entity(...)`` call would race the worker thread
    every other computation runs on.  The sanctioned shape is a nested
    synchronous closure handed to ``EngineHost._on_worker`` (the rule
    does not descend into nested sync defs, so those closures stay
    legal).  Attribute *reads* (``self.graph.generation``) stay legal
    too — the documented consistent-snapshot idiom.
    """

    interests = (ast.Call,)

    GUARDED = ("engine", "graph")

    def check(self, node: ast.Call, ctx) -> Iterator[Violation]:
        """Flag self.engine./self.graph. method calls in async defs."""
        if not ctx.in_async_function():
            return
        name = _call_name(node.func)
        parts = name.split(".")
        if len(parts) >= 3 and parts[0] == "self" and parts[1] in self.GUARDED:
            yield (
                node,
                f"direct {'.'.join(parts[:2])} method call on the event loop",
                "wrap it in a sync closure and await _on_worker(closure)",
            )


@register_lint_rule(
    "REP110",
    "env-var-registry",
    "every REPRO_* environment read goes through repro.config "
    "(the declared-knob registry)",
    exclude=("repro.config",),
)
class EnvVarRegistry:
    """All runtime knobs are declared in one place.

    A raw ``os.environ.get("REPRO_X")`` is invisible to docs, to
    ``repro.config.knob_catalog`` and to operators; reads must go
    through the typed accessors so the knob set stays enumerable.
    Writes (test ``monkeypatch.setenv``, subprocess env dicts) are not
    reads and stay legal.  The checker keeps per-file state: simple
    module-level ``ENV_X = "REPRO_..."`` constants are tracked, so a
    read through such a constant is caught too — checkers are
    instantiated once per file precisely to allow this.
    """

    interests = (ast.Call, ast.Subscript, ast.Assign)

    READERS = frozenset({"os.environ.get", "os.getenv", "environ.get"})

    def __init__(self) -> None:
        self._constants: dict = {}

    def _repro_name(self, node: ast.AST) -> str:
        """The REPRO_* variable an expression names, or ``""``."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            value = node.value
        elif isinstance(node, ast.Name):
            value = self._constants.get(node.id, "")
        else:
            return ""
        return value if value.startswith("REPRO_") else ""

    def check(self, node: ast.AST, ctx) -> Iterator[Violation]:
        """Flag REPRO_* reads; record module-level string constants."""
        if isinstance(node, ast.Assign):
            if (
                ctx.at_module_level()
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self._constants[target.id] = node.value.value
            return
        if isinstance(node, ast.Call):
            if _call_name(node.func) in self.READERS and node.args:
                var = self._repro_name(node.args[0])
                if var:
                    yield (
                        node,
                        f"raw environment read of {var}",
                        "use the typed accessors in repro.config",
                    )
        elif isinstance(node, ast.Subscript):
            if isinstance(node.ctx, ast.Load) and _call_name(node.value) in (
                "os.environ",
                "environ",
            ):
                var = self._repro_name(node.slice)
                if var:
                    yield (
                        node,
                        f"raw environment read of {var}",
                        "use the typed accessors in repro.config",
                    )


@register_lint_rule(
    "REP111",
    "registry-discipline",
    "algorithm/scorer/rule registries are mutated only through their "
    "sanctioned decorators, never by direct subscript/update",
    modules=("repro",),
    exclude=("repro.core.registry", "repro.scoring.base", "repro.lint.registry"),
)
class RegistryDiscipline:
    """Registries are written through decorators, read everywhere.

    Direct ``DISCOVERY_ALGORITHMS[name] = ...`` bypasses the validation
    the decorators perform (shape checking, non-empty names) and hides
    registrations from grep.  Each registry's defining module is
    excluded — that is where the decorator itself writes.
    """

    interests = (ast.Subscript, ast.Call, ast.Delete)

    REGISTRIES = frozenset(
        {
            "DISCOVERY_ALGORITHMS",
            "KEY_SCORERS",
            "NONKEY_SCORERS",
            "LINT_RULES",
        }
    )
    MUTATORS = frozenset({"update", "setdefault", "pop", "clear"})

    def _registry_name(self, node: ast.AST) -> str:
        name = _call_name(node)
        return name.split(".")[-1] if name else ""

    def check(self, node: ast.AST, ctx) -> Iterator[Violation]:
        """Flag subscript/del/mutator-method writes to the registries."""
        if isinstance(node, ast.Subscript):
            if isinstance(node.ctx, (ast.Store, ast.Del)) and (
                self._registry_name(node.value) in self.REGISTRIES
            ):
                yield (
                    node,
                    "direct mutation of registry "
                    f"{self._registry_name(node.value)}",
                    "register through the sanctioned decorator instead",
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self.MUTATORS
                and self._registry_name(func.value) in self.REGISTRIES
            ):
                yield (
                    node,
                    f"registry {self._registry_name(func.value)} mutated via "
                    f".{func.attr}()",
                    "register through the sanctioned decorator instead",
                )


@register_lint_rule(
    "REP112",
    "public-docstrings",
    "exported public symbols (module-level defs/classes and public "
    "methods of public classes) carry docstrings",
    modules=("repro",),
)
class PublicDocstrings:
    """The docs tree resolves ``file:symbol`` references; keep them real.

    Dunder methods other than ``__init__`` are exempt (their contracts
    are the language's); private names are exempt; ``__init__`` is
    exempt when its class is documented (the class docstring carries the
    parameter table, the repo's established style).
    """

    interests = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def check(self, node: ast.AST, ctx) -> Iterator[Violation]:
        """Flag undocumented public defs/classes at reportable depth."""
        name = node.name
        if name.startswith("_"):
            return
        if not ctx.in_public_api():
            return
        if ctx.function_stack:
            return  # nested defs are implementation detail
        if ast.get_docstring(node) is None:
            kind = "class" if isinstance(node, ast.ClassDef) else "function"
            yield (
                node,
                f"public {kind} {name} has no docstring",
                "document it; docs/ file:symbol references depend on these",
            )


@register_lint_rule(
    "REP113",
    "collector-confinement",
    "the cyclic garbage collector is paused and resumed only by the "
    "entity graph's bulk-load path (repro.model.entity_graph)",
    modules=("repro",),
    exclude=("repro.model.entity_graph",),
)
class CollectorConfinement:
    """One place toggles the process-wide garbage collector.

    ``gc.disable``/``gc.enable``/``gc.freeze``/``gc.unfreeze`` change
    state every thread shares, so overlapping callers must agree on who
    restores it.  :meth:`~repro.model.entity_graph.EntityGraph.bulk_load`
    owns that bookkeeping (a shared pause depth); a second toggle
    elsewhere could re-enable the collector under a live bulk load or
    leave it off for good.  Reads (``gc.isenabled``) and explicit
    ``gc.collect`` calls stay legal.
    """

    interests = (ast.Call, ast.ImportFrom)

    TOGGLES = frozenset({"disable", "enable", "freeze", "unfreeze"})

    def check(self, node: ast.AST, ctx) -> Iterator[Violation]:
        """Flag collector toggles, called or imported by name."""
        hint = "build inside EntityGraph.bulk_load() instead"
        if isinstance(node, ast.ImportFrom):
            if node.module == "gc":
                for alias in node.names:
                    if alias.name in self.TOGGLES:
                        yield (node, f"import of gc.{alias.name}", hint)
            return
        parts = _call_name(node.func).split(".")
        if len(parts) == 2 and parts[0] == "gc" and parts[1] in self.TOGGLES:
            yield (node, f"call to gc.{parts[1]}() outside the bulk-load path", hint)
