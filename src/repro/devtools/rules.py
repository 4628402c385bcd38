"""The replint rule catalog: the repo's invariants, machine-checked.

Each rule encodes a contract that is otherwise only prose in
``docs/ARCHITECTURE.md`` and enforced after the fact by test suites.
Rule IDs are stable forever — suppressions and CI artifacts reference
them — so a retired rule's ID is never reused.

Scoping is path-based (posix suffixes), so fixtures can exercise a
rule by linting a snippet under a virtual path; see
``tests/test_devtools_lint.py`` for the per-rule fixture pairs.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.devtools.core import FileContext, Rule, register

# -- shared scoping tables -----------------------------------------------------

#: Modules whose frame loops must stay pure: no wall clock, no ambient
#: RNG. The capture clock (frame timestamps) and seeded RNGs are the
#: only admissible sources of time and randomness — anything else
#: breaks replay determinism and the byte-identical equivalence
#: contract between ingest modes.
HOT_PATH_MODULES = (
    "repro/net/rawpacket.py",
    "repro/pipeline/engine.py",
    "repro/pipeline/sharded.py",
)

#: Per-frame functions: run once per captured frame on the ingest hot
#: path. Batch-level operations (drain, flush, checkpoint, block
#: decode) are deliberately NOT in this set — spans there are the
#: sanctioned instrumentation points.
PER_FRAME_FUNCTIONS = frozenset((
    "process_packet", "process_block", "_ingest_https", "_update_flow",
    "count_packets",
))

#: Parser packages: every failure on attacker-controlled bytes must
#: surface as ParseError/CryptoError so the pipeline's narrow handler
#: can drop the frame instead of crashing the tap.
PARSER_PACKAGES = (
    "repro/net/", "repro/tls/", "repro/quic/", "repro/crypto/",
)

#: Packages whose public API must be fully annotated (the static floor
#: under the mypy escalation table in pyproject.toml).
TYPED_PACKAGES = (
    "repro/pipeline/", "repro/net/", "repro/telemetry/", "repro/obs/",
)

#: Golden-trace test files: must be wall-clock- and ambient-RNG-free,
#: or the pinned bytes rot with the machine they run on.
GOLDEN_TEST_PATHS = ("tests/test_golden_trace.py",)
GOLDEN_TEST_DIRS = ("tests/golden/",)

#: The one module allowed to import pickle: checkpoint payloads carry
#: pickled *flow-state* buffers (wire-faithful Packet objects), never
#: model banks.
PICKLE_ALLOWED_MODULES = ("repro/pipeline/checkpoint.py",)

#: The one module allowed to assemble PlatformProfile objects inside
#: ``fingerprints/``: the pack loader. Fingerprint data lives in pack
#: files; code that constructs profiles directly is re-growing the
#: hardcoded library the pack refactor dissolved.
PROFILE_ASSEMBLY_ALLOWED = ("repro/fingerprints/packs/loader.py",)

#: Function-name prefixes that mark pack writers: anything in
#: ``fingerprints/packs/`` that serializes under one of these names
#: must stamp the pack format version into the document.
PACK_WRITER_PREFIXES = ("write_", "save_", "export_")

#: Modules allowed to print: user-facing CLI / report rendering and
#: the linter's own reporters.
PRINT_ALLOWED_MODULES = (
    "repro/cli.py", "repro/reporting/", "repro/devtools/",
    "repro/util/tables.py",
)

_WALL_CLOCK_CALLS = {
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_AMBIENT_RNG_PREFIXES = ("random.",)
_SEEDED_RNG_CALLS = {"random.Random", "random.SystemRandom"}

_RESOURCE_CONSTRUCTORS = {
    "multiprocessing.shared_memory.SharedMemory": "SharedMemory",
    "tempfile.NamedTemporaryFile": "NamedTemporaryFile",
    "multiprocessing.Process": "Process",
    "subprocess.Popen": "Popen",
}
_CLEANUP_METHODS = frozenset((
    "close", "unlink", "join", "terminate", "kill", "shutdown",
    "cleanup", "release",
))
_CLEANUP_REGISTRARS = frozenset((
    "enter_context", "callback", "push", "register", "addfinalizer",
))

_SERIALIZE_CALLS = {
    "json.dump", "json.dumps", "pickle.dump", "pickle.dumps",
    "numpy.savez", "numpy.savez_compressed", "numpy.save",
}
_SERIALIZE_METHODS = frozenset(("write_text", "write_bytes"))
_VERSION_NAME_FRAGMENT = "VERSION"

_REGISTRY_FACTORY_METHODS = frozenset((
    "counter", "gauge", "histogram", "timed",
))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _function_defs(tree: ast.Module) -> Iterator[ast.FunctionDef |
                                                 ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _enclosing_function(
        ctx: FileContext, node: ast.AST,
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def _enclosing_class(ctx: FileContext,
                     node: ast.AST) -> ast.ClassDef | None:
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.ClassDef):
            return ancestor
    return None


# -- RPL001 --------------------------------------------------------------------

@register
class HotPathPurity(Rule):
    id = "RPL001"
    name = "hot-path-purity"
    description = (
        "Frame-loop modules must not read the wall clock "
        "(time.time/datetime.now) or ambient RNG state (the random "
        "module) — use the capture clock and seeded RNGs, or replay "
        "determinism and ingest-mode equivalence break.")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_scope(*HOT_PATH_MODULES)

    def check(self, ctx: FileContext) -> Iterator[tuple[object, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or \
                            alias.name.startswith("random."):
                        yield node, ("ambient RNG import in a hot-path "
                                     "module; inject a seeded "
                                     "repro.util.rng.SeededRng instead")
            elif isinstance(node, ast.ImportFrom):
                # ``from random import Random`` is the seeded-instance
                # idiom — only module-state functions are ambient.
                if node.module == "random" and any(
                        alias.name not in ("Random", "SystemRandom")
                        for alias in node.names):
                    yield node, ("ambient RNG import in a hot-path "
                                 "module; inject a seeded RNG instead")
            elif isinstance(node, ast.Call):
                dotted = ctx.call_name(node)
                if dotted is None:
                    continue
                if dotted in _WALL_CLOCK_CALLS:
                    yield node, (f"wall-clock call {dotted}() in a "
                                 f"hot-path module; use the capture "
                                 f"clock (frame timestamps)")
                elif dotted.startswith(_AMBIENT_RNG_PREFIXES) and \
                        dotted not in _SEEDED_RNG_CALLS:
                    yield node, (f"ambient RNG call {dotted}() in a "
                                 f"hot-path module; use a seeded RNG")


# -- RPL002 --------------------------------------------------------------------

def _is_multiprocessing_call(ctx: FileContext, node: ast.AST) -> str | None:
    """The dotted name if ``node`` is a Call creating a multiprocessing
    primitive (Queue/Lock/Value/Process/SharedMemory/context...)."""
    if not isinstance(node, ast.Call):
        return None
    dotted = ctx.call_name(node)
    if dotted is None:
        return None
    if dotted.startswith("multiprocessing."):
        return dotted
    return None


@register
class ForkSafety(Rule):
    id = "RPL002"
    name = "fork-safety"
    description = (
        "multiprocessing objects must never live in module-level state "
        "(they capture fork-time context and break spawn/fork parity), "
        "and a module that starts worker processes must not also "
        "create threads before the fork (forked children inherit held "
        "locks mid-state).")

    def check(self, ctx: FileContext) -> Iterator[tuple[object, str]]:
        # (a) module-level multiprocessing state.
        for stmt in ctx.tree.body:
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            value = stmt.value
            if value is None:
                continue
            for node in ast.walk(value):
                dotted = _is_multiprocessing_call(ctx, node)
                if dotted is not None:
                    yield stmt, (f"multiprocessing object "
                                 f"({dotted}) captured in module-level "
                                 f"state; create it per-runtime so "
                                 f"fork/spawn contexts stay explicit")
        # (b) thread creation in a process-spawning module.
        spawns_processes = any(
            (dotted := ctx.call_name(node)) is not None
            and (dotted.endswith(".Process")
                 or dotted == "multiprocessing.Process")
            for node in ast.walk(ctx.tree) if isinstance(node, ast.Call))
        if not spawns_processes:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.call_name(node)
            if dotted in ("threading.Thread",
                          "concurrent.futures.ThreadPoolExecutor"):
                yield node, ("thread creation in a module that also "
                             "spawns worker processes; forked workers "
                             "inherit lock state mid-flight — keep "
                             "threads out of process-spawning modules")


# -- RPL003 --------------------------------------------------------------------

def _assigned_local_name(ctx: FileContext,
                         call: ast.Call) -> tuple[str | None, bool]:
    """(local name, escaped) for the statement binding a watched
    constructor call. ``escaped`` is True when ownership demonstrably
    leaves the function at the binding itself (self attribute, return,
    yield, cleanup-registrar argument, with-statement)."""
    parent = ctx.parent(call)
    # with SharedMemory(...) as x: / with closing(...):
    for ancestor in [parent, *ctx.ancestors(call)]:
        if isinstance(ancestor, ast.withitem):
            return None, True
    if isinstance(parent, (ast.Return, ast.Yield)):
        return None, True
    if isinstance(parent, ast.Call):
        registrar = parent.func
        if isinstance(registrar, ast.Attribute) and \
                registrar.attr in _CLEANUP_REGISTRARS:
            return None, True
        if isinstance(registrar, ast.Name) and \
                registrar.id in _CLEANUP_REGISTRARS:
            return None, True
    if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
        target = parent.targets[0]
        if isinstance(target, ast.Name):
            return target.id, False
        if _targets_self(target):
            return None, True
    if isinstance(parent, ast.AnnAssign):
        target = parent.target
        if isinstance(target, ast.Name):
            return target.id, False
        if _targets_self(target):
            return None, True
    return None, False


def _targets_self(target: ast.AST) -> bool:
    """True for ``self.x`` / ``self.x[i]`` / ``cls.x`` targets —
    ownership moves to the instance, whose lifecycle methods own
    cleanup."""
    node = target
    if isinstance(node, ast.Subscript):
        node = node.value
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


def _name_escapes(func: ast.AST, name: str) -> bool:
    """Whether local ``name`` is stored into self state, returned,
    yielded, or handed to a cleanup registrar anywhere in the
    function."""
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            if any(_targets_self(t) for t in node.targets) and \
                    _mentions_name(node.value, name):
                return True
        elif isinstance(node, (ast.Return, ast.Yield)) and \
                node.value is not None and \
                _mentions_name(node.value, name):
            return True
        elif isinstance(node, ast.Call):
            attr = node.func
            registrar = (attr.attr if isinstance(attr, ast.Attribute)
                         else attr.id if isinstance(attr, ast.Name)
                         else None)
            if registrar in _CLEANUP_REGISTRARS and any(
                    _mentions_name(arg, name) for arg in node.args):
                return True
        elif isinstance(node, ast.withitem) and \
                _mentions_name(node.context_expr, name):
            return True
    return False


def _mentions_name(node: ast.AST, name: str) -> bool:
    return any(isinstance(sub, ast.Name) and sub.id == name
               for sub in ast.walk(node))


def _cleanup_in_finally(func: ast.AST, name: str) -> bool:
    """Whether any ``finally`` (or except handler) in the function
    calls a cleanup method on ``name``."""
    for node in ast.walk(func):
        if isinstance(node, (ast.Try, getattr(ast, "TryStar", ast.Try))):
            guarded = list(node.finalbody)
            for handler in node.handlers:
                guarded.extend(handler.body)
            for stmt in guarded:
                for sub in ast.walk(stmt):
                    if isinstance(sub, ast.Call) and \
                            isinstance(sub.func, ast.Attribute) and \
                            sub.func.attr in _CLEANUP_METHODS and \
                            isinstance(sub.func.value, ast.Name) and \
                            sub.func.value.id == name:
                        return True
    return False


@register
class ResourceLifecycle(Rule):
    id = "RPL003"
    name = "resource-lifecycle"
    description = (
        "SharedMemory / NamedTemporaryFile / Process / Popen creation "
        "must pair with cleanup on every exit path: a context manager, "
        "a finally/except cleanup call, a registered finalizer, or "
        "ownership transfer (self attribute / return) — the PR 6 "
        "ring-cleanup contract, statically.")

    def check(self, ctx: FileContext) -> Iterator[tuple[object, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.call_name(node)
            if dotted is None:
                continue
            kind = _RESOURCE_CONSTRUCTORS.get(dotted)
            if kind is None and dotted.endswith(".Process") and \
                    "multiprocessing" in dotted:
                kind = "Process"
            if kind is None:
                # ctx.Process(...) over a multiprocessing context: the
                # receiver is dynamic, so resolve() returns the local
                # dotted chain; match the conventional receiver names.
                if isinstance(node.func, ast.Attribute) and \
                        node.func.attr == "Process":
                    base = ctx.resolve(node.func.value) or ""
                    if "ctx" in base.split(".")[-1] or \
                            base.startswith("multiprocessing"):
                        kind = "Process"
            if kind is None:
                continue
            func = _enclosing_function(ctx, node)
            if func is None:
                yield node, (f"{kind} created at module level; "
                             f"construct inside an owner with an "
                             f"explicit lifecycle")
                continue
            name, escaped = _assigned_local_name(ctx, node)
            if escaped:
                continue
            if name is None:
                yield node, (f"{kind} created without a binding; use a "
                             f"context manager or bind it so cleanup "
                             f"can run on error paths")
                continue
            if _name_escapes(func, name):
                continue
            if _cleanup_in_finally(func, name):
                continue
            yield node, (
                f"{kind} bound to {name!r} has no finally/context-"
                f"manager cleanup and never escapes the function; an "
                f"early exception leaks it (pair create with "
                f"close/unlink/join in a finally block)")


# -- RPL004 --------------------------------------------------------------------

_PARSER_ALLOWED_RAISES = frozenset((
    "ParseError", "CryptoError", "ConfigError", "StopIteration",
    "NotImplementedError",
))


@register
class ExceptionContract(Rule):
    id = "RPL004"
    name = "exception-contract"
    description = (
        "No bare except anywhere; except Exception/BaseException "
        "requires a justified suppression (the handler must explain "
        "why swallowing broadly is safe here); parser packages raise "
        "only ParseError/CryptoError so the pipeline's narrow handler "
        "keeps dropping bad frames instead of crashing.")

    def check(self, ctx: FileContext) -> Iterator[tuple[object, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler):
                yield from self._check_handler(ctx, node)
            elif isinstance(node, ast.Raise) and \
                    any(p in ctx.path for p in PARSER_PACKAGES):
                yield from self._check_raise(ctx, node)

    def _check_handler(self, ctx: FileContext,
                       node: ast.ExceptHandler,
                       ) -> Iterator[tuple[object, str]]:
        if node.type is None:
            yield node, ("bare 'except:' swallows KeyboardInterrupt "
                         "and SystemExit; name the exception types "
                         "(or 'except Exception' with a justified "
                         "suppression)")
            return
        # A broad handler that raises (re-raise or translate-and-raise,
        # like wrapping corruption into ConfigError) cannot swallow
        # anything — only handlers that *absorb* need a justification.
        if any(isinstance(sub, ast.Raise)
               for stmt in node.body for sub in ast.walk(stmt)):
            return
        exc_types = node.type.elts if isinstance(node.type, ast.Tuple) \
            else [node.type]
        for exc in exc_types:
            dotted = ctx.resolve(exc) or ""
            base = dotted.rsplit(".", 1)[-1]
            if base in ("Exception", "BaseException"):
                yield node, (
                    f"'except {base}' needs a justified suppression: "
                    f"broad handlers hide programming errors and (for "
                    f"BaseException) can swallow KeyboardInterrupt/"
                    f"SystemExit — say why this site must catch "
                    f"everything")

    def _check_raise(self, ctx: FileContext,
                     node: ast.Raise) -> Iterator[tuple[object, str]]:
        if node.exc is None:  # re-raise: always fine
            return
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        dotted = ctx.resolve(exc)
        if dotted is None:  # dynamic (raise exc_var): trust re-raise
            return
        base = dotted.rsplit(".", 1)[-1]
        if base in _PARSER_ALLOWED_RAISES:
            return
        func = _enclosing_function(ctx, node)
        if func is not None and _is_dunder(func.name) and \
                base in ("TypeError", "ValueError", "AttributeError"):
            # API-misuse guards in dunders are programming-error
            # signals, not parse-path outcomes.
            return
        yield node, (
            f"parser code raises {base}; parsers must raise only "
            f"ParseError/CryptoError so the frame loop's narrow "
            f"handler drops the frame instead of crashing the tap")


# -- RPL005 --------------------------------------------------------------------

def _serializes(ctx: FileContext, func: ast.AST) -> bool:
    for node in ast.walk(func):
        if not isinstance(node, ast.Call):
            continue
        dotted = ctx.call_name(node)
        if dotted is not None:
            if dotted in _SERIALIZE_CALLS or \
                    dotted.replace("np.", "numpy.") in _SERIALIZE_CALLS:
                return True
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in _SERIALIZE_METHODS:
            return True
    return False


def _references_version(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and \
                _VERSION_NAME_FRAGMENT in node.id.upper():
            return True
        if isinstance(node, ast.Attribute) and \
                _VERSION_NAME_FRAGMENT in node.attr.upper():
            return True
        if isinstance(node, ast.Constant) and \
                isinstance(node.value, str) and \
                node.value == "format_version":
            return True
    return False


@register
class CheckpointDiscipline(Rule):
    id = "RPL005"
    name = "checkpoint-discipline"
    description = (
        "Every save_*/state_dict function that serializes a payload "
        "must stamp a format-version constant into it (and the module "
        "must define one), so a payload-shape change forces a version "
        "bump reviewers can see — old readers reject new bytes "
        "instead of misparsing them.")

    def check(self, ctx: FileContext) -> Iterator[tuple[object, str]]:
        module_has_version = any(
            isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name)
                and _VERSION_NAME_FRAGMENT in t.id.upper()
                for t in stmt.targets)
            for stmt in ctx.tree.body)
        for func in _function_defs(ctx.tree):
            if not (func.name.startswith("save_")
                    or func.name == "state_dict"):
                continue
            if not _serializes(ctx, func):
                continue
            if not _references_version(func):
                yield func, (
                    f"{func.name}() serializes a payload without "
                    f"referencing a format-version constant; stamp "
                    f"'format_version' so shape changes force a "
                    f"version bump")
            elif not module_has_version:
                yield func, (
                    f"{func.name}() serializes a versioned payload "
                    f"but the module defines no *_FORMAT_VERSION "
                    f"constant; keep the version next to the payload "
                    f"shape it describes")


# -- RPL006 --------------------------------------------------------------------

@register
class MetricsAtExport(Rule):
    id = "RPL006"
    name = "metrics-at-export"
    description = (
        "Per-frame functions must not touch a metrics registry "
        "(instrument registration, span timing, histogram observation)"
        " — count metrics derive from PipelineCounters at export time; "
        "only pre-bound counter .inc() behind a None guard is allowed "
        "on the frame path (the PR 7 derivation rule).")

    def applies_to(self, ctx: FileContext) -> bool:
        return "repro/pipeline/" in ctx.path or "repro/net/" in ctx.path

    def check(self, ctx: FileContext) -> Iterator[tuple[object, str]]:
        for func in _function_defs(ctx.tree):
            if func.name not in PER_FRAME_FUNCTIONS:
                continue
            for node in ast.walk(func):
                if not isinstance(node, ast.Call):
                    continue
                dotted = ctx.call_name(node)
                if dotted == "time.perf_counter":
                    yield node, (
                        f"timing inside per-frame function "
                        f"{func.name}(); spans belong on batch-level "
                        f"operations only (drain/sweep/decode)")
                    continue
                if not isinstance(node.func, ast.Attribute):
                    continue
                attr = node.func.attr
                if attr in _REGISTRY_FACTORY_METHODS:
                    yield node, (
                        f".{attr}() instrument lookup inside per-frame "
                        f"function {func.name}(); bind instruments "
                        f"once at setup and derive counts at export "
                        f"(PR 7 rule)")
                elif attr == "observe":
                    yield node, (
                        f"histogram .observe() inside per-frame "
                        f"function {func.name}(); per-frame metrics "
                        f"derive from PipelineCounters at export time")


# -- RPL007 --------------------------------------------------------------------

_BANKISH_TOKENS = ("bank", "forest", "scenario", "tree", "model")


@register
class NoPickledBanks(Rule):
    id = "RPL007"
    name = "no-pickled-banks"
    description = (
        "Model banks are persisted via save_bank/load_bank (versioned "
        "npz + JSON, corruption-rejecting) — never pickled: pickle "
        "ties the artifact to class layout, breaks cross-version "
        "restore, and would ship code-execution surface in a model "
        "store. pickle imports are allowed only in the checkpoint "
        "module (flow-state buffers), and never over bank objects.")

    def applies_to(self, ctx: FileContext) -> bool:
        return "repro/" in ctx.path and "tests/" not in ctx.path

    def check(self, ctx: FileContext) -> Iterator[tuple[object, str]]:
        allowed = ctx.in_scope(*PICKLE_ALLOWED_MODULES)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                if any(alias.name == "pickle" for alias in node.names) \
                        and not allowed:
                    yield node, (
                        "pickle import outside the checkpoint module; "
                        "persist through the versioned save_*/load_* "
                        "layer instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "pickle" and not allowed:
                    yield node, (
                        "pickle import outside the checkpoint module; "
                        "persist through the versioned save_*/load_* "
                        "layer instead")
            elif isinstance(node, ast.Call):
                dotted = ctx.call_name(node) or ""
                if dotted.startswith("pickle."):
                    arg_text = " ".join(
                        ast.dump(arg) for arg in node.args).lower()
                    if any(token in arg_text
                           for token in _BANKISH_TOKENS):
                        yield node, (
                            "pickling what looks like model state "
                            "(bank/forest/scenario); use "
                            "save_bank/load_bank — pickled models "
                            "break cross-version restore")


# -- RPL008 --------------------------------------------------------------------

@register
class GoldenTraceWallClock(Rule):
    id = "RPL008"
    name = "golden-wall-clock-free"
    description = (
        "Golden-trace tests and regenerators must be wall-clock- and "
        "ambient-RNG-free: pinned bytes may depend only on the "
        "committed capture and explicit seeds, never on when or where "
        "the test runs.")

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.in_scope(*GOLDEN_TEST_PATHS) or \
            any(d in ctx.path for d in GOLDEN_TEST_DIRS)

    def check(self, ctx: FileContext) -> Iterator[tuple[object, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.call_name(node)
            if dotted is None:
                continue
            if dotted in _WALL_CLOCK_CALLS:
                yield node, (f"wall-clock call {dotted}() in golden-"
                             f"trace code; pinned bytes must not "
                             f"depend on run time")
            elif dotted.startswith(_AMBIENT_RNG_PREFIXES) and \
                    dotted not in _SEEDED_RNG_CALLS:
                yield node, (f"ambient RNG call {dotted}() in golden-"
                             f"trace code; seed explicitly")
            elif dotted in ("numpy.random.default_rng",
                            "np.random.default_rng") and not node.args:
                yield node, ("unseeded default_rng() in golden-trace "
                             "code; pass an explicit seed")


# -- RPL009 --------------------------------------------------------------------

@register
class NoPrintInLibrary(Rule):
    id = "RPL009"
    name = "no-print-in-library"
    description = (
        "Library modules must not print: a months-long tap logs "
        "through the event log / metrics plane, and stray stdout "
        "corrupts CLI output consumed by scripts. print() belongs in "
        "the CLI, report renderers, and devtools only.")

    def applies_to(self, ctx: FileContext) -> bool:
        return "repro/" in ctx.path and "tests/" not in ctx.path and \
            "benchmarks/" not in ctx.path and "examples/" not in ctx.path \
            and not ctx.in_scope(*PRINT_ALLOWED_MODULES) and \
            not any(p in ctx.path for p in PRINT_ALLOWED_MODULES)

    def check(self, ctx: FileContext) -> Iterator[tuple[object, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Name) and \
                    node.func.id == "print":
                yield node, ("print() in a library module; emit "
                             "through the event log or return data to "
                             "the caller")


# -- RPL010 --------------------------------------------------------------------

@register
class PublicApiAnnotations(Rule):
    id = "RPL010"
    name = "public-api-annotations"
    description = (
        "Public functions and methods in pipeline/, net/, telemetry/ "
        "and obs/ must be fully annotated (params and return) — the "
        "static floor under the per-module mypy escalation table; "
        "unannotated surface silently opts out of strict checking.")

    def applies_to(self, ctx: FileContext) -> bool:
        return any(p in ctx.path for p in TYPED_PACKAGES)

    def check(self, ctx: FileContext) -> Iterator[tuple[object, str]]:
        for func in _function_defs(ctx.tree):
            if func.name.startswith("_") and func.name != "__init__":
                continue
            cls = _enclosing_class(ctx, func)
            if cls is not None and cls.name.startswith("_"):
                continue
            parent = ctx.parent(func)
            if parent is not None and not isinstance(
                    parent, (ast.Module, ast.ClassDef)):
                continue  # nested helper, not API surface
            args = func.args
            positional = [*args.posonlyargs, *args.args]
            if positional and cls is not None and \
                    positional[0].arg in ("self", "cls"):
                positional = positional[1:]
            missing = [a.arg for a in
                       [*positional, *args.kwonlyargs]
                       if a.annotation is None]
            for vararg in (args.vararg, args.kwarg):
                if vararg is not None and vararg.annotation is None:
                    missing.append(f"*{vararg.arg}")
            if missing:
                yield func, (
                    f"public {'method' if cls else 'function'} "
                    f"{func.name}() has unannotated parameter(s) "
                    f"{', '.join(missing)}")
            if func.returns is None and func.name != "__init__":
                yield func, (
                    f"public {'method' if cls else 'function'} "
                    f"{func.name}() has no return annotation")


# -- RPL011 --------------------------------------------------------------------

@register
class PackDataDiscipline(Rule):
    id = "RPL011"
    name = "pack-data-discipline"
    description = (
        "Fingerprint data lives in pack files: inside fingerprints/, "
        "only the pack loader may assemble PlatformProfile objects "
        "(direct construction re-grows the hardcoded library the pack "
        "refactor dissolved), and every pack writer "
        "(write_*/save_*/export_* in packs/) must stamp the pack "
        "format version so emitted documents stay loadable.")

    def applies_to(self, ctx: FileContext) -> bool:
        return "repro/fingerprints/" in ctx.path and \
            "tests/" not in ctx.path

    def check(self, ctx: FileContext) -> Iterator[tuple[object, str]]:
        if not ctx.in_scope(*PROFILE_ASSEMBLY_ALLOWED):
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.Call):
                    continue
                dotted = ctx.call_name(node) or ""
                if dotted.rsplit(".", 1)[-1] == "PlatformProfile":
                    yield node, (
                        "PlatformProfile assembled outside the pack "
                        "loader; fingerprint data belongs in pack "
                        "files — add it to a pack payload and let "
                        "packs/loader.py materialize it")
        if "repro/fingerprints/packs/" not in ctx.path:
            return
        for func in _function_defs(ctx.tree):
            if not func.name.startswith(PACK_WRITER_PREFIXES):
                continue
            if not _serializes(ctx, func):
                continue
            if not _references_version(func):
                yield func, (
                    f"{func.name}() writes a pack document without "
                    f"referencing the pack format version; stamp "
                    f"PACK_FORMAT_VERSION (or 'format_version') so "
                    f"emitted packs stay loadable")
