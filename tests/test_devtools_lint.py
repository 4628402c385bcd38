"""Tests for replint, the project-invariant static analyzer.

Three layers:

* engine — suppression parsing (justification mandatory, unknown IDs
  rejected, string literals that merely mention the grammar ignored),
  import-alias resolution, registry invariants, reporters, CLI exit
  codes;
* rules — one bad/good fixture pair per rule ID, linted under virtual
  paths so path-scoped rules fire without touching the real tree;
* meta — the live ``src``/``tests``/``benchmarks`` tree is
  replint-clean, which is the same gate CI enforces.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.devtools import all_rules, lint_paths, lint_source
from repro.devtools.core import META_RULE_ID, Rule, Violation, register
from repro.devtools.lint import main
from repro.devtools.reporters import (
    REPORT_FORMAT_VERSION,
    render_json,
    render_rule_list,
    render_text,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint(source: str, path: str, rule: str | None = None):
    rule_ids = None if rule is None else [rule]
    return lint_source(textwrap.dedent(source), path, rule_ids)


def fired(violations, rule_id: str) -> list:
    return [v for v in violations if v.rule_id == rule_id]


# -- registry ------------------------------------------------------------------


def test_catalog_is_rpl001_through_rpl011():
    assert sorted(all_rules()) == [f"RPL{i:03d}" for i in range(1, 12)]


def test_register_rejects_bad_and_reserved_ids():
    class NoId(Rule):
        id = "X1"

    with pytest.raises(ValueError, match="stable id"):
        register(NoId)

    class Meta(Rule):
        id = META_RULE_ID

    with pytest.raises(ValueError, match="reserved"):
        register(Meta)

    class Dup(Rule):
        id = "RPL001"

    with pytest.raises(ValueError, match="already registered"):
        register(Dup)


def test_every_rule_has_name_and_description():
    for rule_id, rule_cls in all_rules().items():
        assert rule_cls.name, rule_id
        assert len(rule_cls.description) > 40, rule_id


# -- suppressions --------------------------------------------------------------

ABSORBING_HANDLER = """\
    def f():
        try:
            g()
        except Exception:{comment}
            pass
"""


def test_justified_suppression_silences_the_finding():
    source = ABSORBING_HANDLER.format(
        comment="  # replint: disable=RPL004 -- demo absorber")
    assert lint(source, "repro/x.py", "RPL004") == []


def test_suppression_without_justification_is_rejected():
    source = ABSORBING_HANDLER.format(
        comment="  # replint: disable=RPL004")
    violations = lint(source, "repro/x.py")
    # The malformed directive is itself a finding AND the original
    # violation still stands — an unjustified waiver waives nothing.
    assert fired(violations, META_RULE_ID)
    assert "no justification" in fired(violations, META_RULE_ID)[0].message
    assert fired(violations, "RPL004")


def test_suppression_with_unknown_rule_id_is_rejected():
    source = ABSORBING_HANDLER.format(
        comment="  # replint: disable=RPL999 -- no such rule")
    violations = lint(source, "repro/x.py")
    assert any("unknown rule id" in v.message
               for v in fired(violations, META_RULE_ID))
    assert fired(violations, "RPL004")


def test_suppression_of_a_different_rule_does_not_silence():
    source = ABSORBING_HANDLER.format(
        comment="  # replint: disable=RPL001 -- wrong rule")
    assert fired(lint(source, "repro/x.py"), "RPL004")


def test_multi_id_suppression_covers_both_rules():
    source = """\
        import time

        def process_block(self):
            return time.time()  # replint: disable=RPL001,RPL006 -- demo
    """
    violations = lint(source, "repro/pipeline/engine.py")
    assert fired(violations, "RPL001") == []
    assert fired(violations, "RPL006") == []


def test_directive_inside_a_string_is_not_a_directive():
    source = '''\
        MESSAGE = "use '# replint: disable=RPL004 -- why' to suppress"

        def f():
            """Docstring mentioning # replint: disable=RPL001."""
            return MESSAGE
    '''
    assert lint(source, "repro/x.py") == []


def test_suppression_must_sit_on_the_reported_line():
    source = """\
        # replint: disable=RPL004 -- wrong line, does not apply below

        def f():
            try:
                g()
            except Exception:
                pass
    """
    assert fired(lint(source, "repro/x.py"), "RPL004")


def test_syntax_error_reports_under_meta_rule():
    violations = lint("def f(:\n", "repro/x.py")
    assert [v.rule_id for v in violations] == [META_RULE_ID]
    assert "syntax error" in violations[0].message


# -- RPL001 hot-path purity ----------------------------------------------------


def test_rpl001_fires_on_wall_clock_and_ambient_rng():
    source = """\
        import random
        import time

        def tick():
            return time.time() + random.random()
    """
    violations = lint(source, "repro/pipeline/engine.py", "RPL001")
    messages = " ".join(v.message for v in violations)
    assert "time.time" in messages
    assert "random" in messages


def test_rpl001_aliased_import_is_still_caught():
    source = """\
        import time as clock

        def tick():
            return clock.time()
    """
    assert lint(source, "repro/net/rawpacket.py", "RPL001")


def test_rpl001_clean_on_perf_counter_and_seeded_rng():
    source = """\
        import time
        from random import Random

        def tick(timestamp: float) -> float:
            rng = Random(7)
            return timestamp + time.perf_counter() + rng.random()
    """
    # perf_counter is monotonic (not wall clock) and the bound-method
    # rng.random() resolves through a local, not the random module.
    assert lint(source, "repro/pipeline/engine.py", "RPL001") == []


def test_rpl001_out_of_scope_module_is_ignored():
    source = "import time\n\nWHEN = time.time()\n"
    assert lint(source, "repro/reporting/tables.py", "RPL001") == []


# -- RPL002 fork safety --------------------------------------------------------


def test_rpl002_fires_on_module_level_multiprocessing_state():
    source = """\
        import multiprocessing

        QUEUE = multiprocessing.Queue()
    """
    violations = lint(source, "repro/pipeline/helpers.py", "RPL002")
    assert "module-level" in violations[0].message


def test_rpl002_fires_on_threads_in_a_process_spawning_module():
    source = """\
        import multiprocessing
        import threading

        def run(target):
            worker = multiprocessing.Process(target=target)
            thread = threading.Thread(target=target)
            worker.start()
            thread.start()
            worker.join()
            thread.join()
    """
    violations = lint(source, "repro/pipeline/helpers.py", "RPL002")
    assert any("thread creation" in v.message for v in violations)


def test_rpl002_clean_on_function_scoped_process_without_threads():
    source = """\
        import multiprocessing

        def run(target):
            ctx = multiprocessing.get_context("spawn")
            worker = ctx.Process(target=target)
            worker.start()
            try:
                pass
            finally:
                worker.join()
    """
    assert lint(source, "repro/pipeline/helpers.py", "RPL002") == []


# -- RPL003 resource lifecycle -------------------------------------------------

SHM_LEAK = """\
    from multiprocessing.shared_memory import SharedMemory

    def grab(size):
        shm = SharedMemory(create=True, size=size)
        shm.buf[0] = 1
        return None
"""


def test_rpl003_fires_on_unguarded_shared_memory():
    violations = lint(SHM_LEAK, "repro/pipeline/x.py", "RPL003")
    assert "early exception leaks it" in violations[0].message


def test_rpl003_fires_on_unbound_process():
    source = """\
        import multiprocessing

        def fire(target):
            multiprocessing.Process(target=target).start()
    """
    violations = lint(source, "repro/pipeline/x.py", "RPL003")
    assert "without a binding" in violations[0].message


@pytest.mark.parametrize("body", [
    # finally cleanup
    """\
    shm = SharedMemory(create=True, size=size)
    try:
        shm.buf[0] = 1
    finally:
        shm.close()
    """,
    # except-handler cleanup (the FrameRing.__init__ shape)
    """\
    shm = SharedMemory(create=True, size=size)
    try:
        shm.buf[0] = 1
    except BaseException:
        shm.close()
        raise
    return shm
    """,
    # ownership escapes via return
    """\
    shm = SharedMemory(create=True, size=size)
    return shm
    """,
    # ownership escapes to the instance
    """\
    self.shm = SharedMemory(create=True, size=size)
    """,
    # context manager
    """\
    with SharedMemory(create=True, size=size) as shm:
        shm.buf[0] = 1
    """,
    # registered finalizer
    """\
    shm = SharedMemory(create=True, size=size)
    stack.callback(shm.close)
    """,
])
def test_rpl003_clean_on_guarded_lifecycles(body):
    source = ("from multiprocessing.shared_memory import SharedMemory\n\n"
              "def grab(self, stack, size):\n"
              + textwrap.indent(textwrap.dedent(body), "    "))
    assert lint_source(source, "repro/pipeline/x.py", ["RPL003"]) == []


# -- RPL004 exception contract -------------------------------------------------


def test_rpl004_fires_on_bare_except():
    source = """\
        def f():
            try:
                g()
            except:
                pass
    """
    violations = lint(source, "repro/x.py", "RPL004")
    assert "bare 'except:'" in violations[0].message


def test_rpl004_fires_on_absorbing_broad_handler():
    violations = lint(ABSORBING_HANDLER.format(comment=""),
                      "repro/x.py", "RPL004")
    assert "needs a justified suppression" in violations[0].message


def test_rpl004_broad_handler_that_raises_is_exempt():
    source = """\
        def f():
            try:
                g()
            except Exception as exc:
                raise ConfigError("translated") from exc
    """
    assert lint(source, "repro/x.py", "RPL004") == []


def test_rpl004_parser_code_must_raise_parse_or_crypto_error():
    source = """\
        def parse(data):
            if not data:
                raise RuntimeError("empty")
    """
    violations = lint(source, "repro/net/newproto.py", "RPL004")
    assert "parsers must raise only" in violations[0].message
    ok = """\
        from repro.errors import ParseError

        def parse(data):
            if not data:
                raise ParseError("empty")
    """
    assert lint(ok, "repro/net/newproto.py", "RPL004") == []


def test_rpl004_dunder_type_guards_are_exempt_in_parsers():
    source = """\
        class Header:
            def __eq__(self, other):
                if not isinstance(other, Header):
                    raise TypeError("incomparable")
                return True
    """
    assert lint(source, "repro/net/newproto.py", "RPL004") == []


def test_rpl004_non_parser_module_may_raise_anything():
    source = """\
        def check(x):
            raise RuntimeError("fine here")
    """
    assert lint(source, "repro/pipeline/x.py", "RPL004") == []


# -- RPL005 checkpoint discipline ----------------------------------------------


def test_rpl005_fires_on_unversioned_save_payload():
    source = """\
        import json

        def save_table(table, path):
            path.write_text(json.dumps({"cells": table}))
    """
    violations = lint(source, "repro/telemetry/x.py", "RPL005")
    assert "format-version" in violations[0].message


def test_rpl005_fires_when_module_lacks_the_version_constant():
    source = """\
        import json

        def save_table(table, path):
            path.write_text(json.dumps(
                {"format_version": 1, "cells": table}))
    """
    violations = lint(source, "repro/telemetry/x.py", "RPL005")
    assert any("no *_FORMAT_VERSION" in v.message for v in violations)


def test_rpl005_clean_on_versioned_save():
    source = """\
        import json

        _FORMAT_VERSION = 3

        def save_table(table, path):
            path.write_text(json.dumps(
                {"format_version": _FORMAT_VERSION, "cells": table}))
    """
    assert lint(source, "repro/telemetry/x.py", "RPL005") == []


def test_rpl005_non_serializing_save_is_ignored():
    source = """\
        def save_nothing(x):
            return x
    """
    assert lint(source, "repro/telemetry/x.py", "RPL005") == []


# -- RPL006 metrics at export --------------------------------------------------


def test_rpl006_fires_on_instrument_lookup_in_per_frame_function():
    source = """\
        class Engine:
            def process_packet(self, packet) -> None:
                self.metrics.counter("repro_frames", "help").inc()
    """
    violations = lint(source, "repro/pipeline/x.py", "RPL006")
    assert "bind instruments once" in violations[0].message


def test_rpl006_fires_on_observe_and_timing_in_per_frame_function():
    source = """\
        import time

        class Engine:
            def process_block(self, decoded) -> None:
                start = time.perf_counter()
                self._hist.observe(time.perf_counter() - start)
    """
    violations = lint(source, "repro/pipeline/x.py", "RPL006")
    messages = " ".join(v.message for v in violations)
    assert "timing inside per-frame" in messages
    assert ".observe()" in messages


def test_rpl006_prebound_inc_and_batch_spans_are_clean():
    source = """\
        class Engine:
            def process_packet(self, packet) -> None:
                if self._c_promotions is not None:
                    self._c_promotions.inc()

            def drain(self) -> int:
                with self.metrics.timed("repro_stage_seconds", "h"):
                    return 0
    """
    assert lint(source, "repro/pipeline/x.py", "RPL006") == []


# -- RPL007 no pickled banks ---------------------------------------------------


def test_rpl007_fires_on_pickle_import_outside_checkpoint():
    source = "import pickle\n"
    violations = lint(source, "repro/ml/x.py", "RPL007")
    assert "outside the checkpoint module" in violations[0].message


def test_rpl007_fires_on_pickling_bankish_state_anywhere():
    source = """\
        import pickle

        def stash(bank, path):
            path.write_bytes(pickle.dumps(bank))
    """
    violations = lint(source, "repro/pipeline/checkpoint.py", "RPL007")
    assert "save_bank/load_bank" in violations[0].message


def test_rpl007_checkpoint_module_may_pickle_flow_state():
    source = """\
        import pickle

        def save_buffers(packets, path):
            path.write_bytes(pickle.dumps(packets, protocol=4))
    """
    assert lint(source, "repro/pipeline/checkpoint.py", "RPL007") == []


# -- RPL008 golden traces wall-clock-free --------------------------------------


def test_rpl008_fires_on_wall_clock_and_unseeded_rng_in_golden_tests():
    source = """\
        import time

        import numpy as np

        def test_golden():
            rng = np.random.default_rng()
            assert time.time() > 0
    """
    violations = lint(source, "tests/test_golden_trace.py", "RPL008")
    messages = " ".join(v.message for v in violations)
    assert "wall-clock" in messages
    assert "unseeded default_rng" in messages


def test_rpl008_clean_on_seeded_deterministic_golden_test():
    source = """\
        import numpy as np

        def test_golden():
            rng = np.random.default_rng(7)
            assert rng.integers(10) >= 0
    """
    assert lint(source, "tests/test_golden_trace.py", "RPL008") == []


def test_rpl008_ordinary_tests_are_out_of_scope():
    source = "import time\n\n\ndef test_x():\n    assert time.time()\n"
    assert lint(source, "tests/test_other.py", "RPL008") == []


# -- RPL009 no print in library ------------------------------------------------


def test_rpl009_fires_on_library_print():
    source = """\
        def ingest(x):
            print("debug", x)
    """
    violations = lint(source, "repro/telemetry/x.py", "RPL009")
    assert "print() in a library module" in violations[0].message


def test_rpl009_cli_reporting_and_devtools_may_print():
    source = "def show(x):\n    print(x)\n"
    for path in ("repro/cli.py", "repro/reporting/tables.py",
                 "repro/devtools/lint.py", "tests/test_x.py"):
        assert lint(source, path, "RPL009") == [], path


# -- RPL010 public API annotations ---------------------------------------------


def test_rpl010_fires_on_unannotated_public_surface():
    source = """\
        def transform(data):
            return data

        class Engine:
            def feed(self, frames, timestamp: float) -> None:
                pass
    """
    violations = lint(source, "repro/pipeline/x.py", "RPL010")
    messages = " ".join(v.message for v in violations)
    assert "transform() has unannotated parameter(s) data" in messages
    assert "transform() has no return annotation" in messages
    assert "feed() has unannotated parameter(s) frames" in messages


def test_rpl010_private_nested_and_init_return_are_exempt():
    source = """\
        def _helper(x):
            return x

        class _Internal:
            def run(self, x):
                return x

        class Engine:
            def __init__(self, size: int):
                self.size = size

            def public(self, n: int) -> int:
                def inner(y):
                    return y
                return inner(n)
    """
    assert lint(source, "repro/pipeline/x.py", "RPL010") == []


def test_rpl010_only_guards_typed_packages():
    source = "def transform(data):\n    return data\n"
    assert lint(source, "repro/trafficgen/x.py", "RPL010") == []


# -- RPL011 pack data discipline -----------------------------------------------


def test_rpl011_fires_on_profile_assembly_outside_the_loader():
    source = """\
        from repro.fingerprints.specs import PlatformProfile

        EXTRA = PlatformProfile(label="linux_chrome")
    """
    violations = lint(source, "repro/fingerprints/extras.py", "RPL011")
    assert "outside the pack loader" in violations[0].message


def test_rpl011_loader_may_assemble_profiles():
    source = """\
        from repro.fingerprints.specs import PlatformProfile

        def _materialize(entry):
            return PlatformProfile(**entry)
    """
    path = "repro/fingerprints/packs/loader.py"
    assert lint(source, path, "RPL011") == []


def test_rpl011_fires_on_unversioned_pack_writer():
    source = """\
        import json

        def write_pack(document, path):
            path.write_text(json.dumps(document))
    """
    violations = lint(source, "repro/fingerprints/packs/x.py", "RPL011")
    assert "without referencing the pack format version" in \
        violations[0].message


def test_rpl011_clean_on_version_stamped_pack_writer():
    source = """\
        import json

        PACK_FORMAT_VERSION = 1

        def write_pack(document, path):
            document["format_version"] = PACK_FORMAT_VERSION
            path.write_text(json.dumps(document))
    """
    assert lint(source, "repro/fingerprints/packs/x.py", "RPL011") == []


def test_rpl011_writer_check_only_guards_the_packs_package():
    source = """\
        import json

        def write_report(document, path):
            path.write_text(json.dumps(document))
    """
    assert lint(source, "repro/fingerprints/report.py", "RPL011") == []


def test_rpl011_out_of_scope_packages_are_ignored():
    source = "P = PlatformProfile(label='x')\n"
    assert lint(source, "repro/pipeline/x.py", "RPL011") == []


# -- reporters -----------------------------------------------------------------


def test_render_text_includes_location_and_summary():
    violations = [Violation("RPL001", "a.py", 3, 4, "boom")]
    text = render_text(violations, 5)
    assert "a.py:3:4: RPL001 boom" in text
    assert "replint: 1 violation in 5 file(s) checked" in text


def test_render_json_is_versioned_and_counts_by_rule():
    violations = [Violation("RPL001", "a.py", 3, 4, "boom"),
                  Violation("RPL001", "b.py", 1, 0, "boom again"),
                  Violation("RPL009", "b.py", 9, 0, "print")]
    document = json.loads(render_json(violations, 7))
    assert document["format_version"] == REPORT_FORMAT_VERSION
    assert document["checked_files"] == 7
    assert document["total"] == 3
    assert document["by_rule"] == {"RPL001": 2, "RPL009": 1}
    assert document["violations"][0]["path"] == "a.py"


def test_render_rule_list_names_every_rule():
    listing = render_rule_list()
    for rule_id in all_rules():
        assert rule_id in listing


# -- CLI -----------------------------------------------------------------------


def test_cli_exit_zero_on_clean_tree(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("X = 1\n")
    assert main([str(tmp_path)]) == 0
    assert "0 violations in 1 file(s)" in capsys.readouterr().out


def test_cli_exit_one_on_violation(tmp_path, capsys):
    bad = tmp_path / "repro" / "telemetry"
    bad.mkdir(parents=True)
    (bad / "x.py").write_text("def f(x):\n    print(x)\n")
    assert main([str(tmp_path)]) == 1
    assert "RPL009" in capsys.readouterr().out


def test_cli_select_restricts_rules(tmp_path, capsys):
    bad = tmp_path / "repro" / "telemetry"
    bad.mkdir(parents=True)
    (bad / "x.py").write_text("def f(x):\n    print(x)\n")
    assert main([str(tmp_path), "--select", "RPL001"]) == 0
    capsys.readouterr()


def test_cli_json_output_file(tmp_path, capsys):
    (tmp_path / "ok.py").write_text("X = 1\n")
    out = tmp_path / "report.json"
    assert main([str(tmp_path), "--format", "json",
                 "--output", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["format_version"] == REPORT_FORMAT_VERSION
    # The human tally still lands on stderr for CI logs.
    assert "0 violations" in capsys.readouterr().err


def test_cli_usage_errors_exit_two(tmp_path, capsys):
    assert main([]) == 2
    assert main(["--select", "RPL999", str(tmp_path)]) == 2
    assert main([str(tmp_path / "missing")]) == 2
    capsys.readouterr()


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    assert "RPL001" in capsys.readouterr().out


# -- meta: the live tree is clean ----------------------------------------------


def test_live_tree_is_replint_clean():
    """The same gate CI runs: src, tests, and benchmarks lint clean.

    A failure here means a new violation landed without either a fix
    or a justified suppression — see docs/ARCHITECTURE.md."""
    violations, checked = lint_paths([REPO_ROOT / "src",
                                      REPO_ROOT / "tests",
                                      REPO_ROOT / "benchmarks"])
    assert checked > 100  # the sweep actually saw the tree
    assert violations == [], "\n".join(
        f"{v.path}:{v.line}: {v.rule_id} {v.message}" for v in violations)
