"""Tests for the repro.lint static-analysis pass.

Each rule gets a positive fixture (must fire), a negative fixture
(must stay silent), and a suppressed fixture (fires but the in-source
comment eats it).  The capstone is the self-check: the shipped source
tree must be lint-clean, which is exactly the invariant CI enforces.
"""

from __future__ import annotations

import functools
import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    DeepConfig,
    Diagnostic,
    EffectAnalysis,
    Program,
    apply_baseline,
    default_rules,
    iter_python_files,
    lint_paths,
    lint_source,
    load_baseline,
    parse_suppression_records,
    parse_suppressions,
    render_json,
    render_sarif,
    rules_by_name,
    run_deep,
)
from repro.lint.cli import main as lint_main
from repro.lint.deep import BaselineError, Waiver

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
REPO_ROOT = SRC_ROOT.parent.parent
BASELINE = REPO_ROOT / "lint_baseline.json"


def lint(snippet: str, path: str = "src/repro/core/fake.py") -> list[Diagnostic]:
    return lint_source(textwrap.dedent(snippet), path=path)


def fired(snippet: str, rule: str, path: str = "src/repro/core/fake.py") -> bool:
    return any(d.rule == rule for d in lint(snippet, path=path))


# ----------------------------------------------------------------------
# set-iteration
# ----------------------------------------------------------------------
class TestSetIterationRule:
    def test_for_loop_over_set_fires(self):
        assert fired(
            """
            def drain(pending: set[int]) -> None:
                for item in pending:
                    print(item)
            """,
            "set-iteration",
        )

    def test_list_of_set_fires(self):
        assert fired(
            """
            def snapshot(touched: set[int]) -> list[int]:
                return list(touched)
            """,
            "set-iteration",
        )

    def test_set_literal_flows_through_assignment(self):
        assert fired(
            """
            def order() -> list[int]:
                seen = {3, 1, 2}
                return [x + 1 for x in seen]
            """,
            "set-iteration",
        )

    def test_min_max_with_key_fires(self):
        assert fired(
            """
            def pick(scores: set[int]) -> int:
                return max(scores, key=lambda s: s % 7)
            """,
            "set-iteration",
        )

    def test_sorted_iteration_is_clean(self):
        assert not fired(
            """
            def drain(pending: set[int]) -> None:
                for item in sorted(pending):
                    print(item)
            """,
            "set-iteration",
        )

    def test_plain_min_max_is_clean(self):
        # Without key=, ties are impossible: min/max over a totally
        # ordered set is order-independent.
        assert not fired(
            """
            def pick(scores: set[int]) -> int:
                return max(scores)
            """,
            "set-iteration",
        )

    def test_list_iteration_is_clean(self):
        assert not fired(
            """
            def drain(pending: list[int]) -> None:
                for item in pending:
                    print(item)
            """,
            "set-iteration",
        )

    def test_suppression_comment_eats_it(self):
        assert not fired(
            """
            def drain(pending: set[int]) -> None:
                for item in pending:  # repro-lint: disable=set-iteration
                    print(item)
            """,
            "set-iteration",
        )


# ----------------------------------------------------------------------
# nondeterministic-call
# ----------------------------------------------------------------------
class TestNondeterministicCallRule:
    def test_bare_random_fires(self):
        assert fired(
            """
            import random

            def jitter() -> float:
                return random.random()
            """,
            "nondeterministic-call",
        )

    def test_time_time_fires(self):
        assert fired(
            """
            import time

            def stamp() -> float:
                return time.time()
            """,
            "nondeterministic-call",
        )

    def test_uuid4_and_secrets_fire(self):
        snippet = """
            import secrets
            import uuid

            def token() -> str:
                return uuid.uuid4().hex + secrets.token_hex(4)
            """
        findings = [d for d in lint(snippet) if d.rule == "nondeterministic-call"]
        assert len(findings) == 2

    def test_seeded_rng_instance_is_clean(self):
        assert not fired(
            """
            import random

            def shuffle(seed: int) -> random.Random:
                return random.Random(seed)
            """,
            "nondeterministic-call",
        )

    def test_perf_counter_is_clean(self):
        # Telemetry clocks are fine: they never feed results.
        assert not fired(
            """
            from time import perf_counter

            def tick() -> float:
                return perf_counter()
            """,
            "nondeterministic-call",
        )

    def test_suppression(self):
        assert not fired(
            """
            import time

            def stamp() -> float:
                return time.time()  # repro-lint: disable=nondeterministic-call
            """,
            "nondeterministic-call",
        )


# ----------------------------------------------------------------------
# float-equality
# ----------------------------------------------------------------------
class TestFloatEqualityRule:
    def test_float_literal_comparison_fires(self):
        assert fired(
            """
            def is_free(cost: int) -> bool:
                return cost == 0.0
            """,
            "float-equality",
        )

    def test_annotated_float_comparison_fires(self):
        assert fired(
            """
            def same(delay: float, other: float) -> bool:
                return delay != other
            """,
            "float-equality",
        )

    def test_int_comparison_is_clean(self):
        assert not fired(
            """
            def is_empty(count: int) -> bool:
                return count == 0
            """,
            "float-equality",
        )

    def test_tolerance_comparison_is_clean(self):
        assert not fired(
            """
            def close(a: float, b: float) -> bool:
                return abs(a - b) <= 1e-9
            """,
            "float-equality",
        )

    def test_suppression(self):
        assert not fired(
            """
            def is_free(cost: float) -> bool:
                return cost == 0.0  # repro-lint: disable=float-equality
            """,
            "float-equality",
        )


# ----------------------------------------------------------------------
# mutable-default
# ----------------------------------------------------------------------
class TestMutableDefaultRule:
    def test_list_default_fires(self):
        assert fired(
            """
            def collect(into=[]):
                return into
            """,
            "mutable-default",
        )

    def test_dict_and_set_call_defaults_fire(self):
        snippet = """
            def a(x=dict()):
                return x

            def b(y=set()):
                return y
            """
        findings = [d for d in lint(snippet) if d.rule == "mutable-default"]
        assert len(findings) == 2

    def test_bare_mutable_dataclass_field_fires(self):
        assert fired(
            """
            from dataclasses import dataclass

            @dataclass
            class Config:
                weights: list = []
            """,
            "mutable-default",
        )

    def test_none_default_is_clean(self):
        assert not fired(
            """
            def collect(into=None):
                return into or []
            """,
            "mutable-default",
        )

    def test_field_factory_is_clean(self):
        assert not fired(
            """
            from dataclasses import dataclass, field

            @dataclass
            class Config:
                weights: list = field(default_factory=list)
            """,
            "mutable-default",
        )

    def test_suppression(self):
        assert not fired(
            """
            def collect(into=[]):  # repro-lint: disable=mutable-default
                return into
            """,
            "mutable-default",
        )


# ----------------------------------------------------------------------
# undocumented-mutation
# ----------------------------------------------------------------------
MUTATOR = """
    def drain(queue, state):
        \"\"\"Pop everything.\"\"\"
        while queue:
            state.rip_up(queue.pop())
    """


class TestUndocumentedMutationRule:
    def test_undocumented_mutator_fires_in_scope(self):
        assert fired(MUTATOR, "undocumented-mutation",
                     path="src/repro/route/fake.py")

    def test_documented_mutator_is_clean(self):
        assert not fired(
            """
            def drain(queue, state):
                \"\"\"Pop everything.

                Mutates: ``queue`` (drained) and ``state`` (claims freed).
                \"\"\"
                while queue:
                    state.rip_up(queue.pop())
            """,
            "undocumented-mutation",
            path="src/repro/route/fake.py",
        )

    def test_out_of_scope_path_is_clean(self):
        assert not fired(MUTATOR, "undocumented-mutation",
                         path="src/repro/analysis/fake.py")

    def test_private_function_is_clean(self):
        assert not fired(
            """
            def _drain(queue):
                queue.pop()
            """,
            "undocumented-mutation",
            path="src/repro/core/fake.py",
        )

    def test_self_mutation_is_clean(self):
        assert not fired(
            """
            class Box:
                def put(self, item):
                    \"\"\"Store it.\"\"\"
                    self.items.append(item)
            """,
            "undocumented-mutation",
            path="src/repro/core/fake.py",
        )

    def test_suppression_on_def_line(self):
        assert not fired(
            """
            def drain(queue):  # repro-lint: disable=undocumented-mutation
                \"\"\"Pop everything.\"\"\"
                queue.pop()
            """,
            "undocumented-mutation",
            path="src/repro/core/fake.py",
        )


class TestNoPrintInLibraryRule:
    def test_print_in_library_fires(self):
        assert fired(
            """
            def report(value):
                print(f"value is {value}")
            """,
            "no-print-in-library",
            path="src/repro/flows/fake.py",
        )

    def test_cli_module_is_exempt(self):
        assert not fired(
            "print('usage: ...')\n",
            "no-print-in-library",
            path="src/repro/cli.py",
        )

    def test_dunder_main_is_exempt(self):
        assert not fired(
            "print('running')\n",
            "no-print-in-library",
            path="src/repro/obs/__main__.py",
        )

    def test_console_usage_is_clean(self):
        assert not fired(
            """
            from repro.obs.console import get_console

            def report(value):
                get_console().note(f"value is {value}")
            """,
            "no-print-in-library",
            path="src/repro/flows/fake.py",
        )

    def test_suppression_comment(self):
        assert not fired(
            """
            def report(value):
                print(value)  # repro-lint: disable=no-print-in-library
            """,
            "no-print-in-library",
            path="src/repro/flows/fake.py",
        )

    def test_library_tree_is_print_free(self):
        from pathlib import Path

        from repro.lint.engine import lint_paths
        from repro.lint.rules import NoPrintInLibraryRule

        findings = lint_paths(
            [Path(__file__).resolve().parent.parent / "src" / "repro"],
            rules=(NoPrintInLibraryRule(),),
        )
        assert findings == []


# ----------------------------------------------------------------------
# Engine mechanics
# ----------------------------------------------------------------------
class TestEngine:
    def test_parse_error_becomes_diagnostic(self):
        findings = lint_source("def broken(:\n", path="x.py")
        assert len(findings) == 1
        assert findings[0].rule == "parse-error"

    def test_diagnostics_sorted_by_position(self):
        snippet = textwrap.dedent(
            """
            import time

            def late(delay: float) -> bool:
                return delay == time.time()
            """
        )
        findings = lint_source(snippet, path="src/repro/core/fake.py")
        assert len(findings) >= 2  # float-equality + nondeterministic-call
        assert findings == sorted(
            findings, key=lambda d: (d.path, d.line, d.col, d.rule)
        )

    def test_format_is_grep_friendly(self):
        d = Diagnostic("a/b.py", 3, 7, "set-iteration", "msg")
        assert d.format() == "a/b.py:3:7: [set-iteration] msg"

    def test_standalone_suppression_covers_next_line(self):
        assert not fired(
            """
            def drain(pending: set[int]) -> None:
                # repro-lint: disable=set-iteration
                for item in pending:
                    print(item)
            """,
            "set-iteration",
        )

    def test_file_level_suppression(self):
        assert not fired(
            """
            # repro-lint: disable-file=set-iteration
            def drain(pending: set[int]) -> None:
                for item in pending:
                    print(item)
            """,
            "set-iteration",
        )

    def test_all_wildcard_suppresses_everything(self):
        assert not lint(
            """
            # repro-lint: disable-file=all
            import time

            def bad(pending: set[int]) -> float:
                for item in pending:
                    print(item)
                return time.time()
            """
        )

    def test_parse_suppressions_shapes(self):
        file_rules, by_line = parse_suppressions(
            "x = 1  # repro-lint: disable=a,b\n"
            "# repro-lint: disable=c\n"
            "y = 2\n"
            "# repro-lint: disable-file=d\n"
        )
        assert file_rules == {"d"}
        assert by_line == {1: {"a", "b"}, 3: {"c"}}

    def test_iter_python_files_sorted(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.py").write_text("x = 1\n")
        names = [p.name for p in iter_python_files([tmp_path])]
        assert names == ["a.py", "b.py", "c.py"]

    def test_rules_by_name_covers_all_shipped_rules(self):
        names = set(rules_by_name())
        assert names == {
            "set-iteration",
            "nondeterministic-call",
            "float-equality",
            "mutable-default",
            "undocumented-mutation",
            "no-print-in-library",
        }


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert lint_main([str(target)]) == 0
        assert "0 violations" in capsys.readouterr().out

    def test_violations_exit_one(self, tmp_path, capsys):
        target = tmp_path / "dirty.py"
        target.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert lint_main([str(target)]) == 1
        out = capsys.readouterr().out
        assert "nondeterministic-call" in out

    def test_unknown_rule_exits_two(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert lint_main([str(target), "--rules", "no-such-rule"]) == 2

    def test_missing_path_exits_two(self, tmp_path):
        assert lint_main([str(tmp_path / "nope.py")]) == 2

    def test_rule_subset_filters(self, tmp_path):
        target = tmp_path / "dirty.py"
        target.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert lint_main([str(target), "--rules", "float-equality"]) == 0

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "set-iteration" in out and "mutable-default" in out


# ----------------------------------------------------------------------
# The self-check: the shipped tree is clean
# ----------------------------------------------------------------------
class TestSelfCheck:
    def test_src_repro_is_lint_clean(self):
        findings = lint_paths([SRC_ROOT])
        assert findings == [], "\n".join(d.format() for d in findings)

    def test_lint_detects_all_rule_classes_somewhere(self):
        # Acceptance criterion: the analyzer demonstrably detects every
        # shipped rule class on fixture code.
        fixtures = {
            "set-iteration": "def f(s: set[int]):\n    return list(s)\n",
            "nondeterministic-call": (
                "import random\n\ndef f():\n    return random.random()\n"
            ),
            "float-equality": "def f(x: float):\n    return x == 1.0\n",
            "mutable-default": "def f(x=[]):\n    return x\n",
            "undocumented-mutation": (
                "def f(q):\n    q.pop()\n"
            ),
        }
        for rule, snippet in fixtures.items():
            findings = lint_source(snippet, path="src/repro/core/fx.py")
            assert any(d.rule == rule for d in findings), rule


# ======================================================================
# Deep (whole-program) analysis
# ======================================================================
@functools.lru_cache(maxsize=1)
def real_program() -> Program:
    """The shipped tree, parsed once per test session."""
    return Program.from_paths([SRC_ROOT])


@functools.lru_cache(maxsize=1)
def real_deep_result():
    """One deep run over the shipped tree, shared by the e2e tests."""
    return run_deep([SRC_ROOT], program=real_program())


def deep_fixture(sources: dict, **config_kwargs):
    """Run the deep rules over an in-memory fixture corpus."""
    program = Program.from_sources(
        {name: textwrap.dedent(source) for name, source in sources.items()}
    )
    return run_deep([], config=DeepConfig(**config_kwargs), program=program)


def deep_findings(sources: dict, rule: str, **config_kwargs):
    result = deep_fixture(sources, **config_kwargs)
    return [d for d in result.diagnostics if d.rule == rule]


# ----------------------------------------------------------------------
# Call graph construction
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_cross_module_call_resolved(self):
        program = Program.from_sources(
            {
                "app.util": "def helper() -> int:\n    return 1\n",
                "app.main": (
                    "from app import util\n\n"
                    "def entry() -> int:\n    return util.helper()\n"
                ),
            }
        )
        assert program.edges()["app.main.entry"] == ["app.util.helper"]

    def test_constructor_gives_method_resolution(self):
        program = Program.from_sources(
            {
                "app.box": (
                    "class Box:\n"
                    "    def ping(self) -> int:\n"
                    "        return 1\n\n"
                    "def use() -> int:\n"
                    "    box = Box()\n"
                    "    return box.ping()\n"
                ),
            }
        )
        assert program.edges()["app.box.use"] == ["app.box.Box.ping"]

    def test_reachable_from_and_call_chain(self):
        program = Program.from_sources(
            {
                "app.a": (
                    "from app import b\n\n"
                    "def root() -> int:\n    return b.mid()\n"
                ),
                "app.b": (
                    "from app import c\n\n"
                    "def mid() -> int:\n    return c.leaf()\n"
                ),
                "app.c": "def leaf() -> int:\n    return 1\n",
            }
        )
        parents = program.reachable_from(["app.a.root"])
        assert "app.c.leaf" in parents
        chain = program.call_chain(parents, "app.c.leaf")
        assert chain == ["app.a.root", "app.b.mid", "app.c.leaf"]

    def test_resolution_rate_on_shipped_tree(self):
        # Acceptance criterion: >= 95% of call sites across src/repro
        # resolve to a known target kind.
        program = real_program()
        assert program.total_calls > 1000
        assert program.resolution_rate() >= 0.95, (
            f"resolution dropped to {program.resolution_rate():.3f}; "
            f"samples: {program.unresolved_samples[:10]}"
        )

    def test_dot_export_of_move_transaction_subtree(self):
        dot = real_program().to_dot(
            root="transaction.apply_move", max_depth=2
        )
        assert dot.startswith("digraph")
        assert "apply_move" in dot
        assert "->" in dot


# ----------------------------------------------------------------------
# Effect inference & propagation
# ----------------------------------------------------------------------
class TestEffectAnalysis:
    def test_direct_param_mutation(self):
        program = Program.from_sources(
            {"app.ops": "def drain(items: list) -> None:\n    items.pop()\n"}
        )
        analysis = EffectAnalysis(program)
        assert ("mutates", "param:items") in analysis.effects["app.ops.drain"]

    def test_transitive_propagation_through_wrapper(self):
        program = Program.from_sources(
            {
                "app.ops": (
                    "def drain(items: list) -> None:\n"
                    "    items.pop()\n\n"
                    "def wrapper(queue: list) -> None:\n"
                    "    drain(queue)\n"
                ),
            }
        )
        analysis = EffectAnalysis(program)
        effects = analysis.effects["app.ops.wrapper"]
        assert ("mutates", "param:queue") in effects
        chain = analysis.provenance_chain(
            "app.ops.wrapper", ("mutates", "param:queue")
        )
        assert [step for step, _ in chain] == [
            "app.ops.wrapper", "app.ops.drain",
        ]

    def test_entropy_and_wallclock_effects(self):
        program = Program.from_sources(
            {
                "app.ops": (
                    "import random\n"
                    "import time\n\n"
                    "def roll() -> float:\n"
                    "    return random.random()\n\n"
                    "def stamp() -> float:\n"
                    "    return time.time()\n"
                ),
            }
        )
        analysis = EffectAnalysis(program)
        assert ("entropy",) in analysis.effects["app.ops.roll"]
        assert ("wallclock",) in analysis.effects["app.ops.stamp"]

    def test_seeded_rng_and_telemetry_are_clean(self):
        program = Program.from_sources(
            {
                "app.ops": (
                    "import random\n"
                    "import time\n\n"
                    "def seeded() -> float:\n"
                    "    rng = random.Random(7)\n"
                    "    return rng.random()\n\n"
                    "def telemetry() -> float:\n"
                    "    return time.perf_counter()\n"
                ),
            }
        )
        analysis = EffectAnalysis(program)
        assert ("entropy",) not in analysis.effects["app.ops.seeded"]
        assert ("wallclock",) not in analysis.effects["app.ops.telemetry"]

    def test_arraystate_inferred_effects_match_declarations(self):
        # Acceptance criterion: repro.core.arraystate's inferred effect
        # sets agree with its Mutates: docstrings — attach really does
        # mutate exactly the two objects it declares, and no
        # effect-docstring-sync finding targets the module.
        result = real_deep_result()
        analysis = result.analysis
        attach = "repro.core.arraystate.ArrayState.attach"
        effects = analysis.effects[attach]
        assert ("mutates", "param:state") in effects
        assert ("mutates", "param:timing") in effects
        sync = [
            d
            for d in result.diagnostics
            if d.rule == "effect-docstring-sync"
            and d.path.endswith("arraystate.py")
        ]
        assert sync == [], "\n".join(d.format() for d in sync)


# ----------------------------------------------------------------------
# transitive-nondeterminism
# ----------------------------------------------------------------------
class TestTransitiveNondeterminism:
    ROOT = ("engine.Annealer.run",)

    def test_entropy_reachable_from_root_fires_with_chain(self):
        findings = deep_findings(
            {
                "app.engine": """
                from app import util

                class Annealer:
                    def run(self) -> None:
                        util.perturb()
                """,
                "app.util": """
                import random

                def perturb() -> float:
                    return random.random()
                """,
            },
            "transitive-nondeterminism",
            nondet_roots=self.ROOT,
        )
        assert len(findings) == 1
        assert findings[0].path == "app/util.py"
        assert "engine.Annealer.run -> util.perturb" in findings[0].message

    def test_wallclock_reachable_from_root_fires(self):
        findings = deep_findings(
            {
                "app.engine": """
                import time

                class Annealer:
                    def run(self) -> float:
                        return time.time()
                """,
            },
            "transitive-nondeterminism",
            nondet_roots=self.ROOT,
        )
        assert len(findings) == 1
        assert "wall-clock" in findings[0].message

    def test_seeded_rng_in_hot_loop_is_clean(self):
        findings = deep_findings(
            {
                "app.engine": """
                import random

                class Annealer:
                    def __init__(self) -> None:
                        self.rng = random.Random(7)

                    def run(self) -> float:
                        return self.rng.random()
                """,
            },
            "transitive-nondeterminism",
            nondet_roots=self.ROOT,
        )
        assert findings == []

    def test_entropy_outside_root_subtree_is_clean(self):
        findings = deep_findings(
            {
                "app.engine": """
                class Annealer:
                    def run(self) -> int:
                        return 1
                """,
                "app.cli": """
                import random

                def shuffle_args() -> float:
                    return random.random()
                """,
            },
            "transitive-nondeterminism",
            nondet_roots=self.ROOT,
        )
        assert findings == []

    def test_synthetic_entropy_in_repair_is_caught(self):
        # Acceptance criterion: a random.random() call injected into
        # route/incremental.py (inside the annealer's repair path) is
        # reported with the hot-loop call chain.
        source = (SRC_ROOT / "route" / "incremental.py").read_text(
            encoding="utf-8"
        )
        bad = "import random\n" + source.replace(
            "ok = route_net_global(state, net_index, columns)",
            "random.random()\n"
            "            ok = route_net_global(state, net_index, columns)",
            1,
        )
        result = run_deep(
            [SRC_ROOT], overrides={"route/incremental.py": bad}
        )
        hits = [
            d
            for d in result.diagnostics
            if d.rule == "transitive-nondeterminism"
        ]
        assert len(hits) == 1
        assert hits[0].symbol == (
            "repro.route.incremental.IncrementalRouter.repair"
        )
        assert "SimultaneousAnnealer.run" in hits[0].message


# ----------------------------------------------------------------------
# unjournaled-mutation
# ----------------------------------------------------------------------
UNJOURNALED_SOURCES = {
    "app.state": """
    class RoutingState:
        def __init__(self) -> None:
            self.claims = []
            self.version = 0

        def commit(self, value: int) -> None:
            self.claims.append(value)
            self.version = value
    """,
    "app.rogue": """
    from app.state import RoutingState

    def poke(state: RoutingState) -> None:
        state.version = 99
    """,
    "app.journal": """
    from app.state import RoutingState

    def restore(state: RoutingState) -> None:
        state.version = 0
    """,
}

UNJOURNALED_CONFIG = dict(
    guarded_classes=("RoutingState",),
    sanctioned_modules=("app.journal",),
    sanctioned_functions=(),
)


class TestUnjournaledMutation:
    def test_outside_write_fires(self):
        findings = deep_findings(
            UNJOURNALED_SOURCES, "unjournaled-mutation",
            **UNJOURNALED_CONFIG,
        )
        assert len(findings) == 1
        assert findings[0].symbol == "app.rogue.poke"
        assert "RoutingState.version" in findings[0].message

    def test_sanctioned_module_is_exempt(self):
        findings = deep_findings(
            UNJOURNALED_SOURCES, "unjournaled-mutation",
            **UNJOURNALED_CONFIG,
        )
        assert not any(d.symbol.startswith("app.journal.") for d in findings)

    def test_own_methods_are_exempt(self):
        findings = deep_findings(
            UNJOURNALED_SOURCES, "unjournaled-mutation",
            **UNJOURNALED_CONFIG,
        )
        assert not any(d.symbol.startswith("app.state.") for d in findings)

    def test_sanctioned_function_is_exempt(self):
        config = dict(UNJOURNALED_CONFIG)
        config["sanctioned_functions"] = ("rogue.poke",)
        findings = deep_findings(
            UNJOURNALED_SOURCES, "unjournaled-mutation", **config
        )
        assert findings == []

    def test_synthetic_rogue_write_is_caught(self):
        # Acceptance criterion: an ArrayState/RoutingState field write
        # outside the journal, injected into core/moves.py, is caught.
        source = (SRC_ROOT / "core" / "moves.py").read_text(
            encoding="utf-8"
        )
        bad = source + (
            '\n\ndef rogue_touch(state: "RoutingState") -> None:\n'
            "    state.route_version[0] = 7\n"
        )
        result = run_deep([SRC_ROOT], overrides={"core/moves.py": bad})
        hits = [
            d
            for d in result.diagnostics
            if d.rule == "unjournaled-mutation"
            and d.symbol == "repro.core.moves.rogue_touch"
        ]
        assert len(hits) == 1
        assert "route_version" in hits[0].message


# ----------------------------------------------------------------------
# core-parity-drift
# ----------------------------------------------------------------------
class TestCoreParityDrift:
    def test_diverging_branches_fire(self):
        findings = deep_findings(
            {
                "app.core": """
                class Engine:
                    def __init__(self) -> None:
                        self.array_core = None
                        self.log = []

                    def _fast(self, value: int) -> None:
                        self.log.append(value)

                    def _slow(self, value: int) -> None:
                        pass

                    def apply(self, value: int) -> None:
                        if self.array_core is not None:
                            self._fast(value)
                        else:
                            self._slow(value)
                """,
            },
            "core-parity-drift",
        )
        assert len(findings) == 1
        assert "array-only" in findings[0].message
        assert findings[0].symbol == "app.core.Engine.apply"

    def test_matching_branches_are_clean(self):
        findings = deep_findings(
            {
                "app.core": """
                class Engine:
                    def __init__(self) -> None:
                        self.array_core = None
                        self.log = []

                    def _fast(self, value: int) -> None:
                        self.log.append(value)

                    def apply(self, value: int) -> None:
                        if self.array_core is not None:
                            self._fast(value)
                        else:
                            self._fast(value)
                """,
            },
            "core-parity-drift",
        )
        assert findings == []

    def test_non_dispatch_if_is_ignored(self):
        findings = deep_findings(
            {
                "app.core": """
                class Engine:
                    def __init__(self) -> None:
                        self.verbose = False
                        self.log = []

                    def apply(self, value: int) -> None:
                        if self.verbose:
                            self.log.append(value)
                        else:
                            pass
                """,
            },
            "core-parity-drift",
        )
        assert findings == []

    def test_synthetic_drift_in_restore_all_is_caught(self):
        # Deleting the fast-branch phantom-release logging must trip the
        # parity contract between the flat-array and legacy paths.
        source = (SRC_ROOT / "route" / "incremental.py").read_text(
            encoding="utf-8"
        )
        bad = source.replace(
            "state.log_phantom_releases(net_index)", "pass", 1
        )
        assert bad != source
        result = run_deep(
            [SRC_ROOT], overrides={"route/incremental.py": bad}
        )
        hits = [
            d for d in result.diagnostics if d.rule == "core-parity-drift"
        ]
        assert len(hits) == 1
        assert hits[0].symbol == (
            "repro.route.incremental.NetJournal.restore_all"
        )
        assert "legacy-only" in hits[0].message


# ----------------------------------------------------------------------
# effect-docstring-sync
# ----------------------------------------------------------------------
class TestEffectDocstringSync:
    def test_undeclared_param_mutation_fires(self):
        findings = deep_findings(
            {
                "app.core.ops": """
                def drain(queue: list) -> None:
                    queue.pop()
                """,
            },
            "effect-docstring-sync",
        )
        assert len(findings) == 1
        assert "'queue'" in findings[0].message

    def test_transitive_mutation_reports_provenance(self):
        findings = deep_findings(
            {
                "app.core.ops": """
                def _drain(queue: list) -> None:
                    queue.pop()

                def run(queue: list) -> None:
                    _drain(queue)
                """,
            },
            "effect-docstring-sync",
        )
        assert len(findings) == 1
        assert findings[0].symbol == "app.core.ops.run"
        assert "via" in findings[0].message

    def test_stale_backticked_declaration_fires(self):
        findings = deep_findings(
            {
                "app.core.ops": '''
                def report(state: list) -> int:
                    """Count things.

                    Mutates: ``state`` by appending.
                    """
                    return len(state)
                ''',
            },
            "effect-docstring-sync",
        )
        assert len(findings) == 1
        assert "stale" in findings[0].message

    def test_prose_mention_satisfies_missing_direction(self):
        findings = deep_findings(
            {
                "app.core.ops": '''
                def consume(state: list) -> None:
                    """Drain.

                    Mutates: the routing state, in place.
                    """
                    state.pop()
                ''',
            },
            "effect-docstring-sync",
        )
        assert findings == []

    def test_prose_word_is_not_a_stale_declaration(self):
        # "move" below is prose that happens to collide with a
        # parameter name; only ``backticked`` names count as declared.
        findings = deep_findings(
            {
                "app.core.ops": '''
                def apply(move: int, log: list) -> None:
                    """Apply.

                    Mutates: ``log`` — applies the move to the log.
                    """
                    log.append(move)
                ''',
            },
            "effect-docstring-sync",
        )
        assert findings == []

    def test_private_and_out_of_scope_are_exempt(self):
        findings = deep_findings(
            {
                "app.core.ops": """
                def _drain(queue: list) -> None:
                    queue.pop()
                """,
                "app.misc.ops": """
                def drain(queue: list) -> None:
                    queue.pop()
                """,
            },
            "effect-docstring-sync",
        )
        assert findings == []


# ----------------------------------------------------------------------
# unused-suppression
# ----------------------------------------------------------------------
class TestUnusedSuppression:
    def test_stale_suppression_fires_at_comment_line(self):
        findings = lint(
            """
            def f() -> int:
                return 1  # repro-lint: disable=set-iteration
            """
        )
        assert [d.rule for d in findings] == ["unused-suppression"]
        assert findings[0].line == 3
        assert "set-iteration" in findings[0].message

    def test_used_suppression_is_silent(self):
        findings = lint(
            """
            def f(s: set[int]) -> list[int]:
                return list(s)  # repro-lint: disable=set-iteration
            """
        )
        assert findings == []

    def test_subset_run_leaves_unselected_rules_alone(self):
        # A --rules subset that never runs set-iteration cannot judge a
        # set-iteration suppression; it must stay silent rather than
        # call it stale.
        source = textwrap.dedent(
            """
            def f() -> int:
                return 1  # repro-lint: disable=set-iteration
            """
        )
        subset = [rules_by_name()["float-equality"]]
        assert lint_source(
            source, path="src/repro/core/fake.py", rules=subset
        ) == []

    def test_unused_suppression_is_itself_suppressible(self):
        findings = lint(
            """
            def f() -> int:
                # repro-lint: disable=unused-suppression
                return 1  # repro-lint: disable=set-iteration
            """
        )
        assert findings == []

    def test_parse_suppression_records_shapes(self):
        records = parse_suppression_records(
            "# repro-lint: disable-file=set-iteration\n"
            "x = 1  # repro-lint: disable=float-equality\n"
            "# repro-lint: disable=all\n"
            "y = 2\n"
        )
        shapes = [(r.scope, r.target_line, sorted(r.rules)) for r in records]
        assert ("file", 0, ["set-iteration"]) in shapes
        assert ("line", 2, ["float-equality"]) in shapes
        assert ("line", 4, ["all"]) in shapes

    def test_shipped_tree_has_no_stale_suppressions(self):
        stale = [
            d
            for d in lint_paths([SRC_ROOT])
            if d.rule == "unused-suppression"
        ]
        assert stale == [], "\n".join(d.format() for d in stale)


# ----------------------------------------------------------------------
# Baseline ratchet
# ----------------------------------------------------------------------
class TestBaselineRatchet:
    def _diag(self, rule="unjournaled-mutation", path="src/a.py",
              symbol="m.f"):
        return Diagnostic(path, 1, 0, rule, "msg", symbol=symbol)

    def test_waived_finding_passes(self):
        waiver = Waiver("unjournaled-mutation", "src/a.py", "m.f", "ok")
        result = apply_baseline([self._diag()], [waiver])
        assert result.clean
        assert len(result.waived) == 1

    def test_new_finding_fails(self):
        waiver = Waiver("unjournaled-mutation", "src/a.py", "m.f", "ok")
        result = apply_baseline(
            [self._diag(), self._diag(symbol="m.g")], [waiver]
        )
        assert not result.clean
        assert [d.symbol for d in result.new] == ["m.g"]

    def test_stale_waiver_fails(self):
        waiver = Waiver("unjournaled-mutation", "src/a.py", "m.f", "ok")
        result = apply_baseline([], [waiver])
        assert not result.clean
        assert result.stale == [waiver]

    def test_load_baseline_requires_reasons(self, tmp_path):
        payload = {
            "version": 1,
            "waivers": [
                {"rule": "r", "path": "p", "symbol": "s", "reason": ""}
            ],
        }
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps(payload))
        with pytest.raises(BaselineError, match="reason"):
            load_baseline(target)

    def test_load_baseline_rejects_malformed_json(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text("{not json")
        with pytest.raises(BaselineError):
            load_baseline(target)

    def test_committed_baseline_is_well_formed(self):
        waivers = load_baseline(BASELINE)
        assert waivers, "committed baseline lost its waivers"
        for waiver in waivers:
            assert len(waiver.reason) > 20, waiver


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
class TestDeepRenderers:
    def test_json_report_shape(self):
        result = real_deep_result()
        payload = json.loads(
            render_json(result.diagnostics, result.program)
        )
        assert payload["resolution"]["rate"] >= 0.95
        assert "by_rule" in payload["summary"]

    def test_sarif_report_shape(self):
        result = real_deep_result()
        payload = json.loads(render_sarif(result.diagnostics))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {
            rule["id"] for rule in run["tool"]["driver"]["rules"]
        }
        assert "transitive-nondeterminism" in rule_ids
        assert "unjournaled-mutation" in rule_ids
        for entry in run["results"]:
            location = entry["locations"][0]["physicalLocation"]
            assert location["region"]["startLine"] >= 1


# ----------------------------------------------------------------------
# Deep CLI: exit codes, --jobs, --deep, --baseline, --dot
# ----------------------------------------------------------------------
class TestDeepCli:
    def test_deep_with_committed_baseline_is_clean(self, monkeypatch,
                                                   capsys):
        # Acceptance criterion: the shipped tree passes --deep against
        # the committed baseline (waivers only, no new findings).
        monkeypatch.chdir(REPO_ROOT)
        code = lint_main(
            ["src/repro", "--deep", "--baseline", "lint_baseline.json"]
        )
        out = capsys.readouterr().out
        assert code == 0, out
        assert "waived" in out
        assert "call resolution" in out

    def test_deep_without_baseline_reports_waived_findings(
        self, monkeypatch, capsys
    ):
        monkeypatch.chdir(REPO_ROOT)
        assert lint_main(["src/repro", "--deep"]) == 1
        assert "unjournaled-mutation" in capsys.readouterr().out

    def test_malformed_baseline_exits_two(self, monkeypatch, tmp_path,
                                          capsys):
        monkeypatch.chdir(REPO_ROOT)
        bad = tmp_path / "baseline.json"
        bad.write_text('{"waivers": [{"rule": "r"}]}')
        code = lint_main(
            ["src/repro", "--deep", "--baseline", str(bad)]
        )
        assert code == 2

    def test_bad_jobs_exits_two(self, tmp_path):
        target = tmp_path / "clean.py"
        target.write_text("x = 1\n")
        assert lint_main([str(target), "--jobs", "0"]) == 2

    def test_parallel_run_matches_serial(self):
        serial = lint_paths([SRC_ROOT / "timing"], jobs=1)
        parallel = lint_paths([SRC_ROOT / "timing"], jobs=2)
        assert [d.format() for d in serial] == [
            d.format() for d in parallel
        ]

    def test_sarif_output_file(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(REPO_ROOT)
        out_file = tmp_path / "deep.sarif"
        lint_main(
            [
                "src/repro", "--deep", "--baseline", "lint_baseline.json",
                "--format", "sarif", "--output", str(out_file),
            ]
        )
        capsys.readouterr()
        payload = json.loads(out_file.read_text())
        assert payload["version"] == "2.1.0"

    def test_dot_export_flag(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(REPO_ROOT)
        out_file = tmp_path / "callgraph.dot"
        code = lint_main(
            [
                "src/repro", "--dot", str(out_file),
                "--dot-root", "transaction.apply_move",
                "--dot-depth", "2",
            ]
        )
        capsys.readouterr()
        assert code == 0
        dot = out_file.read_text()
        assert dot.startswith("digraph")
        assert "apply_move" in dot

    def test_list_rules_includes_deep_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "transitive-nondeterminism" in out
        assert "core-parity-drift" in out
        assert "unused-suppression" in out


# ----------------------------------------------------------------------
# Deep self-check: the shipped tree is deep-clean modulo the baseline
# ----------------------------------------------------------------------
class TestDeepSelfCheck:
    def test_shipped_tree_is_deep_clean_against_baseline(self):
        result = real_deep_result()
        waivers = load_baseline(BASELINE)
        # Paths in the cached run are absolute; rebase the waivers the
        # same way the CI invocation sees them (repo-root relative).
        rebased = [
            Waiver(
                w.rule, str(REPO_ROOT / w.path).replace("\\", "/"),
                w.symbol, w.reason,
            )
            for w in waivers
        ]
        ratchet = apply_baseline(result.diagnostics, rebased)
        assert ratchet.clean, (
            "new: " + "\n".join(d.format() for d in ratchet.new)
            + "; stale: " + str(ratchet.stale)
        )

    def test_every_deep_rule_fires_somewhere(self):
        # The analyzer demonstrably detects every deep rule class on
        # fixture code (mirrors the per-file capstone above).
        sources = {
            "app.core.engine": """
            import random

            class RoutingState:
                def __init__(self) -> None:
                    self.version = 0
                    self.array_core = None

                def tick(self) -> None:
                    if self.array_core is not None:
                        self.version = 1
                    else:
                        pass

            class Annealer:
                def run(self, state: RoutingState) -> float:
                    state.version = 2
                    return random.random()
            """,
        }
        result = deep_fixture(
            sources,
            nondet_roots=("engine.Annealer.run",),
            guarded_classes=("RoutingState",),
            sanctioned_modules=(),
            sanctioned_functions=(),
        )
        fired_rules = {d.rule for d in result.diagnostics}
        assert "transitive-nondeterminism" in fired_rules
        assert "unjournaled-mutation" in fired_rules
        assert "core-parity-drift" in fired_rules
        assert "effect-docstring-sync" in fired_rules
