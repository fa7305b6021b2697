"""`repro.lint`: the repo's own determinism & invariant analyzer.

The engine's correctness story rests on bit-identical determinism: the
incremental cost maintenance (``Cost = Wg*G + Wd*D + Wt*T``) is only
trustworthy if a run's layout is a pure function of its seed, and the
move-transaction fast paths are only safe if every cache and rollback
journal stays coherent with the authoritative state.  Nothing in stock
Python enforces either property, so this package does, twice over:

* **statically** — an AST-based rule engine (stdlib ``ast``, no
  third-party dependencies) that scans source for the bug classes that
  historically reintroduce nondeterminism or desync: unsorted ``set``
  iteration feeding ordering-sensitive sinks, module-level / unseeded
  randomness, float ``==``, mutable defaults, and undocumented argument
  mutation in the hot packages.  Run it with ``repro-fpga lint`` or
  ``python -m repro.lint``; suppress a finding in place with
  ``# repro-lint: disable=RULE`` (stale suppressions are themselves
  flagged).  ``--deep`` escalates to a **whole-program** pass: a
  name-resolved call graph (:mod:`repro.lint.callgraph`) with
  transitive per-function effect inference
  (:mod:`repro.lint.effects`) feeding three deep rules
  (:mod:`repro.lint.deep`) — entropy/wall-clock reachable from the
  annealer hot loop, guarded-state writes outside the journal, and
  ``Mutates:`` docstrings out of sync with inferred effects — with
  ratchet semantics against the committed ``lint_baseline.json``,
  JSON/SARIF reports, and Graphviz DOT call-graph export.

* **dynamically** — :mod:`repro.lint.runtime` hosts the consolidated
  invariant checker (:func:`~repro.lint.runtime.check_all`) and the
  move-transaction sanitizer (:class:`~repro.lint.runtime.MoveSanitizer`)
  that ``AnnealerConfig(sanitize=True)`` hooks into the annealer: after
  every move it cross-checks rollback completeness, negative-cache
  coherence, and audit/verify cleanliness, raising a structured
  :class:`~repro.lint.runtime.SanitizerError` naming the offending move.

See ``docs/LINT.md`` for the rule catalogue and rationale.
"""

from __future__ import annotations

from .callgraph import Program
from .deep import (
    DeepConfig,
    DeepResult,
    apply_baseline,
    load_baseline,
    render_json,
    render_sarif,
    run_deep,
)
from .effects import EffectAnalysis
from .engine import (
    Diagnostic,
    iter_python_files,
    lint_paths,
    lint_source,
    parse_suppression_records,
    parse_suppressions,
)
from .rules import Rule, default_rules, rules_by_name

__all__ = [
    "DeepConfig",
    "DeepResult",
    "Diagnostic",
    "EffectAnalysis",
    "Program",
    "Rule",
    "apply_baseline",
    "default_rules",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "parse_suppression_records",
    "parse_suppressions",
    "render_json",
    "render_sarif",
    "rules_by_name",
    "run_deep",
]
