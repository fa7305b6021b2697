"""Deep (whole-program) lint rules, baseline ratchet, and renderers.

The three rules here consume :class:`repro.lint.callgraph.Program` and
:class:`repro.lint.effects.EffectAnalysis` rather than a single module
AST — they answer questions no per-file rule can:

``transitive-nondeterminism``
    An entropy or wall-clock source is *reachable* from the annealer
    hot loop (:meth:`SimultaneousAnnealer.run`) through the call graph.
    The per-file ``nondeterministic-call`` rule flags the source line;
    this rule proves the source can actually contaminate a layout, and
    names the call chain.  Seeded ``random.Random`` instances and the
    monotonic telemetry clocks are whitelisted at extraction time.

``unjournaled-mutation``
    A field of :class:`RoutingState` / :class:`ArrayState` /
    :class:`IncrementalTiming` is written from outside the sanctioned
    mutation surface (the classes' own methods, the journal/transaction
    modules, and the named restore APIs).  This is the desync bug class
    the runtime sanitizer only catches dynamically, per move, with a
    failing seed in hand; here it is caught at review time.

``effect-docstring-sync``
    The deep upgrade of ``undocumented-mutation``: instead of verb
    heuristics, the *inferred* transitive effect set is checked against
    the ``Mutates:`` docstring declaration — both directions.  A
    mutated parameter missing from the declaration is flagged, and a
    declared parameter that provably cannot be mutated is flagged as
    stale.  ``maybe_mutates`` (unresolved-call involvement) suppresses
    the stale direction only: imprecision costs recall, not precision.

Also here: the committed-baseline ratchet (`lint_baseline.json`) and
the JSON / SARIF 2.1.0 renderers the CI deep-lint job consumes.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .callgraph import Program
from .effects import EffectAnalysis
from .engine import Diagnostic, parse_suppressions

#: Hot-loop roots for transitive-nondeterminism (resolved by suffix, so
#: tests with other module prefixes can reuse the default).
DEFAULT_NONDET_ROOTS = ("core.annealer.SimultaneousAnnealer.run",)

#: Simple class names whose fields are guarded by unjournaled-mutation.
DEFAULT_GUARDED_CLASSES = ("RoutingState", "ArrayState", "IncrementalTiming")

#: Modules that ARE the sanctioned mutation surface: the undo journal /
#: rip-up-repair driver and the move-transaction layer exist to write
#: routing-state fields, and the runtime sanitizer audits them per move.
DEFAULT_SANCTIONED_MODULES = (
    "route.incremental",
    "core.transaction",
)

#: Qualname suffixes of individually sanctioned restore/install APIs.
DEFAULT_SANCTIONED_FUNCTIONS = (
    # Checkpoint-resume restore path: rehydrates route_version and the
    # timing cache versions wholesale from a validated payload.
    "SimultaneousAnnealer._restore",
)

#: Path fragments the docstring-sync rule is scoped to (mirrors the
#: per-file undocumented-mutation rule).
DEFAULT_SYNC_SCOPE = ("core", "route", "timing")


@dataclass
class DeepConfig:
    """Tunables for the deep rules (tests swap in synthetic values)."""

    nondet_roots: Sequence[str] = DEFAULT_NONDET_ROOTS
    guarded_classes: Sequence[str] = DEFAULT_GUARDED_CLASSES
    sanctioned_modules: Sequence[str] = DEFAULT_SANCTIONED_MODULES
    sanctioned_functions: Sequence[str] = DEFAULT_SANCTIONED_FUNCTIONS
    sync_scope: Sequence[str] = DEFAULT_SYNC_SCOPE


@dataclass
class DeepResult:
    """Everything one deep run produces."""

    program: Program
    analysis: EffectAnalysis
    diagnostics: list = field(default_factory=list)


def _short(fn_id: str) -> str:
    """Compact display name: drop the top-level package prefix."""
    parts = fn_id.split(".")
    return ".".join(parts[1:]) if len(parts) > 2 else fn_id


def _module_suffix_match(module: str, suffixes: Iterable[str]) -> bool:
    return any(
        module == suffix or module.endswith("." + suffix)
        for suffix in suffixes
    )


def _qualname_suffix_match(fn_id: str, suffixes: Iterable[str]) -> bool:
    return any(
        fn_id == suffix or fn_id.endswith("." + suffix)
        for suffix in suffixes
    )


# ----------------------------------------------------------------------
# transitive-nondeterminism
# ----------------------------------------------------------------------
def check_transitive_nondeterminism(
    program: Program,
    analysis: EffectAnalysis,
    roots: Sequence[str] = DEFAULT_NONDET_ROOTS,
) -> list:
    """Entropy/wall-clock sources reachable from the hot-loop roots."""
    resolved_roots = []
    for root in roots:
        fn_id = program._resolve_fn_ref(root)
        if fn_id is not None:
            resolved_roots.append(fn_id)
    parents = program.reachable_from(resolved_roots)
    findings = []
    for fn_id in sorted(parents):
        info = program.functions[fn_id]
        for site in info.effect_sites:
            if site.kind not in ("entropy", "wallclock"):
                continue
            chain = " -> ".join(
                _short(step) for step in program.call_chain(parents, fn_id)
            )
            what = "entropy source" if site.kind == "entropy" else \
                "wall-clock read"
            findings.append(
                Diagnostic(
                    info.path, site.lineno, site.col,
                    "transitive-nondeterminism",
                    f"{what} {site.target} is reachable from the annealer "
                    f"hot loop ({chain}); layouts must be a pure function "
                    f"of the seed — route randomness through the config-"
                    f"owned random.Random and timestamps through "
                    f"telemetry-only monotonic timers",
                    symbol=fn_id,
                )
            )
    return findings


# ----------------------------------------------------------------------
# unjournaled-mutation
# ----------------------------------------------------------------------
def check_unjournaled_mutation(
    program: Program, config: Optional[DeepConfig] = None
) -> list:
    """Guarded-class field writes outside the sanctioned surface."""
    config = config or DeepConfig()
    guarded = {
        class_id
        for name in config.guarded_classes
        for class_id in program.classes_named(name)
    }
    findings = []
    for fn_id in sorted(program.functions):
        info = program.functions[fn_id]
        if _module_suffix_match(info.module, config.sanctioned_modules):
            continue
        if _qualname_suffix_match(fn_id, config.sanctioned_functions):
            continue
        own_class = (
            f"{info.module}.{info.klass}" if info.klass is not None else None
        )
        seen = set()
        for write in info.write_sites:
            if write.class_id not in guarded:
                continue
            if write.via_self and own_class is not None and \
                    program.is_subclass(own_class, write.class_id):
                continue  # a guarded class maintaining its own fields
            key = (write.class_id, write.attr, write.lineno)
            if key in seen:
                continue
            seen.add(key)
            class_name = write.class_id.rsplit(".", 1)[-1]
            findings.append(
                Diagnostic(
                    info.path, write.lineno, write.col,
                    "unjournaled-mutation",
                    f"write to {class_name}.{write.attr} from outside the "
                    f"journaled mutation surface; route the change through "
                    f"the transaction/journal API (or a sanctioned restore) "
                    f"so rollback and the incremental caches stay coherent",
                    symbol=fn_id,
                )
            )
    return findings


# ----------------------------------------------------------------------
# effect-docstring-sync
# ----------------------------------------------------------------------
_BACKTICKED = re.compile(r"``([A-Za-z_][A-Za-z0-9_]*)``")


def _mutates_tokens(docstring: str) -> Optional[tuple]:
    """``(all_tokens, backticked_tokens)`` of the ``Mutates:`` paragraph.

    Returns None when the docstring has no ``Mutates:`` section.  The
    two tiers feed the two directions asymmetrically: the *missing*
    check accepts any word of the paragraph (prose like "the routing
    state" counts for a ``state`` parameter — leniency there costs
    nothing), while the *stale* check only considers names the author
    explicitly quoted as ````param```` — a prose word that happens to
    collide with a parameter name ("applies the move") must not be
    read as a declaration.
    """
    if "Mutates:" not in docstring:
        return None
    tokens: set[str] = set()
    quoted: set[str] = set()
    capturing = False
    paragraph: list[str] = []
    for line in docstring.splitlines():
        if "Mutates:" in line:
            capturing = True
        elif capturing and not line.strip():
            break
        if capturing:
            paragraph.append(line)
            word: list[str] = []
            for char in line:
                if char.isalnum() or char == "_":
                    word.append(char)
                elif word:
                    tokens.add("".join(word))
                    word = []
            if word:
                tokens.add("".join(word))
    quoted.update(_BACKTICKED.findall("\n".join(paragraph)))
    return tokens, quoted


def check_effect_docstring_sync(
    program: Program,
    analysis: EffectAnalysis,
    scope: Sequence[str] = DEFAULT_SYNC_SCOPE,
) -> list:
    """Declared ``Mutates:`` lines vs inferred transitive effects."""
    findings = []
    for fn_id in sorted(program.functions):
        info = program.functions[fn_id]
        parts = info.path.replace("\\", "/").split("/")
        if scope and not any(part in scope for part in parts):
            continue
        if info.name.startswith("_"):
            continue
        node = info.node
        docstring = ast_get_docstring(node)
        declared = _mutates_tokens(docstring)
        mutated = analysis.mutated_targets(fn_id)
        maybe = analysis.maybe_targets(fn_id)
        params = set(info.bound_params)
        mutated_params = {
            t[6:] for t in mutated if t.startswith("param:") and t[6:] in params
        }
        maybe_params = {
            t[6:] for t in maybe if t.startswith("param:") and t[6:] in params
        }
        if declared is None:
            # No Mutates: section at all.  Mutating your own instance is
            # ordinary OO (the per-file rule's stance); mutating an
            # *argument* silently is the contract violation.
            for param in sorted(mutated_params):
                findings.append(
                    _sync_missing(info, analysis, fn_id, param)
                )
            continue
        all_tokens, quoted = declared
        for param in sorted(mutated_params - all_tokens):
            findings.append(_sync_missing(info, analysis, fn_id, param))
        for param in sorted((quoted & params) - mutated_params - maybe_params):
            findings.append(
                Diagnostic(
                    info.path, info.node.lineno, info.node.col_offset,
                    "effect-docstring-sync",
                    f"docstring of {info.name!r} declares 'Mutates: ... "
                    f"{param} ...' but no write to {param!r} is inferred "
                    f"anywhere in its call tree; delete the stale "
                    f"declaration (or name the actually-mutated object)",
                    symbol=fn_id,
                )
            )
    return findings


def _sync_missing(info, analysis, fn_id, param):
    chain = analysis.provenance_chain(fn_id, ("mutates", f"param:{param}"))
    via = ""
    if len(chain) > 1:
        via = " (via " + " -> ".join(
            _short(step) for step, _ in chain[1:]
        ) + ")"
    return Diagnostic(
        info.path, info.node.lineno, info.node.col_offset,
        "effect-docstring-sync",
        f"public function {info.name!r} mutates argument {param!r}{via} "
        f"but its 'Mutates:' declaration does not name it; the rollback "
        f"machinery is only auditable when every in-place effect is "
        f"declared at the call boundary",
        symbol=fn_id,
    )


def ast_get_docstring(node) -> str:
    """Docstring of a def node ('' when absent or not a def)."""
    try:
        return ast.get_docstring(node) or ""
    except TypeError:
        return ""


#: Rule name -> one-line summary, for --list-rules and SARIF metadata.
DEEP_RULES = {
    "transitive-nondeterminism": (
        "entropy/wall-clock source reachable from the annealer hot loop"
    ),
    "unjournaled-mutation": (
        "guarded-state field write outside the transaction/journal surface"
    ),
    "effect-docstring-sync": (
        "'Mutates:' docstring declaration out of sync with inferred effects"
    ),
    "unused-suppression": (
        "a repro-lint suppression comment that silences nothing"
    ),
}


def run_deep(
    paths: Iterable,
    config: Optional[DeepConfig] = None,
    overrides: Optional[dict] = None,
    program: Optional[Program] = None,
) -> DeepResult:
    """Build the program, run every deep rule, honor suppressions."""
    config = config or DeepConfig()
    if program is None:
        program = Program.from_paths(paths, overrides=overrides)
    analysis = EffectAnalysis(program)
    findings: list = []
    findings.extend(
        check_transitive_nondeterminism(
            program, analysis, config.nondet_roots
        )
    )
    findings.extend(check_unjournaled_mutation(program, config))
    findings.extend(
        check_effect_docstring_sync(program, analysis, config.sync_scope)
    )
    # In-source suppression comments apply to deep findings exactly as
    # they do to per-file findings.
    survivors = []
    suppressions: dict[str, tuple] = {}
    for diagnostic in findings:
        module = next(
            (
                m for m in program.modules.values()
                if m.path == diagnostic.path
            ),
            None,
        )
        if module is None:
            survivors.append(diagnostic)
            continue
        if module.path not in suppressions:
            suppressions[module.path] = parse_suppressions(module.source)
        file_rules, by_line = suppressions[module.path]
        if "all" in file_rules or diagnostic.rule in file_rules:
            continue
        line_rules = by_line.get(diagnostic.line, set())
        if "all" in line_rules or diagnostic.rule in line_rules:
            continue
        survivors.append(diagnostic)
    survivors.sort(key=lambda d: (d.path, d.line, d.col, d.rule))
    return DeepResult(program=program, analysis=analysis,
                      diagnostics=survivors)


# ----------------------------------------------------------------------
# Baseline ratchet
# ----------------------------------------------------------------------
class BaselineError(ValueError):
    """Malformed baseline file (a config error: CLI exit code 2)."""


@dataclass(frozen=True)
class Waiver:
    """One accepted finding, with a mandatory justification."""

    rule: str
    path: str
    symbol: str
    reason: str

    @property
    def key(self) -> tuple:
        return (self.rule, self.path, self.symbol)


@dataclass
class BaselineResult:
    """Ratchet outcome: what is new, what is waived, what went stale."""

    new: list = field(default_factory=list)  # unwaived Diagnostics
    waived: list = field(default_factory=list)  # waived Diagnostics
    stale: list = field(default_factory=list)  # Waivers matching nothing

    @property
    def clean(self) -> bool:
        return not self.new and not self.stale


def load_baseline(path) -> list:
    """Parse ``lint_baseline.json``; raises :class:`BaselineError`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise BaselineError(f"cannot read baseline {path}: {exc}") from exc
    if not isinstance(payload, dict) or "waivers" not in payload:
        raise BaselineError(
            f"baseline {path} must be an object with a 'waivers' list"
        )
    waivers = []
    for index, entry in enumerate(payload["waivers"]):
        if not isinstance(entry, dict):
            raise BaselineError(f"baseline waiver #{index} is not an object")
        missing = [
            key for key in ("rule", "path", "symbol", "reason")
            if not entry.get(key)
        ]
        if missing:
            raise BaselineError(
                f"baseline waiver #{index} is missing {', '.join(missing)} "
                f"(every waiver needs a one-line justification)"
            )
        waivers.append(
            Waiver(
                rule=entry["rule"],
                path=entry["path"].replace("\\", "/"),
                symbol=entry["symbol"],
                reason=entry["reason"],
            )
        )
    return waivers


def apply_baseline(diagnostics: Iterable, waivers: Iterable) -> BaselineResult:
    """Ratchet semantics: new findings fail, stale waivers fail too."""
    result = BaselineResult()
    by_key: dict[tuple, list] = {}
    for waiver in waivers:
        by_key.setdefault(waiver.key, []).append(waiver)
    matched: set[tuple] = set()
    for diagnostic in diagnostics:
        key = (
            diagnostic.rule,
            diagnostic.path.replace("\\", "/"),
            diagnostic.symbol,
        )
        if key in by_key:
            matched.add(key)
            result.waived.append(diagnostic)
        else:
            result.new.append(diagnostic)
    for key in sorted(by_key):
        if key not in matched:
            result.stale.extend(by_key[key])
    return result


# ----------------------------------------------------------------------
# Renderers
# ----------------------------------------------------------------------
def render_json(
    diagnostics: Iterable, program: Optional[Program] = None
) -> str:
    """Machine-readable report (stable key order, trailing newline)."""
    findings = []
    by_rule: dict[str, int] = {}
    for diagnostic in diagnostics:
        findings.append(
            {
                "path": diagnostic.path,
                "line": diagnostic.line,
                "col": diagnostic.col,
                "rule": diagnostic.rule,
                "message": diagnostic.message,
                "symbol": diagnostic.symbol,
            }
        )
        by_rule[diagnostic.rule] = by_rule.get(diagnostic.rule, 0) + 1
    payload = {
        "version": 1,
        "findings": findings,
        "summary": {
            "total": len(findings),
            "by_rule": dict(sorted(by_rule.items())),
        },
    }
    if program is not None:
        payload["resolution"] = {
            "call_sites": program.total_calls,
            "unresolved": program.unresolved_calls,
            "rate": round(program.resolution_rate(), 4),
        }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def render_sarif(diagnostics: Iterable) -> str:
    """SARIF 2.1.0 report (what the CI deep-lint job uploads)."""
    diagnostics = list(diagnostics)
    rule_ids = sorted({d.rule for d in diagnostics} | set(DEEP_RULES))
    rules = [
        {
            "id": rule_id,
            "shortDescription": {
                "text": DEEP_RULES.get(rule_id, rule_id)
            },
        }
        for rule_id in rule_ids
    ]
    results = [
        {
            "ruleId": d.rule,
            "level": "error",
            "message": {"text": d.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": d.path.replace("\\", "/")
                        },
                        "region": {
                            "startLine": d.line,
                            "startColumn": d.col + 1,
                        },
                    }
                }
            ],
        }
        for d in diagnostics
    ]
    payload = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/"
            "master/Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "docs/LINT.md",
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2) + "\n"
