"""Command-line interface.

Subcommands::

    check FILE                          Lie-algebra axioms of a file
    props FILE                          center, series, solvability flags
    der FILE [--complete]               derivation algebra dimension
    symplectic FILE [--exact-only] [--witness] [--json]
    catalog list
    catalog show NAME [--set k=v]
    catalog verify [--dim D] [--set k=v] [--json]
    repro-props [--json]

Exit codes are the machine contract: 0 success (or green report), 1 a
computed-vs-expected mismatch in a verification run, 2 invalid input.
Invalid input includes an algebra above ``liesymp.liealg.MAX_DIM``, from a
file or a ``--set n=`` family parameter, which is rejected before it is built.
Errors are reported as one ``error:`` line on stderr, never a traceback:
every input error is a ``ValueError`` (``ParseError`` is one) raised to
:func:`main`, which maps it to exit code 2.
Exit code 2 also covers a witness search that exhausts its integer box
(``WitnessSearchExhausted``): the Pfaffian is nonzero, so a witness exists,
and the message says to raise ``LIESYMP_WITNESS_BOUND`` to find it, and a
stdout closed before the output is written (``liesymp ... | head -1``),
which ends quietly: stdout is pointed at the null device, so the
interpreter's last flush cannot fail again.
JSON output is deterministic (sorted keys, no timestamps) and follows the
schemas exported as SYMPLECTIC_REPORT_SCHEMA / CATALOG_REPORT_SCHEMA /
PROPS_REPORT_SCHEMA.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import catalog as cat
from .analysis import Analysis
from .fileformat import AlgebraFile, build, parse, print_file
from .regression import (
    DOCUMENTED,
    MATCH,
    MISMATCH,
    reproduce_propositions,
    run_regression,
)
from .symplectic import SymplecticVerdict, TwoForm, WitnessSearchExhausted

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_INPUT = 2


SYMPLECTIC_REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["algebra", "verdicts", "diagnostics"],
    "properties": {
        "algebra": {"type": "string"},
        "verdicts": {
            "type": "object",
            "additionalProperties": False,
            "required": ["complete", "maximal_rank", "symplectic", "exact"],
            "properties": {
                "complete": {"type": ["boolean", "null"]},
                "maximal_rank": {"type": ["boolean", "null"]},
                "symplectic": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["exists", "pfaffian", "witness", "conditions"],
                    "properties": {
                        "exists": {"enum": ["yes", "no", "odd"]},
                        "pfaffian": {"type": "string"},
                        "witness": {
                            "oneOf": [
                                {"type": "null"},
                                {
                                    "type": "object",
                                    "additionalProperties": False,
                                    "required": ["dim", "matrix"],
                                    "properties": {
                                        "dim": {"type": "integer"},
                                        "matrix": {
                                            "type": "array",
                                            "items": {
                                                "type": "array",
                                                "items": {"type": "string"},
                                            },
                                        },
                                    },
                                },
                            ]
                        },
                        "conditions": {
                            "type": "array",
                            "items": {
                                "type": "object",
                                "additionalProperties": False,
                                "required": ["label", "divides", "documented_typo"],
                                "properties": {
                                    "label": {"type": "string"},
                                    "divides": {"enum": ["pf", "pf^2", "no"]},
                                    "documented_typo": {"type": ["string", "null"]},
                                },
                            },
                        },
                    },
                },
                "exact": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["exists", "witness"],
                    "properties": {
                        "exists": {"enum": ["yes", "no", "odd"]},
                        "witness": {
                            "oneOf": [
                                {"type": "null"},
                                {
                                    "type": "array",
                                    "items": {"type": "string"},
                                },
                            ]
                        },
                    },
                },
            },
        },
        "diagnostics": {"type": "array", "items": {"type": "string"}},
    },
}

CATALOG_REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["green", "entries", "summary"],
    "properties": {
        "green": {"type": "boolean"},
        "summary": {
            "type": "object",
            "additionalProperties": False,
            "required": ["entries", "match", "documented-mismatch", "mismatch"],
            "properties": {
                "entries": {"type": "integer"},
                "match": {"type": "integer"},
                "documented-mismatch": {"type": "integer"},
                "mismatch": {"type": "integer"},
            },
        },
        "entries": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": [
                    "name",
                    "params",
                    "dim",
                    "green",
                    "symplectic",
                    "exact",
                    "pfaffian",
                    "comparisons",
                    "conditions",
                ],
                "properties": {
                    "name": {"type": "string"},
                    "params": {"type": "object"},
                    "dim": {"type": "integer"},
                    "green": {"type": "boolean"},
                    "symplectic": {"enum": ["yes", "never", "odd"]},
                    "exact": {"enum": ["yes", "no", "odd"]},
                    "pfaffian": {"type": "string"},
                    "comparisons": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["field", "computed", "expected", "status", "typo"],
                            "properties": {
                                "field": {"type": "string"},
                                "computed": {"type": "string"},
                                "expected": {"type": "string"},
                                "status": {"enum": [MATCH, DOCUMENTED, MISMATCH]},
                                "typo": {"type": ["string", "null"]},
                            },
                        },
                    },
                    "conditions": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "additionalProperties": False,
                            "required": ["label", "divides", "status", "typo"],
                            "properties": {
                                "label": {"type": "string"},
                                "divides": {"enum": ["pf", "pf^2", "no"]},
                                "status": {"enum": [MATCH, DOCUMENTED, MISMATCH]},
                                "typo": {"type": ["string", "null"]},
                            },
                        },
                    },
                },
            },
        },
    },
}

PROPS_REPORT_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["green", "items"],
    "properties": {
        "green": {"type": "boolean"},
        "items": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["label", "ok", "detail"],
                "properties": {
                    "label": {"type": "string"},
                    "ok": {"type": "boolean"},
                    "detail": {"type": "string"},
                },
            },
        },
    },
}


def _emit(data: dict) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


def _witness_json(w: TwoForm | None):
    if w is None:
        return None
    return {
        "dim": w.dim,
        "matrix": [[str(x) for x in row] for row in w.entries],
    }


def _one_form_json(alpha):
    if alpha is None:
        return None
    return [str(x) for x in alpha]


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _cmd_check(args) -> int:
    parsed = parse(_read(args.file))
    print(f"algebra {parsed.name}: {len(parsed.basis)} basis labels, "
          f"{len(parsed.brackets)} bracket rules"
          + (f", torus of rank {len(parsed.torus_labels)}" if parsed.torus_labels else ""))
    print("antisymmetry: structural (each unordered pair stored once, zero diagonal)")
    analysis = build(parsed)
    failure = analysis.nilradical.jacobi_failure()
    if failure is not None:
        a, b, c = (analysis.nilradical.labels[i] for i in failure)
        raise ValueError(f"jacobi identity fails on ({a}, {b}, {c})")
    print("jacobi identity: holds on all basis triples")
    if analysis.torus is not None:
        print(f"torus action: verified; combined algebra has dimension {analysis.algebra.dim}")
    return EXIT_OK


def _with_analysis(args, fn) -> int:
    """``fn(name, analysis)`` for the file's algebra, once its bracket table
    passes the Jacobi identity."""
    parsed = parse(_read(args.file))
    analysis = build(parsed)
    failure = analysis.nilradical.jacobi_failure()
    if failure is not None:
        raise ValueError(f"the bracket table violates the Jacobi identity at triple {failure}")
    return fn(parsed.name, analysis)


def _cmd_props(args) -> int:
    def run(name: str, analysis: Analysis) -> int:
        g = analysis.algebra
        print(f"algebra {name}: dimension {g.dim}")
        print(f"center dimension: {analysis.completeness.center_dim}")
        lcs = g.lower_central_series()
        ds = g.derived_series()
        print(f"lower central series dims: {[s.dim for s in lcs]}")
        print(f"derived series dims: {[s.dim for s in ds]}")
        print(f"nilpotent: {lcs[-1].is_zero()}")
        print(f"solvable: {ds[-1].is_zero()}")
        return EXIT_OK

    return _with_analysis(args, run)


def _cmd_der(args) -> int:
    def run(name: str, analysis: Analysis) -> int:
        report = analysis.completeness
        print(f"algebra {name}: dim Der = {report.derivation_dim}")
        if args.complete:
            print(f"center dimension: {report.center_dim}")
            print(f"inner derivations (ad image): {report.ad_dim}")
            print(f"complete: {report.complete}")
        return EXIT_OK

    return _with_analysis(args, run)


def _symplectic_payload(name: str, analysis: Analysis, verdict: SymplecticVerdict) -> dict:
    diagnostics = []
    if verdict.degenerate:
        diagnostics.append("dimension 0: vacuously symplectic (degenerate case)")
    return {
        "algebra": name,
        "verdicts": {
            "complete": analysis.completeness.complete,
            "maximal_rank": analysis.maximal_rank,
            "symplectic": {
                "exists": verdict.exists,
                "pfaffian": str(verdict.pfaffian),
                "witness": _witness_json(verdict.witness),
                "conditions": [],
            },
            "exact": {
                "exists": verdict.exact_exists,
                "witness": _one_form_json(verdict.exact_one_form),
            },
        },
        "diagnostics": diagnostics,
    }


def _cmd_symplectic(args) -> int:
    def run(name: str, analysis: Analysis) -> int:
        verdict = analysis.verdict
        if args.json:
            _emit(_symplectic_payload(name, analysis, verdict))
            return EXIT_OK
        g = analysis.algebra
        if not args.exact_only:
            print(f"algebra {name}: dimension {g.dim}")
            print(f"closed 2-forms: dim Z^2 = {verdict.cocycle_dims[0]}, "
                  f"dim B^2 = {verdict.cocycle_dims[1]}, dim H^2 = {verdict.cocycle_dims[2]}")
            print(f"symplectic: exists = {verdict.exists}")
            print(f"pfaffian: {verdict.pfaffian}")
            if args.witness and verdict.witness is not None:
                print("witness (matrix of the form):")
                for row in verdict.witness.entries:
                    print("  [" + ", ".join(str(x) for x in row) + "]")
        print(f"exact (Frobenius): exists = {verdict.exact_exists}")
        if args.witness and verdict.exact_one_form is not None:
            labels = g.labels
            parts = []
            for i, c in enumerate(verdict.exact_one_form):
                if c == 0:
                    continue
                body = f"{labels[i]}^*" if abs(c) == 1 else f"{abs(c)}*{labels[i]}^*"
                if not parts:
                    parts.append(("-" if c < 0 else "") + body)
                else:
                    parts.append(("- " if c < 0 else "+ ") + body)
            print("exact witness one-form: " + (" ".join(parts) if parts else "0"))
        return EXIT_OK

    return _with_analysis(args, run)


def _parse_sets(pairs) -> dict:
    params = {}
    for item in pairs or ():
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            params[key] = int(value) if key == "n" else Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"--set {key}={value}: zero denominator") from None
    return params


def _entry_to_file(entry: cat.CatalogEntry) -> AlgebraFile:
    nil = entry.nilradical
    rules = []
    for (i, j), comps in sorted(nil.table.items()):
        terms = tuple((c, nil.labels[k]) for k, c in sorted(comps.items()))
        rules.append((nil.labels[i], nil.labels[j], terms))
    torus_rules = []
    for label, gen in zip(entry.torus.labels, entry.torus.generators):
        for j in range(nil.dim):
            terms = tuple(
                (gen[k, j], nil.labels[k]) for k in range(nil.dim) if gen[k, j] != 0
            )
            if terms:
                torus_rules.append((label, nil.labels[j], terms))
    return AlgebraFile(
        entry.name, nil.labels, tuple(rules), entry.torus.labels, tuple(torus_rules)
    )


def _cmd_catalog(args) -> int:
    if args.catalog_cmd == "list":
        for name in cat.entry_names():
            entry = cat.build_entry(name)
            note = ""
            if entry.params:
                note = "  (parametric, defaults " + ", ".join(
                    f"{k}={v}" for k, v in entry.params.items()
                ) + ")"
            print(f"{name}: nilradical dim {entry.nilradical.dim}, "
                  f"total dim {entry.total_dim}, expected symplectic: "
                  f"{entry.expected.symplectic}{note}")
        return EXIT_OK

    if args.catalog_cmd == "show":
        entry = cat.build_entry(args.name, **_parse_sets(args.set))
        print(print_file(_entry_to_file(entry)), end="")
        print(f"# expected symplectic: {entry.expected.symplectic}")
        print(f"# expected maximal rank: {entry.expected.maximal_rank}")
        for cond in entry.expected.conditions:
            print(f"# condition: {cond.label}")
        for ident in entry.corrections:
            print(f"# transcription correction applied: {ident} (see TYPOS.md)")
        return EXIT_OK

    # verify
    params = _parse_sets(args.set)
    selection = list(cat.DEFAULT_SELECTION)
    if args.dim is not None:
        # the table section for one nilradical dimension (families are
        # selected through their own parameters, not by this filter)
        selection = [
            (name, ps) for name, ps in selection if name.startswith(f"n{args.dim}_")
        ]
    if params:
        selection = [
            (name, {**ps, **{k: v for k, v in params.items() if k in cat.entry_parameters(name)}})
            for name, ps in selection
        ]
    report = run_regression(selection)
    if args.json:
        payload = {
            "green": report.green,
            "summary": report.counts,
            "entries": [
                {
                    "name": e.name,
                    "params": {k: str(v) for k, v in e.params.items()},
                    "dim": e.dim,
                    "green": e.green,
                    "symplectic": e.symplectic,
                    "exact": e.exact,
                    "pfaffian": str(e.pfaffian),
                    "comparisons": [
                        {
                            "field": c.fieldname,
                            "computed": c.computed,
                            "expected": c.expected,
                            "status": c.status,
                            "typo": c.typo,
                        }
                        for c in e.comparisons
                    ],
                    "conditions": [
                        {
                            "label": c.label,
                            "divides": c.divides,
                            "status": c.status,
                            "typo": c.typo,
                        }
                        for c in e.conditions
                    ],
                }
                for e in report.entries
            ],
        }
        _emit(payload)
    else:
        for e in report.entries:
            tag = e.name + ("".join(f" {k}={v}" for k, v in e.params.items()))
            flags = []
            for c in list(e.comparisons) + list(e.conditions):
                if c.status == DOCUMENTED:
                    flags.append(f"documented typo {c.typo}")
                elif c.status == MISMATCH:
                    flags.append(f"MISMATCH {c}")
            status = "ok" if e.green else "MISMATCH"
            extra = ("; " + "; ".join(flags)) if flags else ""
            print(f"{tag}: dim {e.dim}, symplectic {e.symplectic}, exact {e.exact} "
                  f"[{status}]{extra}")
        counts = report.counts
        print(f"summary: {counts['entries']} entries, {counts[MATCH]} comparisons ok, "
              f"{counts[DOCUMENTED]} documented mismatches, {counts[MISMATCH]} unexplained")
        print("report: " + ("green" if report.green else "RED"))
    return EXIT_OK if report.green else EXIT_MISMATCH


def _cmd_repro(args) -> int:
    report = reproduce_propositions()
    if args.json:
        _emit(
            {
                "green": report.green,
                "items": [
                    {"label": item.label, "ok": item.ok, "detail": item.detail}
                    for item in report.items
                ],
            }
        )
    else:
        for item in report.items:
            mark = "ok " if item.ok else "FAIL"
            detail = f"  ({item.detail})" if item.detail else ""
            print(f"[{mark}] {item.label}{detail}")
        print("reproduction: " + ("green" if report.green else "RED"))
    return EXIT_OK if report.green else EXIT_MISMATCH


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="liesymp",
        description="Exact decisions about symplectic structures on solvable Lie algebras.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="validate a Lie-algebra file (axioms)")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("props", help="center, series, solvability of a file's algebra")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_props)

    p = sub.add_parser("der", help="derivation algebra dimension")
    p.add_argument("file")
    p.add_argument("--complete", action="store_true", help="also report completeness")
    p.set_defaults(fn=_cmd_der)

    p = sub.add_parser("symplectic", help="decide symplectic / exact existence")
    p.add_argument("file")
    p.add_argument("--exact-only", action="store_true",
                   help="print only the exact (Frobenius) part")
    p.add_argument("--witness", action="store_true", help="print witnesses")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(fn=_cmd_symplectic)

    p = sub.add_parser("catalog", help="work with the built-in catalog")
    csub = p.add_subparsers(dest="catalog_cmd", required=True)
    c = csub.add_parser("list", help="list catalog entries")
    c.set_defaults(fn=_cmd_catalog)
    c = csub.add_parser("show", help="print an entry in the file format")
    c.add_argument("name")
    c.add_argument("--set", action="append", metavar="K=V",
                   help="family parameter, e.g. a=1 or n=5")
    c.set_defaults(fn=_cmd_catalog)
    c = csub.add_parser("verify", help="recompute all verdicts and compare")
    c.add_argument("--dim", type=int, default=None,
                   help="restrict to entries whose nilradical has this dimension")
    c.add_argument("--set", action="append", metavar="K=V",
                   help="override family parameters where applicable")
    c.add_argument("--json", action="store_true")
    c.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("repro-props", help="re-derive the three family statements")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except (ValueError, WitnessSearchExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
