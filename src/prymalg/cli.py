"""Batch command-line front end.

Subcommands wrap the library operations one-to-one and stream tables as
csv, json, or pretty text.  Configuration comes from plain key=value
files plus flags, flags winning; environment variables are never read.
Output is byte-identical for identical (config, seed).  --workers is
checked (it must be >= 1) but has no effect: every command runs in order
on one thread.  Exit codes: 0 success, 2 invalid config, 3 cap exceeded,
4 oracle mismatch, 5 internal error (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile

from .abelian_group import SymbolicOrder, concrete_order, parse_group_literal
from .algebra import (
    AlgebraSpec,
    Variant,
    check_oracle_cap,
    graded_dimension,
    oracle_graded_dimension,
)
from .errors import (
    CapExceededError,
    InvalidParameterError,
    OracleMismatchError,
)
from .polynomial import IntPoly, at_order
from .rigidity import (
    AbelianSymplecticAction,
    SymplecticSpace,
    as_matrix,
    check_commutant_h,
    commutant_sp,
    fixture_action,
    format_matrix,
)
from .series import (
    putman_gap,
    stratum_census,
    twisted_cohomology_dims,
)
from .symmetry import (
    character_report_json,
    counted_character,
    decompose,
)

EXIT_OK = 0
EXIT_INVALID_CONFIG = 2
EXIT_CAP_EXCEEDED = 3
EXIT_ORACLE_MISMATCH = 4
EXIT_INTERNAL = 5

_ERROR_KINDS = (
    (InvalidParameterError, "invalid-config", EXIT_INVALID_CONFIG),
    (CapExceededError, "cap-exceeded", EXIT_CAP_EXCEEDED),
    (OracleMismatchError, "oracle-mismatch", EXIT_ORACLE_MISMATCH),
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidParameterError(message)


class RunConfig:
    """Merged view of CLI flags and a key=value config file; flags win."""

    def __init__(self, namespace, file_values):
        self._flags = vars(namespace)
        self._file = file_values

    def get(self, key, default=None):
        value = self._flags.get(key)
        if value is not None:
            return value
        if key in self._file:
            return self._file[key]
        return default

    def get_int(self, key, default=None, required=False, minimum=None):
        value = self.get(key, default)
        if value is None:
            if required:
                raise InvalidParameterError("missing required option --%s" % key.replace("_", "-"))
            return None
        try:
            value = int(value)
        except (TypeError, ValueError):
            raise InvalidParameterError("option --%s expects an integer, got %r" % (key, value))
        if minimum is not None and value < minimum:
            raise InvalidParameterError(
                "option --%s must be >= %d, got %d" % (key.replace("_", "-"), minimum, value)
            )
        return value

    def get_str(self, key, default=None, required=False):
        value = self.get(key, default)
        if value is None and required:
            raise InvalidParameterError("missing required option --%s" % key.replace("_", "-"))
        return value

    def get_bool(self, key):
        value = self.get(key, False)
        if isinstance(value, bool):
            return value
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
        raise InvalidParameterError("option --%s expects a boolean, got %r" % (key, value))


def _load_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise InvalidParameterError(
                        "config %s line %d is not key=value" % (path, lineno)
                    )
                key, _, value = stripped.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise InvalidParameterError("cannot read config %s: %s" % (path, exc))
    return values


def _pool_map(fn, items):
    """fn over items, in order; bench/instrument.py wraps this name."""
    return [fn(item) for item in items]


def _write_output(path, payload):
    """Write payload to path whole or not at all.

    A regular file, or a new one, is written as a temporary file beside it
    that then replaces it, so a failed write leaves no partial file; the
    target's directory must therefore be writable.  The new file keeps the
    mode of the one it replaces, or gets the usual 0o666 less the umask.  A
    device or pipe cannot be replaced and is written directly.  Write
    failures surface as invalid-config errors.
    """
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
            return
        target = os.path.realpath(path)
        fd, tmp = tempfile.mkstemp(
            prefix=".%s." % os.path.basename(target),
            suffix=".tmp",
            dir=os.path.dirname(target),
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            if os.path.exists(target):
                shutil.copymode(target, tmp)
            else:
                umask = os.umask(0)
                os.umask(umask)
                os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise InvalidParameterError("cannot write --output %s: %s" % (path, exc.strerror))


@contextlib.contextmanager
def _exact_integer_text():
    """Lift the interpreter's int/str digit limit, restoring it on exit.

    Exact tables hold integers of any size, and CPython refuses to convert
    ints of more than 4300 digits to text by default.
    """
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _cell_text(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render(fmt, command, seed, columns, rows, metadata=None):
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_cell_text(row[c]) for c in columns))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = {
            "command": command,
            "seed": seed,
            "metadata": metadata or {},
            "rows": [
                {c: (str(v) if isinstance(v, IntPoly) else v) for c, v in row.items()}
                for row in rows
            ],
        }
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "pretty":
        lines = ["# command = %s" % command, "# seed = %d" % seed]
        for key, value in (metadata or {}).items():
            lines.append("# %s = %s" % (key, value))
        texts = [[_cell_text(row[c]) for c in columns] for row in rows]
        widths = [
            max([len(c)] + [len(t[i]) for t in texts]) for i, c in enumerate(columns)
        ]
        lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip())
        for t in texts:
            lines.append("  ".join(x.ljust(w) for x, w in zip(t, widths)).rstrip())
        return "\n".join(lines) + "\n"
    raise InvalidParameterError("unknown format %r" % (fmt,))


def _resolve_group(cfg, for_variant=None):
    """Group or symbolic order from --group / --symbolic / --level / --genus."""
    literal = cfg.get_str("group")
    symbolic = cfg.get_bool("symbolic")
    level = cfg.get_int("level")
    genus = cfg.get_int("genus")
    if literal is not None and symbolic:
        raise InvalidParameterError("--group and --symbolic are mutually exclusive")
    if literal is not None:
        return parse_group_literal(literal)
    if symbolic:
        return SymbolicOrder(level=level, genus=genus)
    if level is not None and genus is not None:
        return SymbolicOrder(level=level, genus=genus)
    if for_variant is not None and not for_variant.twisted:
        return None
    raise InvalidParameterError(
        "specify --group <literal>, or --symbolic (optionally with --level/--genus)"
    )


def _variant_from(text, allowed=None):
    try:
        variant = Variant(text)
    except ValueError:
        raise InvalidParameterError(
            "unknown variant %r; choose from %s"
            % (text, ", ".join(v.value for v in Variant))
        )
    if allowed is not None and variant not in allowed:
        raise InvalidParameterError(
            "variant %r not supported here; choose from %s"
            % (text, ", ".join(v.value for v in allowed))
        )
    return variant


# ---------------------------------------------------------------------------
# Command handlers: each returns (payload text, extra stderr note, exit code).
# ---------------------------------------------------------------------------


def cmd_dims(cfg):
    variant = _variant_from(cfg.get_str("variant", required=True))
    r = cfg.get_int("r", required=True)
    group = _resolve_group(cfg, for_variant=variant) if variant.twisted else None
    degree = cfg.get_int("degree")
    max_degree = cfg.get_int("max_degree", minimum=0)
    if degree is None and max_degree is None:
        raise InvalidParameterError("specify --degree or --max-degree")
    degrees = [degree] if degree is not None else list(range(max_degree + 1))

    m = AlgebraSpec(variant, r, group).order_value()
    spec = AlgebraSpec(variant, r, SymbolicOrder())

    def row(n):
        value = graded_dimension(spec, n)
        return {
            "degree": n,
            "dim_polynomial_in_m": value,
            "dim_at_concrete_m": None if m is None else at_order(value, m),
            "provenance": "formula",
        }

    rows = _pool_map(row, degrees)
    meta = {"variant": variant.value, "r": r, "group": str(group) if group else "-"}
    text = _render(
        cfg.get_str("format", "pretty"),
        "dims",
        cfg.get_int("seed", 0),
        ["degree", "dim_polynomial_in_m", "dim_at_concrete_m", "provenance"],
        rows,
        meta,
    )
    return text, None, EXIT_OK


def cmd_twisted(cfg):
    r = cfg.get_int("r", required=True)
    p = cfg.get_int("p", 0)
    mode = cfg.get_str("mode", "level")
    level = cfg.get_int("level")
    genus = cfg.get_int("genus")
    max_k = cfg.get_int("max_k", required=True)
    closed = cfg.get_bool("closed")
    table = twisted_cohomology_dims(
        r, p, mode=mode, level=level, genus=genus, max_k=max_k, closed_surface=closed
    )
    allow = cfg.get_bool("allow_extrapolated")
    base_rows = table.rows()

    def annotate(row):
        row = dict(row)
        row["provenance"] = "formula" if row["in_stable_range"] else "extrapolated"
        return row

    rows = _pool_map(annotate, base_rows)
    omitted = 0
    if not allow:
        kept = [row for row in rows if row["in_stable_range"]]
        omitted = len(rows) - len(kept)
        rows = kept
    meta = {
        "mode": mode,
        "r": r,
        "p": p,
        "level": level if level is not None else "-",
        "genus": genus if genus is not None else "-",
    }
    text = _render(
        cfg.get_str("format", "pretty"),
        "twisted",
        cfg.get_int("seed", 0),
        [
            "k",
            "cohomological_degree",
            "dim_polynomial_in_m",
            "dim_at_concrete_m",
            "in_stable_range",
            "provenance",
        ],
        rows,
        meta,
    )
    note = None
    if omitted:
        note = (
            "note: %d rows outside the proven stable range were not printed; "
            "pass --allow-extrapolated to include them" % omitted
        )
    return text, note, EXIT_OK


def cmd_gap(cfg):
    r = cfg.get_int("r", required=True)
    p = cfg.get_int("p", 0)
    k = cfg.get_int("k", required=True)
    level = cfg.get_int("level", required=True)
    genus = cfg.get_int("genus", required=True)
    report = putman_gap(r, p, k, level, genus)
    row = {
        "r": report.r,
        "p": report.p,
        "k": report.k,
        "level": report.level,
        "genus": report.genus,
        "lhs_dim": report.lhs_dim,
        "rhs_dim": report.rhs_dim,
        "differ": report.differ,
        "provenance": "formula",
    }
    fmt = cfg.get_str("format", "pretty")
    if fmt == "json":
        payload = {
            "command": "gap",
            "seed": cfg.get_int("seed", 0),
            "metadata": {},
            "rows": [dict(row, verdict=report.verdict)],
        }
        return json.dumps(payload, indent=2) + "\n", None, EXIT_OK
    text = _render(
        fmt,
        "gap",
        cfg.get_int("seed", 0),
        ["r", "p", "k", "level", "genus", "lhs_dim", "rhs_dim", "differ", "provenance"],
        [row],
        {"verdict": report.verdict} if fmt == "pretty" else None,
    )
    return text, report.verdict if fmt == "csv" else None, EXIT_OK


def cmd_character(cfg):
    variant = _variant_from(
        cfg.get_str("variant", "level-prime"),
        allowed=(Variant.LEVEL_PRIME, Variant.LEVEL_FULL),
    )
    r = cfg.get_int("r", required=True)
    degree = cfg.get_int("degree", required=True)
    literal = cfg.get_str("group", required=True)
    group = parse_group_literal(literal)
    spec = AlgebraSpec(variant, r, group)
    character = counted_character(spec, degree)
    decomposition = decompose(character)
    fmt = cfg.get_str("format", "pretty")
    if fmt == "json":
        payload = character_report_json(spec, degree, character, decomposition)
        return json.dumps(payload, indent=2) + "\n", None, EXIT_OK
    rows = [
        {
            "section": "trace",
            "label": "+".join(map(str, ct)) if ct else "-",
            "value": val,
            "provenance": "formula",
        }
        for ct, val in character.values
    ]
    rows.extend(
        {
            "section": "multiplicity",
            "label": "+".join(map(str, lam)),
            "value": mult,
            "provenance": "formula",
        }
        for lam, mult in sorted(decomposition.items(), reverse=True)
        if mult != 0
    )
    meta = {"variant": variant.value, "r": r, "degree": degree, "group": str(group)}
    text = _render(
        fmt,
        "character",
        cfg.get_int("seed", 0),
        ["section", "label", "value", "provenance"],
        rows,
        meta,
    )
    return text, None, EXIT_OK


def cmd_commutant(cfg):
    h = cfg.get_int("h", required=True)
    check_commutant_h(h)  # before a fixture of size (2h)^2 is built
    fixture = cfg.get_str("fixture")
    gen_file = cfg.get_str("generators_file")
    if fixture is not None and gen_file is not None:
        raise InvalidParameterError("--fixture and --generators-file are mutually exclusive")
    if fixture is not None:
        action = fixture_action(fixture, h)
        source = fixture
    elif gen_file is not None:
        try:
            with open(gen_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidParameterError("cannot read generators file: %s" % exc)
        if not isinstance(data, list):
            raise InvalidParameterError("generators file must hold a list of matrices")
        action = AbelianSymplecticAction(
            SymplecticSpace(h), tuple(as_matrix(mat) for mat in data)
        )
        source = gen_file
    else:
        action = fixture_action("trivial", h)
        source = "trivial"
    report = commutant_sp(action)
    include_basis = cfg.get_bool("include_basis")
    fmt = cfg.get_str("format", "pretty")
    if fmt == "json":
        payload = {"dimension": report.dimension}
        if include_basis:
            payload["basis"] = [format_matrix(B) for B in report.basis]
        return json.dumps(payload, indent=2) + "\n", None, EXIT_OK
    rows = [
        {
            "h": h,
            "generators": source,
            "dimension": report.dimension,
            "provenance": "formula",
        }
    ]
    text = _render(
        fmt,
        "commutant",
        cfg.get_int("seed", 0),
        ["h", "generators", "dimension", "provenance"],
        rows,
        {"sp_dimension": h * (2 * h + 1)},
    )
    return text, None, EXIT_OK


def cmd_oracle_check(cfg):
    max_r = cfg.get_int("max_r", 3, minimum=0)
    max_degree = cfg.get_int("max_degree", 8, minimum=0)
    groups_text = cfg.get_str("groups", "Z1,Z2,Z3")
    groups = [parse_group_literal(tok) for tok in groups_text.split(",") if tok.strip()]
    if not groups:
        raise InvalidParameterError("--groups names no group: %r" % groups_text)
    variants_text = cfg.get_str("variants")
    if variants_text:
        variants = [_variant_from(tok.strip()) for tok in variants_text.split(",")]
    else:
        variants = list(Variant)

    cells = []
    for variant in variants:
        variant_groups = groups if variant.twisted else groups[:1]
        for group in variant_groups:
            for r in range(max_r + 1):
                for degree in range(max_degree + 1):
                    spec = AlgebraSpec(variant, r, group if variant.twisted else None)
                    cells.append((spec, group, degree))
    # refuse an oversized grid before computing any of it
    for spec, _, degree in cells:
        check_oracle_cap(spec, degree)

    def check(cell):
        spec, group, degree = cell
        variant, r = spec.variant, spec.r
        closed = graded_dimension(spec, degree)
        orc = oracle_graded_dimension(spec, degree)
        return {
            "variant": variant.value,
            "r": r,
            "group": str(group) if variant.twisted else "-",
            "degree": degree,
            "closed_form": closed,
            "oracle": orc,
            "match": closed == orc,
            "provenance": "oracle",
        }

    rows = _pool_map(check, cells)
    mismatches = sum(1 for row in rows if not row["match"])
    meta = {"cells": len(rows), "mismatches": mismatches}
    text = _render(
        cfg.get_str("format", "pretty"),
        "oracle-check",
        cfg.get_int("seed", 0),
        ["variant", "r", "group", "degree", "closed_form", "oracle", "match", "provenance"],
        rows,
        meta,
    )
    if mismatches:
        return (
            text,
            "error: oracle-mismatch: %d of %d cells disagree" % (mismatches, len(rows)),
            EXIT_ORACLE_MISMATCH,
        )
    return text, None, EXIT_OK


def cmd_strata(cfg):
    r = cfg.get_int("r", required=True)
    if r < 0:
        raise InvalidParameterError("r must be >= 0")
    literal = cfg.get_str("group")
    group = parse_group_literal(literal) if literal else None
    level = cfg.get_int("level")
    genus = cfg.get_int("genus")
    if group is None and level is not None and genus is not None:
        group = SymbolicOrder(level=level, genus=genus)
    m = concrete_order(group)

    def row(codim):
        poly = stratum_census(r, codim)
        return {
            "codim": codim,
            "count_polynomial_in_m": poly,
            "count_at_concrete_m": None if m is None else at_order(poly, m),
            "provenance": "formula",
        }

    rows = _pool_map(row, range(r + 1))
    meta = {"r": r, "group": str(group) if group is not None else "-"}
    text = _render(
        cfg.get_str("format", "pretty"),
        "strata",
        cfg.get_int("seed", 0),
        ["codim", "count_polynomial_in_m", "count_at_concrete_m", "provenance"],
        rows,
        meta,
    )
    return text, None, EXIT_OK


_COMMANDS = {
    "dims": cmd_dims,
    "twisted": cmd_twisted,
    "gap": cmd_gap,
    "character": cmd_character,
    "commutant": cmd_commutant,
    "oracle-check": cmd_oracle_check,
    "strata": cmd_strata,
}


def _add_common(sub):
    sub.add_argument("--config", default=None)
    sub.add_argument("--format", default=None, choices=["csv", "json", "pretty"])
    sub.add_argument("--seed", type=int, default=None)
    sub.add_argument("--workers", type=int, default=None)
    sub.add_argument("--output", default=None)
    sub.add_argument(
        "--allow-extrapolated", dest="allow_extrapolated",
        action="store_const", const=True, default=None,
    )


def build_parser():
    parser = _Parser(prog="prymalg", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("dims", description="graded dimensions of an algebra variant")
    sub.add_argument("--variant", default=None)
    sub.add_argument("--r", type=int, default=None)
    sub.add_argument("--group", default=None)
    sub.add_argument("--symbolic", action="store_const", const=True, default=None)
    sub.add_argument("--level", type=int, default=None)
    sub.add_argument("--genus", type=int, default=None)
    sub.add_argument("--degree", type=int, default=None)
    sub.add_argument("--max-degree", dest="max_degree", type=int, default=None)
    _add_common(sub)

    sub = subs.add_parser("twisted", description="twisted-coefficient dimension tables")
    sub.add_argument("--r", type=int, default=None)
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--mode", default=None, choices=["level", "full-mcg"])
    sub.add_argument("--level", type=int, default=None)
    sub.add_argument("--genus", type=int, default=None)
    sub.add_argument("--max-k", dest="max_k", type=int, default=None)
    sub.add_argument("--closed", dest="closed", action="store_const", const=True, default=None)
    _add_common(sub)

    sub = subs.add_parser("gap", description="stability comparison at one degree")
    sub.add_argument("--r", type=int, default=None)
    sub.add_argument("--p", type=int, default=None)
    sub.add_argument("--k", type=int, default=None)
    sub.add_argument("--level", type=int, default=None)
    sub.add_argument("--genus", type=int, default=None)
    _add_common(sub)

    sub = subs.add_parser("character", description="permutation character and decomposition")
    sub.add_argument("--variant", default=None)
    sub.add_argument("--r", type=int, default=None)
    sub.add_argument("--degree", type=int, default=None)
    sub.add_argument("--group", default=None)
    _add_common(sub)

    sub = subs.add_parser("commutant", description="symplectic commutant dimension")
    sub.add_argument("--h", type=int, default=None)
    sub.add_argument("--fixture", default=None)
    sub.add_argument("--generators-file", dest="generators_file", default=None)
    sub.add_argument(
        "--include-basis", dest="include_basis",
        action="store_const", const=True, default=None,
    )
    _add_common(sub)

    sub = subs.add_parser(
        "oracle-check", description="closed form vs relation-graph oracle"
    )
    sub.add_argument("--max-r", dest="max_r", type=int, default=None)
    sub.add_argument("--max-degree", dest="max_degree", type=int, default=None)
    sub.add_argument("--groups", default=None)
    sub.add_argument("--variants", default=None)
    _add_common(sub)

    sub = subs.add_parser("strata", description="stratification census by codimension")
    sub.add_argument("--r", type=int, default=None)
    sub.add_argument("--group", default=None)
    sub.add_argument("--level", type=int, default=None)
    sub.add_argument("--genus", type=int, default=None)
    _add_common(sub)

    return parser


def main(argv=None):
    with _exact_integer_text():
        return _run(argv)


def _run(argv):
    parser = build_parser()
    command = "prymalg"
    try:
        args = parser.parse_args(argv)
        command = args.command
        file_values = {}
        if getattr(args, "config", None):
            file_values = _load_config_file(args.config)
        cfg = RunConfig(args, file_values)
        cfg.get_int("workers", 1, minimum=1)
        handler = _COMMANDS[args.command]
        payload, note, code = handler(cfg)
        output = cfg.get_str("output")
        if output:
            _write_output(output, payload)
        else:
            sys.stdout.write(payload)
        if note:
            sys.stderr.write(note + "\n")
        return code
    except Exception as exc:
        for klass, kind, code in _ERROR_KINDS:
            if isinstance(exc, klass):
                sys.stderr.write("error: %s: [%s] %s\n" % (kind, command, exc))
                return code
        message = " ".join(str(exc).split())
        sys.stderr.write(
            "error: internal: [%s] %s: %s\n" % (command, type(exc).__name__, message)
        )
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
