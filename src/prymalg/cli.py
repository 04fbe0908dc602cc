"""Batch command-line front end.

Every run is one pipeline: parse the flags, merge them with a plain
key=value config file (flags win; environment variables are never read),
run the subcommand's handler, render the table it returns as csv, json
or pretty text, and write that to stdout or --output.  Each subcommand
declares its flags once.  A deck group is named by --group LITERAL or by
--level L with --genus G (H1 of the genus-G surface with Z/L
coefficients, of order L^(2G)); --symbolic leaves its order m unbound.
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
    _Value,
)
from .polynomial import IntPoly, at_order
from .rigidity import (
    AbelianSymplecticAction,
    check_commutant_h,
    commutant_sp,
    fixture_action,
    format_matrix,
    sp_dimension,
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

FORMATS = ("csv", "json", "pretty")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidParameterError(message)


class RunConfig:
    """Merged view of CLI flags and a key=value config file; flags win.

    Only the subcommand's own flags are read: a config key that names no
    flag of it is ignored.
    """

    def __init__(self, namespace, file_values):
        self._flags = vars(namespace)
        self._file = file_values

    def get(self, key, default=None):
        if key not in self._flags:
            return default
        value = self._flags[key]
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
            raise InvalidParameterError(
                "option --%s expects an integer, got %r" % (key.replace("_", "-"), value)
            )
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
        raise InvalidParameterError(
            "option --%s expects a boolean, got %r" % (key.replace("_", "-"), value)
        )

    @property
    def fmt(self):
        fmt = self.get_str("format", "pretty")
        if fmt not in FORMATS:
            raise InvalidParameterError("unknown format %r" % (fmt,))
        return fmt


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


class Table(_Value, frozen=False):
    """What a handler returns: the table to render and how the run ends.

    ``payload``, when set, is the command's own JSON document and replaces
    the standard one under --format json.
    """

    __slots__ = ("columns", "rows", "metadata", "note", "code", "payload")

    def __init__(
        self,
        columns: tuple,
        rows: list,
        metadata: dict | None = None,
        note: str | None = None,
        code: int = EXIT_OK,
        payload: dict | None = None,
    ):
        self.columns = columns
        self.rows = rows
        self.metadata = metadata
        self.note = note  # one line for stderr
        self.code = code
        self.payload = payload


def _cell_text(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _render(fmt, command, seed, table):
    columns, rows, metadata = table.columns, table.rows, table.metadata or {}
    if fmt == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_cell_text(row[c]) for c in columns))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        payload = table.payload
        if payload is None:
            payload = {
                "command": command,
                "seed": seed,
                "metadata": metadata,
                "rows": [
                    {c: (str(v) if isinstance(v, IntPoly) else v) for c, v in row.items()}
                    for row in rows
                ],
            }
        return json.dumps(payload, indent=2) + "\n"
    lines = ["# command = %s" % command, "# seed = %d" % seed]
    for key, value in metadata.items():
        lines.append("# %s = %s" % (key, value))
    texts = [[_cell_text(row[c]) for c in columns] for row in rows]
    widths = [
        max([len(c)] + [len(t[i]) for t in texts]) for i, c in enumerate(columns)
    ]
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip())
    for t in texts:
        lines.append("  ".join(x.ljust(w) for x, w in zip(t, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _deck_group(cfg, lone_genus=False):
    """(group, m): the deck group named by the flags and its order
    m = ``concrete_order(group)``, None when unbound.

    --group LITERAL gives a finite group.  --level with --genus gives a
    bound ``SymbolicOrder``.  --symbolic alone gives an unbound one, and no
    flag at all gives (None, None).  A literal next to --symbolic, --level
    or --genus is refused, and so is half of a level/genus pair, except a
    lone genus where the caller uses it (``lone_genus``).
    """
    literal = cfg.get_str("group")
    symbolic = cfg.get_bool("symbolic")
    level = cfg.get_int("level")
    genus = cfg.get_int("genus")
    if literal is not None:
        if symbolic:
            raise InvalidParameterError("--group and --symbolic are mutually exclusive")
        if level is not None or genus is not None:
            raise InvalidParameterError("--group and --level/--genus are mutually exclusive")
        group = parse_group_literal(literal)
    elif level is None and genus is None:
        group = SymbolicOrder() if symbolic else None
    elif level is None and not lone_genus:
        raise InvalidParameterError("a genus needs a level here: alone it names no deck group")
    else:
        group = SymbolicOrder(level=level, genus=genus)  # refuses a lone level
    return group, concrete_order(group)


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
# Command handlers: each takes the RunConfig and returns a Table.
# ---------------------------------------------------------------------------


def cmd_dims(cfg):
    variant = _variant_from(cfg.get_str("variant", required=True))
    r = cfg.get_int("r", required=True)
    group, m = _deck_group(cfg)
    if not variant.twisted:
        group, m = None, 1  # no deck weights: a valid group is read and dropped
    elif group is None:
        raise InvalidParameterError(
            "specify --group <literal>, --level with --genus, or --symbolic"
        )
    degree = cfg.get_int("degree")
    max_degree = cfg.get_int("max_degree", minimum=0)
    if degree is None and max_degree is None:
        raise InvalidParameterError("specify --degree or --max-degree")
    degrees = [degree] if degree is not None else list(range(max_degree + 1))
    spec = AlgebraSpec(variant, r, SymbolicOrder())

    def row(n):
        value = graded_dimension(spec, n)
        return {
            "degree": n,
            "dim_polynomial_in_m": value,
            "dim_at_concrete_m": None if m is None else at_order(value, m),
            "provenance": "formula",
        }

    return Table(
        ("degree", "dim_polynomial_in_m", "dim_at_concrete_m", "provenance"),
        _pool_map(row, degrees),
        {"variant": variant.value, "r": r, "group": str(group) if group else "-"},
    )


def cmd_twisted(cfg):
    r = cfg.get_int("r", required=True)
    p = cfg.get_int("p", 0)
    mode = cfg.get_str("mode", "level")
    # a lone genus sets the stable-range flags and leaves m unbound
    deck, _ = _deck_group(cfg, lone_genus=True)
    level, genus = (deck.level, deck.genus) if deck else (None, None)
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
    columns = (
        "k",
        "cohomological_degree",
        "dim_polynomial_in_m",
        "dim_at_concrete_m",
        "in_stable_range",
        "provenance",
    )
    note = None
    if omitted:
        note = (
            "note: %d rows outside the proven stable range were not printed; "
            "pass --allow-extrapolated to include them" % omitted
        )
    return Table(columns, rows, meta, note)


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
        "verdict": report.verdict,
    }
    # the verdict is a row field in json, a header line in pretty and a
    # stderr note in csv
    fmt = cfg.fmt
    return Table(
        ("r", "p", "k", "level", "genus", "lhs_dim", "rhs_dim", "differ", "provenance"),
        [row],
        {"verdict": report.verdict} if fmt == "pretty" else None,
        report.verdict if fmt == "csv" else None,
    )


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
    return Table(
        ("section", "label", "value", "provenance"),
        rows,
        {"variant": variant.value, "r": r, "degree": degree, "group": str(group)},
        payload=character_report_json(spec, degree, character, decomposition),
    )


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
        action = AbelianSymplecticAction(h, data)
        source = gen_file
    else:
        action = fixture_action("trivial", h)
        source = "trivial"
    report = commutant_sp(action)
    payload = {"dimension": report.dimension}
    if cfg.get_bool("include_basis"):
        payload["basis"] = [format_matrix(B) for B in report.basis]
    row = {"h": h, "generators": source, "dimension": report.dimension, "provenance": "formula"}
    return Table(
        ("h", "generators", "dimension", "provenance"),
        [row],
        {"sp_dimension": sp_dimension(h)},
        payload=payload,
    )


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

    # refuse an oversized grid before computing any of it, checking each
    # cell as it is listed so that a huge grid is never listed whole
    cells = []
    for variant in variants:
        variant_groups = groups if variant.twisted else groups[:1]
        for group in variant_groups:
            for r in range(max_r + 1):
                spec = AlgebraSpec(variant, r, group if variant.twisted else None)
                for degree in range(max_degree + 1):
                    check_oracle_cap(spec, degree)
                    cells.append((spec, group, degree))

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
    table = Table(
        ("variant", "r", "group", "degree", "closed_form", "oracle", "match", "provenance"),
        rows,
        {"cells": len(rows), "mismatches": mismatches},
    )
    if mismatches:
        table.note = "error: oracle-mismatch: %d of %d cells disagree" % (mismatches, len(rows))
        table.code = EXIT_ORACLE_MISMATCH
    return table


def cmd_strata(cfg):
    r = cfg.get_int("r", required=True)
    if r < 0:
        raise InvalidParameterError("r must be >= 0")
    group, m = _deck_group(cfg)

    def row(codim):
        poly = stratum_census(r, codim)
        return {
            "codim": codim,
            "count_polynomial_in_m": poly,
            "count_at_concrete_m": None if m is None else at_order(poly, m),
            "provenance": "formula",
        }

    return Table(
        ("codim", "count_polynomial_in_m", "count_at_concrete_m", "provenance"),
        _pool_map(row, range(r + 1)),
        {"r": r, "group": str(group) if group is not None else "-"},
    )


_COMMANDS = {
    "dims": cmd_dims,
    "twisted": cmd_twisted,
    "gap": cmd_gap,
    "character": cmd_character,
    "commutant": cmd_commutant,
    "oracle-check": cmd_oracle_check,
    "strata": cmd_strata,
}

# flag -> its add_argument keywords besides dest and default=None; a flag
# not listed takes a string
_FLAG_KINDS = {
    **dict.fromkeys(
        ("r", "p", "k", "h", "level", "genus", "degree", "max_degree", "max_k", "max_r",
         "seed", "workers"),
        {"type": int},
    ),
    **dict.fromkeys(
        ("symbolic", "closed", "include_basis", "allow_extrapolated"),
        {"action": "store_const", "const": True},
    ),
    "mode": {"choices": ("level", "full-mcg")},
    "format": {"choices": FORMATS},
}
_COMMON_FLAGS = ("config", "format", "seed", "workers", "output", "allow_extrapolated")
# subcommand -> (description, its own flags); each also takes _COMMON_FLAGS
_SUBCOMMANDS = {
    "dims": (
        "graded dimensions of an algebra variant",
        ("variant", "r", "group", "symbolic", "level", "genus", "degree", "max_degree"),
    ),
    "twisted": (
        "twisted-coefficient dimension tables",
        ("r", "p", "mode", "level", "genus", "max_k", "closed"),
    ),
    "gap": ("stability comparison at one degree", ("r", "p", "k", "level", "genus")),
    "character": (
        "permutation character and decomposition", ("variant", "r", "degree", "group")
    ),
    "commutant": (
        "symplectic commutant dimension",
        ("h", "fixture", "generators_file", "include_basis"),
    ),
    "oracle-check": (
        "closed form vs relation-graph oracle", ("max_r", "max_degree", "groups", "variants")
    ),
    "strata": ("stratification census by codimension", ("r", "group", "level", "genus")),
}


def build_parser():
    parser = _Parser(prog="prymalg", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (description, flags) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, description=description)
        for flag in flags + _COMMON_FLAGS:
            sub.add_argument(
                "--" + flag.replace("_", "-"), dest=flag, default=None,
                **_FLAG_KINDS.get(flag, {}),
            )
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
        cfg = RunConfig(args, _load_config_file(args.config) if args.config else {})
        cfg.get_int("workers", 1, minimum=1)
        fmt, seed = cfg.fmt, cfg.get_int("seed", 0)  # checked before any computing
        table = _COMMANDS[command](cfg)
        text = _render(fmt, command, seed, table)
        output = cfg.get_str("output")
        if output:
            _write_output(output, text)
        else:
            sys.stdout.write(text)
        if table.note:
            sys.stderr.write(table.note + "\n")
        return table.code
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
