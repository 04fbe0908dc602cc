"""Batch command-line front end.

Every run is one pipeline: parse the flags, resolve every option of the
subcommand, run its handler on the resolved values, render the table it
returns as csv, json or pretty text, and write that to stdout or
--output.  Each flag is declared once, with its default.  Resolving takes
each option from the command line, else from a plain key=value --config
file, else its default (environment variables are never read), reads its
text the same way whatever the source, and checks it, so that a bad
option fails before anything is computed.  A deck group is named by
--group LITERAL or by --level L with --genus G (H1 of the genus-G surface
with Z/L coefficients, of order L^(2G)); --symbolic leaves its order m
unbound.  Output is byte-identical for identical (config, seed).
--workers is checked (it must be >= 1) but has no effect: every command
runs in order on one thread.  Exit codes: 0 success, 2 invalid config,
3 cap exceeded, 4 oracle mismatch, 5 internal error (a bug, not bad
input).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import shutil
import sys
import tempfile

from .abelian_group import SymbolicOrder, parse_group_literal
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
from .polynomial import at_order, deck_order
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
from .symmetry import counted_character, decompose

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

MAX_DIMS_DEGREE = 10**5
"""The largest ``dims --max-degree``, refused before any row is built.
Rows cost time and memory linearly.  In-process on a 2-vCPU Xeon with
CPython 3.11, ``dims --variant level-full --r 2 --group Z2`` took 0.9 s
and a 95 MB peak at 10^5, and 8.8 s and 821 MB at 10^6; under a 1 GB
address-space limit, 10^8 exited 5 with a MemoryError."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidParameterError(message)


def _load_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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
    except (OSError, UnicodeDecodeError) as exc:
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


class Table(_Value):
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
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "metadata", metadata)
        object.__setattr__(self, "note", note)  # one line for stderr
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "payload", payload)


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
                "rows": rows,
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


def _deck_group(args):
    """The deck group named by the flags, None when no flag names one.

    --group LITERAL gives a finite group.  --level with --genus gives a
    bound ``SymbolicOrder``.  --symbolic alone gives an unbound one.  A
    literal next to --symbolic, --level or --genus is refused, and so is
    half of a level/genus pair.  The caller builds its counts first, as
    ``deck_order`` takes |D|, a huge power, only if one depends on m.
    """
    literal = args.group
    symbolic = getattr(args, "symbolic", False)  # strata has no --symbolic
    level, genus = args.level, args.genus
    if literal is not None:
        if symbolic:
            raise InvalidParameterError("--group and --symbolic are mutually exclusive")
        if level is not None or genus is not None:
            raise InvalidParameterError("--group and --level/--genus are mutually exclusive")
        return parse_group_literal(literal)
    if level is None and genus is None:
        return SymbolicOrder() if symbolic else None
    if level is None:
        raise InvalidParameterError("a genus needs a level here: alone it names no deck group")
    return SymbolicOrder(level=level, genus=genus)  # refuses a lone level


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
# Command handlers: each takes the resolved options and returns a Table.
# ---------------------------------------------------------------------------


def cmd_dims(args):
    variant = _variant_from(args.variant)
    group = _deck_group(args)  # an untwisted variant reads a valid group and drops it
    if variant.twisted and group is None:
        raise InvalidParameterError(
            "specify --group <literal>, --level with --genus, or --symbolic"
        )
    degree, max_degree = args.degree, args.max_degree
    if degree is not None and max_degree is not None:
        raise InvalidParameterError("--degree and --max-degree are mutually exclusive")
    if degree is None and max_degree is None:
        raise InvalidParameterError("specify --degree or --max-degree")
    if degree is None and max_degree > MAX_DIMS_DEGREE:
        raise CapExceededError(
            "--max-degree %d exceeds cap %d" % (max_degree, MAX_DIMS_DEGREE)
        )
    degrees = [degree] if degree is not None else list(range(max_degree + 1))
    spec = AlgebraSpec(variant, args.r, SymbolicOrder())
    counts = {n: graded_dimension(spec, n) for n in degrees}  # ints for an untwisted variant
    # an untwisted spec holds the trivial group, so its counts are read at m = 1
    m = deck_order(group if variant.twisted else spec.group, counts.values())

    def row(n):
        return {
            "degree": n,
            "dim_polynomial_in_m": str(counts[n]) if variant.twisted else counts[n],
            "dim_at_concrete_m": at_order(counts[n], m),
            "provenance": "formula",
        }

    return Table(
        ("degree", "dim_polynomial_in_m", "dim_at_concrete_m", "provenance"),
        _pool_map(row, degrees),
        {"variant": variant.value, "r": args.r,
         "group": str(group) if variant.twisted else "-"},
    )


def cmd_twisted(args):
    # a lone genus sets the stable-range flags and leaves m unbound
    level, genus = args.level, args.genus
    table = twisted_cohomology_dims(
        args.r, args.p, mode=args.mode, level=level, genus=genus, max_k=args.max_k,
        closed_surface=args.closed,
    )
    base_rows = table.rows()

    def annotate(row):
        row = dict(row)
        row["provenance"] = "formula" if row["in_stable_range"] else "extrapolated"
        return row

    rows = _pool_map(annotate, base_rows)
    omitted = 0
    if not args.allow_extrapolated:
        kept = [row for row in rows if row["in_stable_range"]]
        omitted = len(rows) - len(kept)
        rows = kept
    meta = {
        "mode": args.mode,
        "r": args.r,
        "p": args.p,
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


def cmd_gap(args):
    r, p, k, level, genus = args.r, args.p, args.k, args.level, args.genus
    lhs, rhs = putman_gap(r, p, k, level, genus)
    differ = lhs != rhs
    if differ:
        verdict = "dims differ; the comparison map is not an isomorphism"
    elif r <= 1:
        verdict = "dims equal; consistent with isomorphism for r = %d" % r
    else:
        verdict = "dims equal"
    row = {
        "r": r,
        "p": p,
        "k": k,
        "level": level,
        "genus": genus,
        "lhs_dim": lhs,
        "rhs_dim": rhs,
        "differ": differ,
        "provenance": "formula",
        "verdict": verdict,
    }
    # the verdict is a row field in json, a header line in pretty and a
    # stderr note in csv
    fmt = args.format
    return Table(
        ("r", "p", "k", "level", "genus", "lhs_dim", "rhs_dim", "differ", "provenance"),
        [row],
        {"verdict": verdict} if fmt == "pretty" else None,
        verdict if fmt == "csv" else None,
    )


def cmd_character(args):
    variant = _variant_from(args.variant, allowed=(Variant.LEVEL_PRIME, Variant.LEVEL_FULL))
    r, degree = args.r, args.degree
    group = parse_group_literal(args.group)
    character = counted_character(AlgebraSpec(variant, r, group), degree)
    multiplicities = [
        (lam, mult)
        for lam, mult in sorted(decompose(character).items(), reverse=True)
        if mult != 0
    ]
    rows = [
        {
            "section": "trace",
            "label": "+".join(map(str, ct)) if ct else "-",
            "value": val,
            "provenance": "formula",
        }
        for ct, val in character.items()
    ]
    rows.extend(
        {
            "section": "multiplicity",
            "label": "+".join(map(str, lam)),
            "value": mult,
            "provenance": "formula",
        }
        for lam, mult in multiplicities
    )
    payload = {
        "r": r,
        "degree": degree,
        "group": str(group),
        "values": [
            {"cycle_type": list(ct), "trace": val} for ct, val in character.items()
        ],
        "decomposition": [
            {"partition": list(lam), "multiplicity": mult} for lam, mult in multiplicities
        ],
    }
    return Table(
        ("section", "label", "value", "provenance"),
        rows,
        {"variant": variant.value, "r": r, "degree": degree, "group": str(group)},
        payload=payload,
    )


def cmd_commutant(args):
    h, fixture, gen_file = args.h, args.fixture, args.generators_file
    check_commutant_h(h)  # before a fixture of size (2h)^2 is built
    if fixture is not None and gen_file is not None:
        raise InvalidParameterError("--fixture and --generators-file are mutually exclusive")
    if fixture is not None:
        action = fixture_action(fixture, h)
        source = fixture
    elif gen_file is not None:
        try:
            with open(gen_file, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, RecursionError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidParameterError(
                "cannot read generators file %s: %s" % (gen_file, exc)
            )
        if not isinstance(data, list):
            raise InvalidParameterError("generators file must hold a list of matrices")
        action = AbelianSymplecticAction(h, data)
        source = gen_file
    else:
        action = fixture_action("trivial", h)
        source = "trivial"
    basis = commutant_sp(action)
    payload = {"dimension": len(basis)}
    if args.include_basis:
        payload["basis"] = [format_matrix(B) for B in basis]
    row = {"h": h, "generators": source, "dimension": len(basis), "provenance": "formula"}
    return Table(
        ("h", "generators", "dimension", "provenance"),
        [row],
        {"sp_dimension": sp_dimension(h)},
        payload=payload,
    )


# a comma outside parentheses, so that H1(g=1,l=2) stays one literal
_LIST_SEPARATOR = re.compile(r",(?![^()]*\))")


def _read_list(args, flag, parse, noun):
    """The comma-separated list of flag, each item read by parse; blank
    items are skipped, and a list that names nothing is refused."""
    text = getattr(args, flag)
    items = [parse(tok.strip()) for tok in _LIST_SEPARATOR.split(text) if tok.strip()]
    if not items:
        raise InvalidParameterError("--%s names no %s: %r" % (flag, noun, text))
    return items


def cmd_oracle_check(args):
    groups = _read_list(args, "groups", parse_group_literal, "group")
    variants = _read_list(args, "variants", _variant_from, "variant")

    # refuse an oversized grid before computing any of it, checking each
    # cell as it is listed so that a huge grid is never listed whole
    cells = []
    for variant in variants:
        variant_groups = groups if variant.twisted else groups[:1]
        for group in variant_groups:
            for r in range(args.max_r + 1):
                spec = AlgebraSpec(variant, r, group)
                for degree in range(args.max_degree + 1):
                    check_oracle_cap(spec, degree)
                    cells.append((spec, degree))

    def check(cell):
        spec, degree = cell
        variant, r = spec.variant, spec.r
        closed = graded_dimension(spec, degree)
        orc = oracle_graded_dimension(spec, degree)
        return {
            "variant": variant.value,
            "r": r,
            "group": str(spec.group) if variant.twisted else "-",
            "degree": degree,
            "closed_form": closed,
            "oracle": orc,
            "match": closed == orc,
            "provenance": "oracle",
        }

    rows = _pool_map(check, cells)
    mismatches = sum(1 for row in rows if not row["match"])
    return Table(
        ("variant", "r", "group", "degree", "closed_form", "oracle", "match", "provenance"),
        rows,
        {"cells": len(rows), "mismatches": mismatches},
        "error: oracle-mismatch: %d of %d cells disagree" % (mismatches, len(rows))
        if mismatches
        else None,
        EXIT_ORACLE_MISMATCH if mismatches else EXIT_OK,
    )


def cmd_strata(args):
    r = args.r
    if r < 0:
        raise InvalidParameterError("r must be >= 0")
    group = _deck_group(args)
    polys = [stratum_census(r, codim) for codim in range(r + 1)]
    m = deck_order(group, polys)  # below r = 2 every count is constant in m

    def row(codim):
        return {
            "codim": codim,
            "count_polynomial_in_m": str(polys[codim]),
            "count_at_concrete_m": at_order(polys[codim], m),
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

_REQUIRED = object()  # the default of a flag that must be given

# how a flag's text is read, from the command line and from --config
# alike; a flag in none of these is plain text
_INTEGERS = frozenset((
    "r", "p", "k", "h", "level", "genus", "degree", "max_degree", "max_k", "max_r",
    "seed", "workers",
))
_SWITCHES = frozenset(("symbolic", "closed", "include_basis", "allow_extrapolated"))
_CHOICES = {"mode": ("level", "full-mcg"), "format": FORMATS}
_MINIMUMS = {"k": 0, "max_degree": 0, "max_r": 0, "workers": 1}

_COMMON_FLAGS = {
    "config": None, "format": "pretty", "seed": 0, "workers": 1, "output": None,
}
# subcommand -> (description, {flag: default}); each also takes _COMMON_FLAGS
_SUBCOMMANDS = {
    "dims": (
        "graded dimensions of an algebra variant",
        {"variant": _REQUIRED, "r": _REQUIRED, "group": None, "symbolic": False,
         "level": None, "genus": None, "degree": None, "max_degree": None},
    ),
    "twisted": (
        "twisted-coefficient dimension tables",
        {"r": _REQUIRED, "p": 0, "mode": "level", "level": None, "genus": None,
         "max_k": _REQUIRED, "closed": False, "allow_extrapolated": False},
    ),
    "gap": (
        "stability comparison at one degree",
        {"r": _REQUIRED, "p": 0, "k": _REQUIRED, "level": _REQUIRED, "genus": _REQUIRED},
    ),
    "character": (
        "permutation character and decomposition",
        {"variant": "level-prime", "r": _REQUIRED, "degree": _REQUIRED, "group": _REQUIRED},
    ),
    "commutant": (
        "symplectic commutant dimension",
        {"h": _REQUIRED, "fixture": None, "generators_file": None, "include_basis": False},
    ),
    "oracle-check": (
        "closed form vs relation-graph oracle",
        {"max_r": 3, "max_degree": 8, "groups": "Z1,Z2,Z3",
         "variants": ",".join(v.value for v in Variant)},
    ),
    "strata": (
        "stratification census by codimension",
        {"r": _REQUIRED, "group": None, "level": None, "genus": None},
    ),
}


def _option_value(flag, text):
    """The value of flag given as text, wherever the text came from."""
    name = "--" + flag.replace("_", "-")
    if flag in _SWITCHES:
        word = text.strip().lower()
        if word in ("1", "true", "yes", "on"):
            return True
        if word in ("0", "false", "no", "off"):
            return False
        raise InvalidParameterError("option %s expects a boolean, got %r" % (name, text))
    if flag in _CHOICES:
        if text not in _CHOICES[flag]:
            raise InvalidParameterError("unknown %s %r" % (flag, text))
        return text
    if flag not in _INTEGERS:
        return text
    try:
        value = int(text)
    except ValueError:
        raise InvalidParameterError("option %s expects an integer, got %r" % (name, text))
    minimum = _MINIMUMS.get(flag)
    if minimum is not None and value < minimum:
        raise InvalidParameterError("option %s must be >= %d, got %d" % (name, minimum, value))
    return value


def _resolve(args):
    """Set every flag of the subcommand in args to its value: the command
    line's, else the --config file's, else the default.  A config key that
    names no flag of the subcommand is ignored."""
    file_values = _load_config_file(args.config) if args.config else {}
    for flag, default in {**_SUBCOMMANDS[args.command][1], **_COMMON_FLAGS}.items():
        text = getattr(args, flag)
        if text is None:
            text = file_values.get(flag)
        if text is not None:
            setattr(args, flag, _option_value(flag, text))
        elif default is _REQUIRED:
            raise InvalidParameterError("missing required option --%s" % flag.replace("_", "-"))
        else:
            setattr(args, flag, default)


def build_parser():
    # a flag has one spelling, on the command line as in --config
    parser = _Parser(prog="prymalg", description=__doc__, allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (description, flags) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, description=description, allow_abbrev=False)
        for flag in {**flags, **_COMMON_FLAGS}:
            # every value stays text until _resolve reads it
            switch = {"action": "store_const", "const": "true"} if flag in _SWITCHES else {}
            sub.add_argument("--" + flag.replace("_", "-"), dest=flag, default=None, **switch)
    return parser


def main(argv=None):
    with _exact_integer_text():
        return _run(sys.argv[1:] if argv is None else argv)


def _run(argv):
    parser = build_parser()
    # an error argparse raises is tagged with the subcommand argv opens with
    command = argv[0] if argv and argv[0] in _COMMANDS else "prymalg"
    try:
        args = parser.parse_args(argv)
        command = args.command
        _resolve(args)  # every option is read and checked before any computing
        table = _COMMANDS[command](args)
        text = _render(args.format, command, args.seed, table)
        if args.output:
            _write_output(args.output, text)
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
