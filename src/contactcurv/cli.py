"""Command-line front end.

Argument parsing, the manifold file format and output only: the suites
themselves run in :func:`contactcurv.bochner.run_suites`, and the tensor
queries read :func:`contactcurv.contactpair.structure_at`.

Manifold-definition files are JSON documents with the fields ``dim``,
``coords``, ``params`` (optional), ``metric`` (upper-triangle entries keyed
"i,j"), ``alpha1``, ``alpha2``, ``Z1``, ``Z2``, ``type`` = [m, n],
``sample_points`` and optional ``singular_loci`` (documentation only).
Expression strings use the grammar of :mod:`contactcurv.exprlang`.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import re
import sys
import warnings
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from . import bochner as bm
from . import catalog
from . import contactpair as cpm
from . import exprlang as el
from . import riemann as rm
from .contactpair import ContactPairManifold, InvalidStructureError
from .report import Report


class UsageError(Exception):
    pass


# --- manifold files -----------------------------------------------------------

def manifold_to_dict(cp: ContactPairManifold) -> dict:
    d = cp.dim
    metric = {}
    for i in range(d):
        for j in range(i, d):
            entry = cp.metric.comps[i][j]
            if entry != el.ZERO:
                metric[f"{i},{j}"] = el.to_source(entry)
    return {
        "dim": d,
        "coords": list(cp.chart.coords),
        "params": {k: v for k, v in cp.chart.params},
        "metric": metric,
        "alpha1": [el.to_source(e) for e in cp.alpha1.comps],
        "alpha2": [el.to_source(e) for e in cp.alpha2.comps],
        "Z1": [el.to_source(e) for e in cp.z1.comps],
        "Z2": [el.to_source(e) for e in cp.z2.comps],
        "type": list(cp.pair_type),
        "sample_points": [list(p) for p in cp.chart.sample_points],
    }


def _count(value, field: str) -> int:
    """A JSON integer >= 0; bools, floats and strings are rejected."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise UsageError(f"{field} must be a non-negative integer, got {value!r}")
    return value


def _object(value, field: str) -> dict:
    """A JSON object; a list or a number is a malformed file."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} must be a JSON object, got {value!r}")
    return value


def _list(value, field: str) -> list:
    """A JSON list; a string of the right length would be read character
    by character."""
    if not isinstance(value, list):
        raise ValueError(f"{field} must be a JSON list, got {value!r}")
    return value


def _finite(value, field: str):
    """``value``, unless it is a JSON number that is no finite double:
    ``NaN``, ``Infinity`` or a literal that overflows, which ``json`` reads
    as nan or inf, or an integer too large to convert."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite, value = False, "an integer too large for a double"
        if not finite:
            raise ValueError(f"{field} must be a finite number, got {value}")
    return value


def _ascii(raw: str) -> bool:
    """True for text that may hold a number: float() also reads '٣', '３'
    and '1_0', which expressions and --points refuse."""
    return raw.isascii() and "_" not in raw


def _real(value, field: str) -> float:
    """A number; JSON true and false are not read as 1 and 0, a JSON number
    that is not finite is refused, and so is a string that is not ASCII or
    holds an underscore."""
    if isinstance(value, bool) or isinstance(value, str) and not _ascii(value):
        raise ValueError(f"{field} must be a number, got {value!r}")
    return float(_finite(value, field))


def _points(value) -> tuple:
    """The sample points as tuples of floats.  Lists of finite JSON numbers,
    as an export writes them, are read with one type pass and one
    conversion per point; anything else goes value by value through
    :func:`_real`, which refuses the first bad value by its place or reads
    it as before (a string such as "nan" places a NaN point)."""
    rows = _list(value, "sample_points")
    if (all(type(p) is list for p in rows)
            and set(map(type, chain.from_iterable(rows))) <= {float, int}):
        try:
            points = tuple(tuple(map(float, p)) for p in rows)
        except OverflowError:  # an integer too large for a double
            points = None
        if points is not None and all(map(math.isfinite, chain.from_iterable(points))):
            return points
    return tuple(tuple(_real(v, f"sample_points[{k}][{i}]")
                       for i, v in enumerate(_list(p, f"sample_points[{k}]")))
                 for k, p in enumerate(rows))


def manifold_from_dict(data: dict, name: str) -> ContactPairManifold:
    try:
        data = _object(data, "the top level")
        coords = tuple(str(c) for c in _list(data["coords"], "coords"))
        dim = _count(data["dim"], "dim")
        if dim > rm.MAX_DIM:
            raise UsageError(f"dim={dim} is above the {rm.MAX_DIM} coordinates "
                             f"the engine supports")
        if len(coords) != dim:
            raise UsageError(f"dim={dim} but {len(coords)} coordinates declared")
        params = _object(data.get("params", {}), "params")
        if len(set(coords) | set(params)) != dim + len(params):
            raise ValueError(f"names repeat among coordinates {list(coords)} "
                             f"and params {list(params)}")
        reals = {}
        for k, v in params.items():
            # a string that reads as nan or inf is refused as the JSON number is
            field = f"params[{k!r}]"
            reals[str(k)] = _finite(_real(v, field), field)
        params = tuple(sorted(reals.items()))
        points = _points(data["sample_points"])
        if any(len(p) != dim for p in points):
            raise UsageError("sample points must have one value per coordinate")
        chart = rm.Chart(coords=coords, params=params, sample_points=points)
        entries = {}
        for key, src in _object(data["metric"], "metric").items():
            # int() alone also reads ' 0', '+0', '0_0', '٠' and '０'
            if not re.fullmatch("[0-9]+,[0-9]+", key):
                raise ValueError(f"metric key {key!r} is not 'i,j' in ASCII digits")
            i, j = map(int, key.split(","))
            if (i, j) in entries or (j, i) in entries:
                raise ValueError(f"metric entry {(i, j)} is given twice")
            entries[(i, j)] = _finite(src, f"metric[{key!r}]")
        metric = rm.MetricField.from_entries(chart, entries)
        rows = {}
        for field in ("alpha1", "alpha2", "Z1", "Z2"):
            row = _list(data[field], field)
            if len(row) != dim:
                raise ValueError(f"{field} has {len(row)} entries, chart has dim {dim}")
            rows[field] = [_finite(v, f"{field}[{k}]") for k, v in enumerate(row)]
        alpha1 = rm.OneForm.of(chart, rows["alpha1"])
        alpha2 = rm.OneForm.of(chart, rows["alpha2"])
        z1 = rm.VectorField.of(chart, rows["Z1"])
        z2 = rm.VectorField.of(chart, rows["Z2"])
        pair_type = _list(data["type"], "type")
        if len(pair_type) != 2:
            raise ValueError(f"type must have two entries, [m, n], got {pair_type!r}")
        m, n = (_count(v, "type entry") for v in pair_type)
        if 2 * m + 2 * n + 2 != dim:
            raise UsageError(f"type {m, n} is inconsistent with dim={dim}")
        return ContactPairManifold(name, chart, metric, alpha1, alpha2,
                                   z1, z2, (m, n))
    except UsageError:
        raise
    except (KeyError, IndexError, ValueError, TypeError, el.ExprError) as exc:
        raise UsageError(f"bad manifold file: {exc}") from exc


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict; a key given twice in it, which ``json``
    would read as its later value, is a malformed file."""
    out = dict(pairs)
    if len(out) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise UsageError(f"bad manifold file: key {key!r} is given twice")
            seen.add(key)
    return out


def load_manifold(path: str) -> ContactPairManifold:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    name = os.path.splitext(os.path.basename(path))[0]
    return manifold_from_dict(data, name)


def save_manifold(cp: ContactPairManifold, path: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifold_to_dict(cp), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def resolve_manifold(spec: str) -> ContactPairManifold:
    if os.path.sep in spec or spec.endswith(".json") or os.path.exists(spec):
        return load_manifold(spec)
    return resolve_catalog(spec)


def resolve_catalog(spec: str) -> ContactPairManifold:
    try:
        return catalog.resolve(spec)
    except (KeyError, ValueError) as exc:
        raise UsageError(exc.args[0]) from exc  # str() would quote a KeyError's message


# --- shared helpers --------------------------------------------------------------

def _positive_int(raw: str) -> int:
    """ASCII digits only: str.isdigit also takes '٣', '３' and '²'."""
    if not (raw.isascii() and raw.isdigit()) or int(raw) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got '{raw}'")
    return int(raw)


def _tolerance(raw: str) -> float:
    try:
        value = float(raw) if _ascii(raw) else math.nan
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got '{raw}'")
    return value


def _sample_points(cp: ContactPairManifold, limit: Optional[int]):
    """The first ``limit`` sample points; a manifold without any is an
    input error, never a vacuous pass."""
    if not cp.chart.sample_points:
        raise UsageError(f"{cp.name} declares no sample points")
    return cp.chart.sample_points[:limit]


def _require_finite(*arrays) -> None:
    """Curvature or residuals that overflow, or a non-finite coordinate that
    no field reads, are input errors where results leave the program."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise UsageError("a result or its point is not finite")


def _emit(report: Report, fmt: str, points) -> int:
    _require_finite(points, *(b.values for b in report.blocks))
    print(report.to_json() if fmt == "json" else report.to_text())
    return 0 if report.passed else 1


# --- commands --------------------------------------------------------------------

def cmd_list(args) -> int:
    rows = []
    for entry in catalog.ENTRIES:
        if args.filter and args.filter not in entry.key:
            continue
        expected = dict(entry.expected)
        rows.append({
            "key": entry.key,
            "description": entry.description,
            "expected": {k: v for k, v in expected.items()
                         if isinstance(v, (int, float, bool))},
        })
    if args.format == "json":
        print(json.dumps(rows, indent=2))
    else:
        for row in rows:
            print(f"{row['key']:20s} {row['description']}")
            pairs = ", ".join(f"{k}={v}" for k, v in row["expected"].items())
            print(f"{'':20s} expected: {pairs}")
    return 0


def cmd_check(args) -> int:
    cp = resolve_manifold(args.manifold)
    points = _sample_points(cp, args.points)
    report = bm.run_suites(cp, ("definitions", "lemmas"), tolerance=args.tolerance,
                           points=points)
    report.conventions["tolerance_structure"] = bm.loosen(cpm.STRUCTURE_TOL, args.tolerance)
    report.conventions["tolerance_identities"] = bm.loosen(cpm.LEMMA_TOL, args.tolerance)
    return _emit(report, args.format, points)


_TENSOR_CHOICES = ("riemann", "ricci", "star-ricci", "weyl", "bochner-j", "bochner-t")


def _tensor_at(cp: ContactPairManifold, what: str, point) -> tuple[np.ndarray, dict]:
    st = cpm.structure_at(cp, point)
    cpm.require_foliations(st)
    scalars = {"tau": st.geo.tau, "tau_star": st.tau_star}
    if what == "riemann":
        return st.geo.riem4, scalars
    if what == "ricci":
        return st.geo.ricci, scalars
    if what == "star-ricci":
        return st.star_ricci, scalars
    if what == "weyl":
        return rm.weyl(cp.metric, point).comps, scalars
    which = "J" if what == "bochner-j" else "T"
    return bm.bochner(bm.context(cp, point, which)), scalars


def _parse_point(cp: ContactPairManifold, raw: str):
    if raw == "default":
        return _sample_points(cp, 1)[0]
    try:
        if not _ascii(raw):
            raise ValueError("numbers are ASCII and have no underscores")
        values = tuple(float(v) for v in raw.split(","))
    except ValueError as exc:
        raise UsageError(f"bad point '{raw}': {exc}") from exc
    if len(values) != cp.dim:
        raise UsageError(f"point has {len(values)} values, chart has dim {cp.dim}")
    return values


def cmd_tensor(args) -> int:
    cp = resolve_manifold(args.manifold)
    point = _parse_point(cp, args.at)
    try:
        comps, scalars = _tensor_at(cp, args.what, point)
    except (rm.MetricError, ValueError) as exc:
        raise UsageError(str(exc)) from exc
    size = np.abs(comps)
    _require_finite(size, [scalars["tau"], scalars["tau_star"], *point])
    names = cp.chart.coords
    nonzero = size > 1e-12  # indices and values both in C order
    entries = [(",".join(names[i] for i in idx), value)
               for idx, value in zip(np.argwhere(nonzero).tolist(), comps[nonzero].tolist())]
    summary = {
        "manifold": cp.name,
        "tensor": args.what,
        "point": list(point),
        "tau": scalars["tau"],
        "tau_star": scalars["tau_star"],
        "max_abs_component": float(np.max(size)),
        "nonzero_components": {label: value for label, value in entries},
        "conventions": cp.conventions() | bm.convention_ledger(),
    }
    if args.format == "json":
        print(json.dumps(summary, indent=2))
    else:
        print(f"{args.what} on {cp.name} at ({', '.join(f'{v:.6g}' for v in point)})")
        print(f"  tau = {scalars['tau']:.12g}   tau* = {scalars['tau_star']:.12g}"
              f"   max|component| = {summary['max_abs_component']:.6e}")
        if entries:
            for label, value in entries:
                print(f"  [{label}] = {value: .12e}")
        else:
            print("  all components below 1e-12")
    return 0


def cmd_verify(args) -> int:
    cp = resolve_manifold(args.manifold)
    suites = bm.SUITES if args.suite == "all" else (args.suite,)
    if cp.m + cp.n + 1 < 2 and {"theorem1", "theorem2"} & set(suites):
        raise UsageError(f"the theorem suites need complex dimension m + n + 1 >= 2; "
                         f"{cp.name} has type {cp.pair_type}")
    entry = catalog.entry_for(cp.name)
    points = _sample_points(cp, args.points)
    try:
        report = bm.run_suites(cp, suites, dict(entry.expected) if entry else None,
                               args.tolerance, points)
    except bm.MissingExpectedTable as exc:
        raise UsageError(str(exc)) from exc
    if args.tolerance is not None:
        report.conventions["tolerance_requested"] = args.tolerance
    return _emit(report, args.format, points)


def cmd_export(args) -> int:
    cp = resolve_catalog(args.catalog_id)
    save_manifold(cp, args.path)
    print(f"wrote {cp.name} to {args.path}")
    return 0


# --- argument parsing -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; each command runs ``cmd_<name>``."""
    parser = argparse.ArgumentParser(
        prog="contactcurv",
        description="curvature engine and verification suite for metric "
                    "contact pairs")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalog manifolds")
    p_list.add_argument("--format", choices=("text", "json"), default="text")
    p_list.add_argument("--filter", default=None, help="substring filter on keys")

    def common(p):
        p.add_argument("--tolerance", type=_tolerance, default=None,
                       help="loosen (never tighten) the default tolerances")
        p.add_argument("--points", type=_positive_int, default=None,
                       help="use only the first N sample points")
        p.add_argument("--format", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="run definition and identity "
                                           "validators on a manifold")
    p_check.add_argument("manifold", help="catalog id like hopf:1 or a file path")
    common(p_check)

    p_tensor = sub.add_parser("tensor", help="print a curvature tensor at a point")
    p_tensor.add_argument("manifold")
    p_tensor.add_argument("--what", choices=_TENSOR_CHOICES, required=True)
    p_tensor.add_argument("--at", default="default",
                          help="'default' or comma-separated coordinates; write "
                               "a point that starts with a minus sign as "
                               "--at=-0.5,0.1,...")
    p_tensor.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("manifold")
    p_verify.add_argument("--suite", choices=bm.SUITES + ("all",), default="all")
    common(p_verify)

    p_export = sub.add_parser("export", help="write a catalog entry as a "
                                             "manifold-definition file")
    p_export.add_argument("catalog_id")
    p_export.add_argument("path")
    return parser


# built once per process: parsing leaves the parser as it was, and the
# command function is looked up by name when it runs
_PARSER = build_parser()


def _warning_line(message, category, filename, lineno, line=None) -> str:
    """A warning as one line, without the library line that issued it."""
    return f"{category.__name__}: {message}\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    shown, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        args = _PARSER.parse_args(argv)
        command = globals()[f"cmd_{args.command}"]
        with np.errstate(all="ignore"):  # overflow is caught by _require_finite
            return command(args)
    except (UsageError, el.ExprError, rm.MetricError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvalidStructureError as exc:
        clauses = ", ".join(exc.clauses) if exc.clauses else "structure"
        print(f"invalid structure ({clauses}): {exc}", file=sys.stderr)
        return 1
    finally:
        warnings.formatwarning = shown


def entry() -> None:
    """The console command: :func:`main`, with its output written once it
    has returned, so that a reader that closes the pipe early (``| head
    -1``) ends the run quietly with the exit code the command computed.
    Output that cannot be written (a full device) is an error, exit 2."""
    stdout, sys.stdout = sys.stdout, io.StringIO()
    try:
        code = main()
    finally:
        text, sys.stdout = sys.stdout.getvalue(), stdout
        try:
            stdout.write(text)
            stdout.flush()
        except OSError as exc:
            # the interpreter flushes stdout once more as it exits
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
            if not isinstance(exc, BrokenPipeError):
                print(f"error: cannot write output: {exc}", file=sys.stderr)
                code = 2
    sys.exit(code)


if __name__ == "__main__":
    entry()
