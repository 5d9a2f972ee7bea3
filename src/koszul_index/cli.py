"""Command-line front end: scenario files in, JSON Lines reports out. It
parses, runs and emits; `verify-all` runs the scenarios that
`suites.builtin_scenarios` generates.

Exit codes: 0 when every scenario passes, 1 when any scenario fails or hits
a computational error (zero on a boundary, irrational spectrum, ...), 2 for
schema violations, bad usage or output that cannot be written, each one
`error:` line on stderr. No option sets a tolerance or a backend: a report
names the one that ran (`spectrum.joint_eigenvalues` decides). Reports are
emitted in input order, and a run is byte-identical for a fixed seed
(timings are only added under --timings).

Each scenario kind is one entry of KINDS: its payload fields, which are also
the options of its one-off subcommand, one function that validates a payload
and returns the parsed inputs, and one that runs them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Callable

from . import koszul, models, multiplicity as mult_mod, spectral, spectrum, suites
from .errors import KoszulIndexError, ParseError
from .koszul import CommutingTuple
from .linalg import Matrix
from .models import DomainDescriptor, ModelTuple
from .poly import MAX_VARIABLES, _decimal, parse_system
from .scalars import EXACT, FLOAT, QQi, scalar_str

SCHEMA_VERSION = 1
DEFAULT_SEED = 7
_MAX_R_MAX = 100  # pages past n + 1 equal the limit; dim * 2**n keeps n far below this


class SchemaError(Exception):
    pass


@dataclass(frozen=True)
class Scenario:
    id: str
    kind: str
    payload: dict
    backend: str = EXACT
    tol: None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):  # `backend` and `tol` are kept for positional callers only
        if self.tol is not None:
            raise SchemaError("a scenario takes no tol: the float kernel cut is fixed")
        if self.backend != EXACT:
            raise SchemaError("a scenario takes no backend: the float split is a fallback")


# -- payload parsing helpers ---------------------------------------------------


def _parse_scalar(text):
    try:
        return QQi.parse(str(text))
    except ZeroDivisionError:
        raise SchemaError(f"zero denominator in scalar literal {text!r}")


def _is_int(value) -> bool:
    """isinstance for JSON integers: true and false are bools, not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_matrix(obj) -> Matrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError("matrix literals are non-empty arrays of arrays")
    if any(len(row) != len(obj[0]) for row in obj):
        raise SchemaError("ragged rows in matrix literal")
    return Matrix([[_parse_scalar(x) for x in row] for row in obj])


def _parse_operators(obj) -> list:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("operator lists are non-empty arrays of matrices")
    return [_parse_matrix(m) for m in obj]


def _require_common_square(mats):
    size = mats[0].rows
    if any(m.rows != size or m.cols != size for m in mats):
        raise SchemaError("operators must be square matrices of one size")


def _parse_point(obj):
    if isinstance(obj, str):
        obj = [p.strip() for p in obj.split(",")]
    if not isinstance(obj, list):
        raise SchemaError("points are arrays of scalar strings")
    return tuple(_parse_scalar(x) for x in obj)


def _parse_domain(obj) -> DomainDescriptor:
    if not isinstance(obj, dict):
        raise SchemaError("domains are objects")
    extra = set(obj) - {"kind", "center", "radii"}
    if extra:
        raise SchemaError(f"unknown domain fields {sorted(extra)}")
    kind = obj.get("kind")
    if kind not in ("polydisc", "ball"):
        raise SchemaError("domain kind is 'polydisc' or 'ball'")
    if "center" not in obj or not isinstance(obj["center"], list):
        raise SchemaError("domain center is an array of scalar strings")
    center = tuple(_parse_scalar(c) for c in obj["center"])
    radii = obj.get("radii")
    if not isinstance(radii, list) or not radii:
        raise SchemaError("domain radii are a non-empty array")
    radii = tuple(_parse_scalar(r) for r in radii)
    if any(r.im for r in radii):
        raise SchemaError("domain radii are real")
    try:
        return DomainDescriptor(kind, center, tuple(r.re for r in radii))
    except ValueError as err:
        raise SchemaError(str(err))


def _infer_variables(text: str) -> int:
    """The largest variable index in text, capped where the parser refuses it."""
    indices = [_decimal(m.group(1), MAX_VARIABLES) for m in re.finditer(r"z(\d+)", text)]
    return min(max(indices, default=1), MAX_VARIABLES)


def _system_from_payload(payload):
    text = payload.get("system")
    if not isinstance(text, str):
        raise SchemaError("payload field 'system' must be a string")
    nvars = payload.get("variables", _infer_variables(text))
    if not _is_int(nvars) or not 1 <= nvars <= MAX_VARIABLES:
        raise SchemaError(
            f"payload field 'variables' must be a positive integer up to {MAX_VARIABLES}")
    return parse_system(text, nvars)


# -- scenario file parsing -----------------------------------------------------


def load_scenario_file(path: str, defaults) -> list:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        raise SchemaError(f"cannot read scenario file: {err}")
    return scenarios_from_document(doc, defaults)


def scenarios_from_document(doc, defaults) -> list:
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be an object")
    extra = set(doc) - {"schema", "scenarios"}
    if extra:
        raise SchemaError(f"unknown top-level fields {sorted(extra)}")
    if doc.get("schema") != SCHEMA_VERSION:
        raise SchemaError(f"schema must be {SCHEMA_VERSION}")
    raw = doc.get("scenarios")
    if not isinstance(raw, list) or not raw:
        raise SchemaError("'scenarios' must be a non-empty array")
    out = []
    seen = set()
    for k, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise SchemaError(f"scenario #{k} is not an object")
        extra = set(entry) - {"id", "kind", "payload", "seed"}
        if extra:
            raise SchemaError(f"scenario #{k} has unknown fields {sorted(extra)}")
        sid = entry.get("id", f"scenario-{k:03d}")
        if not isinstance(sid, str):
            raise SchemaError(f"scenario #{k} id must be a string")
        if sid in seen:
            raise SchemaError(f"duplicate scenario id {sid!r}")
        seen.add(sid)
        kind = entry.get("kind")
        if kind not in KINDS:
            raise SchemaError(f"scenario {sid!r}: unknown kind {kind!r}")
        payload = entry.get("payload")
        if not isinstance(payload, dict):
            raise SchemaError(f"scenario {sid!r}: payload must be an object")
        extra = set(payload) - {f.name for f in KINDS[kind].fields} - {"expect"}
        if extra:
            raise SchemaError(
                f"scenario {sid!r}: unknown payload fields {sorted(extra)}")
        seed = entry.get("seed", defaults.seed)
        if not _is_int(seed) or seed < 0:
            raise SchemaError(f"scenario {sid!r}: seed must be a non-negative integer")
        try:
            # validation; execution parses again: a system anew, scalars from QQi's cache
            KINDS[kind].inputs(payload)
        except (SchemaError, ParseError) as err:
            raise SchemaError(f"scenario {sid!r}: {err}")
        if "expect" in payload and not isinstance(payload["expect"], dict):
            raise SchemaError(f"scenario {sid!r}: expect must be an object")
        out.append(Scenario(sid, kind, payload, seed=seed))
    return out


# -- execution ------------------------------------------------------------------


def _point_strs(point):
    return [scalar_str(x) for x in point]


def _check_dict(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": detail}


_SHARED = {}  # repr -> the first outputs or checks with it, bounded


def _shared(value):  # reports are kept until emitted; nothing mutates these values
    if len(_SHARED) >= 4096:
        _SHARED.clear()
    return _SHARED.setdefault(repr(value), value)


def _apply_expect(expect, outputs, checks):
    for key, wanted in (expect or {}).items():
        actual = outputs.get(key)
        checks.append(_check_dict(
            f"expected_{key}", actual == wanted, f"{actual} vs {wanted}"))


# -- the scenario kinds: parse a payload, run the parsed inputs ------------------


def _parse_homology(payload):
    ops = _parse_operators(payload["operators"])
    cone = None
    if "cone_with" in payload:
        cone = _parse_matrix(payload["cone_with"])
    _require_common_square(ops if cone is None else ops + [cone])
    return ops, cone


def _run_homology(inputs, outputs, checks):
    ops, cone = inputs
    complex_ = koszul.build_complex(CommutingTuple(ops))
    profile = koszul.homology(complex_)
    outputs.update(dims=list(profile.dims), euler=profile.euler,
                   index=profile.index)
    checks.append(_check_dict("euler_characteristic_zero",
                              profile.index == 0, f"index {profile.index}"))
    if cone is not None:
        ok = koszul.verify_cone_isomorphism(complex_, cone)
        outputs["cone_isomorphism"] = ok
        checks.append(_check_dict("cone_isomorphism", ok))
    return EXACT


def _parse_spectrum(payload):
    ops = _parse_operators(payload["operators"])
    _require_common_square(ops)
    point = _parse_point(payload["at"]) if "at" in payload else None
    return ops, point


def _run_spectrum(inputs, outputs, checks):
    ops, point = inputs
    tup = CommutingTuple(ops)
    pairs, backend = spectrum.joint_eigenvalues(tup)
    outputs["eigenvalues"] = [{"point": _point_strs(pt), "multiplicity": m}
                              for pt, m in pairs]
    total = sum(m for _, m in pairs)
    checks.append(_check_dict("eigenspace_dimensions_sum",
                              total == tup.dim, f"{total} of {tup.dim}"))
    if point is not None:
        report = spectrum.joint_spectrum_equivalences(tup, point)
        outputs["at"] = {
            "point": _point_strs(point),
            "in_taylor_spectrum": report.in_taylor_spectrum,
            "in_eigenvalue_support": report.in_eigenvalue_support,
            "top_homology_nonzero": report.top_homology_nonzero,
        }
        checks.append(_check_dict("membership_equivalences", report.agree))
    if backend == FLOAT:
        outputs["skipped_checks"] = [{"name": "eigenvalues_certified", "reason":
                                      "float eigenvalues are rounded numpy clusters"}]
    return backend


def _parse_multiplicity(payload):
    system = _system_from_payload(payload)
    point = _parse_point(payload["at"]) if "at" in payload else None
    if "check_diagonal" in payload and not isinstance(
            payload["check_diagonal"], bool):
        raise SchemaError("check_diagonal must be a boolean")
    return system, point, payload.get("check_diagonal", False)


def _run_multiplicity(inputs, outputs, checks):
    system, point, check_diagonal = inputs
    if point is None:
        table = mult_mod.global_multiplicity_table(system)
        outputs["zeros"] = [
            {"point": _point_strs(pt), "multiplicity": m}
            for pt, m in table.entries]
        outputs["quotient_dim"] = table.quotient_dim
        total = table.total()
        checks.append(_check_dict("multiplicities_sum_to_quotient",
                                  total == table.quotient_dim,
                                  f"{total} of {table.quotient_dim}"))
        if check_diagonal:
            outputs["skipped_checks"] = [{"name": "diagonal_degree_identity", "reason":
                                          "no `at` point: the identity is checked at one zero"}]
        return EXACT
    cert = mult_mod.local_multiplicity(system, point)
    outputs.update(multiplicity=cert.multiplicity,
                   N_star=cert.stabilization_order,
                   point=_point_strs(point))
    outputs["jacobian_regular"] = mult_mod.jacobian_regular(system, point)
    if outputs["jacobian_regular"]:
        checks.append(_check_dict("regular_zero_is_simple",
                                  cert.multiplicity == 1))
    dim = mult_mod.eigenspace_multiplicity(system, point)
    checks.append(_check_dict(
        "eigenspace_oracle_agreement", dim == cert.multiplicity,
        f"eigenspace [{dim}] vs truncation {cert.multiplicity}"))
    if check_diagonal:
        ok = mult_mod.verify_diagonal_degree(system, cert)
        outputs["diagonal_degree_equal"] = ok
        checks.append(_check_dict("diagonal_degree_identity", ok))
    return EXACT


def _parse_index(payload):
    return _system_from_payload(payload), _parse_domain(payload["domain"])


def _run_index(inputs, outputs, checks):
    system, domain = inputs
    report = models.global_index(ModelTuple(domain, tuple(system)))
    outputs["global_index"] = report.global_index
    outputs["quotient_dim"] = report.quotient_dim
    outputs["zeros"] = [
        {"point": _point_strs(z.point), "multiplicity": z.multiplicity,
         "location": z.location, "coordinate_index": z.coordinate_index}
        for z in report.zeros]
    outputs["local_indices"] = [
        {"point": _point_strs(pt), "index": li}
        for pt, li in report.local_indices]
    if report.skipped:
        outputs["skipped_checks"] = [{"name": name, "reason": why}
                                     for name, why in report.skipped]
    checks.extend(_check_dict(c.name, c.passed, c.detail)
                  for c in report.checks)
    return report.backend  # float when the zeros leave Q(i)


def _parse_reciprocity(payload):
    return (_system_from_payload(payload), _parse_domain(payload["domain_a"]),
            _parse_domain(payload["domain_b"]))


def _run_reciprocity(inputs, outputs, checks):
    system, domain_a, domain_b = inputs
    report = models.reciprocity_check(domain_a, domain_b, system)
    outputs.update(lhs=report.lhs, rhs=report.rhs)
    outputs["zeros"] = [
        {"point": _point_strs(pt), "multiplicity": m,
         "location_a": la, "location_b": lb}
        for pt, m, la, lb in report.zeros]
    checks.append(_check_dict("reciprocity_identity", report.equal,
                              f"{report.lhs} vs {report.rhs}"))
    return report.backend


def _parse_spectral_sequence(payload):
    ops_a = _parse_operators(payload["operators_a"])
    ops_b = _parse_operators(payload["operators_b"])
    _require_common_square(ops_a + ops_b)
    r_max = payload["r_max"]
    if not _is_int(r_max) or not 2 <= r_max <= _MAX_R_MAX:
        raise SchemaError(f"r_max must be an integer from 2 to {_MAX_R_MAX}")
    return ops_a, ops_b, r_max


def _run_spectral_sequence(inputs, outputs, checks):
    ops_a, ops_b, r_max = inputs
    bc = spectral.build_bicomplex(CommutingTuple(ops_a), CommutingTuple(ops_b))
    pages = spectral.page_sequence(bc, r_max)
    outputs["pages"] = [{"r": page.r, "dims": page.dims_grid()}
                        for page in pages]
    outputs["stabilization_page"] = spectral.stabilization_page(pages)
    outputs["euler_via_e2"] = spectral.euler_via_e2(bc)
    outputs["total_homology"] = list(bc.profile.dims)
    checks.append(_check_dict("signed_sums_constant", True,
                              "asserted during the page run"))
    checks.append(_check_dict("limit_page_matches_homology", True,
                              "asserted during the page run"))
    checks.append(_check_dict("index_via_page_two",
                              outputs["euler_via_e2"] == bc.profile.index))
    return EXACT


def _parse_identities(payload):
    n, m = payload["n"], payload["m"]
    if not (_is_int(n) and _is_int(m) and 1 <= n <= m):
        raise SchemaError("identities need integers 1 <= n <= m")
    shift = payload["range"]
    if not _is_int(shift) or shift < 0:
        raise SchemaError("range must be a non-negative integer")
    return n, m, shift


def _run_identities(inputs, outputs, checks):
    n, m, shift = inputs
    lr = models.lr_identity_holds(n, m)
    binom = models.binomial_identity_holds(n, m, shift)
    outputs.update(n=n, m=m, range=shift, left_inverse=lr,
                   binomial_identity=binom)
    sample = list(range(n + 1, 0, -1))
    outputs["identity_transform_fixedpoint"] = \
        models.regular_case_identities(sample, n) == sample
    checks.append(_check_dict("left_inverse_identity", lr))
    checks.append(_check_dict("binomial_composition_identity", binom))
    checks.append(_check_dict("equal_length_transform_is_identity",
                              outputs["identity_transform_fixedpoint"]))
    return EXACT


@dataclass(frozen=True)
class Field:
    """A payload field, given to a one-off subcommand as --name (dashes for
    underscores). `option` is "json" (a JSON literal), "text", "int" or
    "flag". A non-None default fills both the option and a payload that
    leaves the field out."""
    name: str
    option: str = "json"
    required: bool = False
    default: object = None
    help: str | None = None


@dataclass(frozen=True)
class Kind:
    command: str
    help: str
    fields: tuple
    # payload with defaults filled in -> inputs; raises SchemaError or
    # ParseError, and never again once a payload passed
    parse: Callable
    # (inputs, outputs, checks) -> the backend that actually ran; fills
    # outputs and checks
    run: Callable

    def inputs(self, payload: dict):
        """The parsed inputs of a payload; raises SchemaError or ParseError."""
        for f in self.fields:
            if f.required and f.name not in payload:
                raise SchemaError(f"missing payload field {f.name!r}")
        defaults = {f.name: f.default for f in self.fields
                    if f.default is not None}
        return self.parse({**defaults, **payload})


_OPERATORS = "JSON array of matrices (scalar-string entries)"
_SYSTEM = (Field("system", "text", required=True), Field("variables", "int"))

KINDS = {
    "HOMOLOGY": Kind(
        "homology", "Koszul homology of one tuple",
        (Field("operators", required=True, help=_OPERATORS),
         Field("cone_with",
               help="extra commuting matrix for the cone isomorphism check")),
        _parse_homology, _run_homology),
    "SPECTRUM": Kind(
        "spectrum", "joint eigenvalues and equivalences",
        (Field("operators", required=True, help=_OPERATORS),
         Field("at", "text", help="comma-separated point")),
        _parse_spectrum, _run_spectrum),
    "MULTIPLICITY": Kind(
        "multiplicity", "local multiplicity at a zero",
        _SYSTEM + (Field("at", "text", help="comma-separated point"),
                   Field("check_diagonal", "flag")),
        _parse_multiplicity, _run_multiplicity),
    "INDEX": Kind(
        "index", "global index over a model domain",
        (Field("domain", required=True, help="JSON domain descriptor"),)
        + _SYSTEM,
        _parse_index, _run_index),
    "RECIPROCITY": Kind(
        "reciprocity", "two-domain index pairing",
        (Field("domain_a", required=True), Field("domain_b", required=True))
        + _SYSTEM,
        _parse_reciprocity, _run_reciprocity),
    "SPECTRAL_SEQUENCE": Kind(
        "ss", "spectral sequence of a joined pair",
        (Field("operators_a", required=True), Field("operators_b", required=True),
         Field("r_max", "int", default=2)),
        _parse_spectral_sequence, _run_spectral_sequence),
    "IDENTITIES": Kind(
        "identities", "binomial transform identities",
        (Field("n", "int", required=True), Field("m", "int", required=True),
         Field("range", "int", default=8)),
        _parse_identities, _run_identities),
}


def _report(scenario: Scenario, backend, outputs, checks, error=None) -> dict:
    return {
        "id": scenario.id,
        "kind": scenario.kind,
        "backend": backend,
        "seed": scenario.seed,
        "inputs": scenario.payload,
        "outputs": outputs,
        "checks": checks,
        "pass": error is None and all(c["passed"] for c in checks),
        "error": error,
    }


def execute_scenario(scenario: Scenario) -> dict:
    kind = KINDS[scenario.kind]
    outputs = {}
    checks = []
    backend = kind.run(kind.inputs(scenario.payload), outputs, checks)
    _apply_expect(scenario.payload.get("expect"), outputs, checks)
    return _report(scenario, backend, _shared(outputs), _shared(checks))


def run_scenario(scenario: Scenario) -> dict:
    started = time.perf_counter()
    try:
        report = execute_scenario(scenario)
    except (KoszulIndexError, AssertionError) as err:
        # an error raised after a float fallback says so (spectrum._raised_on)
        backend = getattr(err, "backend", EXACT)
        report = _report(scenario, backend, {}, [],
                         {"type": type(err).__name__, "message": str(err)})
    report["_wall_ms"] = (time.perf_counter() - started) * 1000.0
    return report


def emit_reports(reports, stream, timings=False):
    for report in reports:
        wall = report.pop("_wall_ms", None)
        if timings and wall is not None:
            report["wall_ms"] = round(wall, 3)
        stream.write(json.dumps(report, separators=(",", ":")) + "\n")


# -- argument parsing -------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed of the verify-all generator, echoed in "
                             "each report")
    parser.add_argument("--output", default=None,
                        help="write reports to this path instead of stdout")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock fields in reports")


def _add_field(parser, field: Field):
    option = "--" + field.name.replace("_", "-")
    if field.option == "flag":
        parser.add_argument(option, action="store_const", const=True,
                            help=field.help)
    else:
        parser.add_argument(option, type=int if field.option == "int" else str,
                            required=field.required, default=field.default,
                            help=field.help)


class _Parser(argparse.ArgumentParser):  # subparsers are of this class too
    def error(self, message):  # one line, as every other exit-2 error; -h is unchanged
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="koszul-index",
        description="Koszul homology, joint spectra and index theorems for "
                    "commuting tuples at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run scenarios from a JSON file")
    p.add_argument("scenario_file")
    _add_common(p)
    p.set_defaults(scenarios=lambda args: load_scenario_file(
        args.scenario_file,
        Scenario("defaults", "IDENTITIES", {}, seed=args.seed)))

    p = sub.add_parser("verify-all", help="run the bundled verification suites")
    _add_common(p)
    p.set_defaults(scenarios=lambda args: [
        Scenario(sid, kind, payload, seed=args.seed)
        for sid, kind, payload in suites.builtin_scenarios(args.seed)])

    for name, kind in KINDS.items():
        p = sub.add_parser(kind.command, help=kind.help)
        for field in kind.fields:
            _add_field(p, field)
        _add_common(p)
        p.set_defaults(scenarios=_one_off_scenario, kind=name)

    return parser


def _one_off_scenario(args) -> list:
    """The one scenario of a one-off subcommand: every option given (or
    defaulted) is passed through to the payload."""
    kind = KINDS[args.kind]
    payload = {}
    for field in kind.fields:
        value = getattr(args, field.name)
        if value is not None:
            payload[field.name] = (json.loads(value) if field.option == "json"
                                   else value)
    kind.inputs(payload)
    return [Scenario(f"cli-{kind.command}", args.kind, payload, seed=args.seed)]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise SchemaError("--seed: seed must be a non-negative integer")
        scenarios = args.scenarios(args)
    except (SchemaError, ParseError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    reports = [run_scenario(s) for s in scenarios]
    try:
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                emit_reports(reports, handle, args.timings)
        else:
            emit_reports(reports, sys.stdout, args.timings)
            sys.stdout.flush()
    except OSError as err:
        print(f"error: cannot write output: {err}", file=sys.stderr)
        if not args.output:  # the interpreter's last flush of stdout goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 0 if all(r["pass"] for r in reports) else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
