"""Command-line front end: scenario files in, JSON Lines reports out.

Exit codes: 0 when every scenario passes, 1 when any scenario fails or hits
a computational error (zero on a boundary, irrational spectrum, ...), 2 for
schema violations or bad usage. Reports are emitted in input order whatever
the worker count, and an exact-backend run is byte-identical for a fixed
seed (timings are only added under --timings).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from . import koszul, models, multiplicity as mult_mod, spectral, spectrum, suites
from .errors import KoszulIndexError, ParseError
from .koszul import CommutingTuple
from .linalg import Matrix
from .models import DomainDescriptor, ModelTuple
from .poly import parse_system
from .scalars import EXACT, FLOAT, QQi, TolerancePolicy, scalar_str

SCHEMA_VERSION = 1
KINDS = ("HOMOLOGY", "SPECTRUM", "MULTIPLICITY", "INDEX", "RECIPROCITY",
         "SPECTRAL_SEQUENCE", "IDENTITIES")
DEFAULT_SEED = 7

# kinds whose engines are exact-only; a float request falls back to exact
EXACT_ONLY = {"MULTIPLICITY", "IDENTITIES", "SPECTRAL_SEQUENCE", "INDEX",
              "RECIPROCITY"}

_PAYLOAD_KEYS = {
    "HOMOLOGY": {"operators", "cone_with", "expect"},
    "SPECTRUM": {"operators", "at", "expect"},
    "MULTIPLICITY": {"system", "variables", "at", "check_diagonal", "expect"},
    "INDEX": {"domain", "system", "variables", "expect"},
    "RECIPROCITY": {"domain_a", "domain_b", "system", "variables", "expect"},
    "SPECTRAL_SEQUENCE": {"operators_a", "operators_b", "r_max", "expect"},
    "IDENTITIES": {"n", "m", "range", "expect"},
}


class SchemaError(Exception):
    pass


@dataclass(frozen=True)
class Scenario:
    id: str
    kind: str
    payload: dict
    backend: str = EXACT
    tol: float | None = None
    seed: int = DEFAULT_SEED


# -- payload parsing helpers ---------------------------------------------------


def _parse_scalar(text, backend):
    try:
        value = QQi.parse(str(text))
    except ZeroDivisionError:
        raise SchemaError(f"zero denominator in scalar literal {text!r}")
    return value if backend == EXACT else complex(value)


def _parse_matrix(obj, backend) -> Matrix:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise SchemaError("matrix literals are non-empty arrays of arrays")
    return Matrix([[_parse_scalar(x, backend) for x in row] for row in obj],
                  backend)


def _parse_operators(obj, backend) -> list:
    if not isinstance(obj, list) or not obj:
        raise SchemaError("operator lists are non-empty arrays of matrices")
    return [_parse_matrix(m, backend) for m in obj]


def _require_common_square(mats):
    size = mats[0].rows
    if any(m.rows != size or m.cols != size for m in mats):
        raise SchemaError("operators must be square matrices of one size")


def _parse_point(obj, backend=EXACT):
    if isinstance(obj, str):
        obj = [p.strip() for p in obj.split(",")]
    if not isinstance(obj, list):
        raise SchemaError("points are arrays of scalar strings")
    return tuple(_parse_scalar(x, backend) for x in obj)


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
    center = tuple(_parse_scalar(c, EXACT) for c in obj["center"])
    radii = obj.get("radii")
    if not isinstance(radii, list) or not radii:
        raise SchemaError("domain radii are a non-empty array")
    try:
        radii = tuple(Fraction(str(r)) for r in radii)
    except (ValueError, ZeroDivisionError) as err:
        raise SchemaError(f"bad radius: {err}")
    try:
        return DomainDescriptor(kind, center, radii)
    except ValueError as err:
        raise SchemaError(str(err))


def _infer_variables(text: str) -> int:
    indices = [int(m.group(1)) for m in re.finditer(r"z(\d+)", text)]
    return max(indices) if indices else 1


def _system_from_payload(payload):
    text = payload.get("system")
    if not isinstance(text, str):
        raise SchemaError("payload field 'system' must be a string")
    nvars = payload.get("variables", _infer_variables(text))
    if not isinstance(nvars, int) or nvars < 1:
        raise SchemaError("payload field 'variables' must be a positive integer")
    return parse_system(text, nvars), nvars


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
        extra = set(entry) - {"id", "kind", "payload", "backend", "tol", "seed"}
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
        extra = set(payload) - _PAYLOAD_KEYS[kind]
        if extra:
            raise SchemaError(
                f"scenario {sid!r}: unknown payload fields {sorted(extra)}")
        backend = entry.get("backend", defaults.backend)
        if backend not in (EXACT, FLOAT):
            raise SchemaError(f"scenario {sid!r}: backend is 'exact' or 'float'")
        tol = entry.get("tol", defaults.tol)
        if tol is not None and not isinstance(tol, (int, float)):
            raise SchemaError(f"scenario {sid!r}: tol must be a number")
        seed = entry.get("seed", defaults.seed)
        if not isinstance(seed, int) or seed < 0:
            raise SchemaError(f"scenario {sid!r}: seed must be a non-negative integer")
        try:
            _validate_payload(kind, payload, backend)
        except (SchemaError, ParseError) as err:
            raise SchemaError(f"scenario {sid!r}: {err}")
        out.append(Scenario(sid, kind, payload, backend, tol, seed))
    return out


def _validate_payload(kind: str, payload: dict, backend: str):
    """Full structural and literal validation; execution never re-raises
    schema problems after this passes."""
    def need(field):
        if field not in payload:
            raise SchemaError(f"missing payload field {field!r}")
        return payload[field]

    if kind == "HOMOLOGY":
        ops = _parse_operators(need("operators"), backend)
        if "cone_with" in payload:
            ops.append(_parse_matrix(payload["cone_with"], backend))
        _require_common_square(ops)
    elif kind == "SPECTRUM":
        ops = _parse_operators(need("operators"), backend)
        _require_common_square(ops)
        if "at" in payload:
            _parse_point(payload["at"], backend)
    elif kind == "MULTIPLICITY":
        _system_from_payload(payload)
        if "at" in payload:
            _parse_point(payload["at"])
        if "check_diagonal" in payload and not isinstance(
                payload["check_diagonal"], bool):
            raise SchemaError("check_diagonal must be a boolean")
    elif kind == "INDEX":
        _system_from_payload(payload)
        _parse_domain(need("domain"))
    elif kind == "RECIPROCITY":
        _system_from_payload(payload)
        _parse_domain(need("domain_a"))
        _parse_domain(need("domain_b"))
    elif kind == "SPECTRAL_SEQUENCE":
        _require_common_square(_parse_operators(need("operators_a"), EXACT) +
                               _parse_operators(need("operators_b"), EXACT))
        r_max = payload.get("r_max", 2)
        if not isinstance(r_max, int) or r_max < 2:
            raise SchemaError("r_max must be an integer >= 2")
    elif kind == "IDENTITIES":
        n, m = need("n"), need("m")
        if not (isinstance(n, int) and isinstance(m, int) and 1 <= n <= m):
            raise SchemaError("identities need integers 1 <= n <= m")
        shift = payload.get("range", 8)
        if not isinstance(shift, int) or shift < 0:
            raise SchemaError("range must be a non-negative integer")
    if "expect" in payload and not isinstance(payload["expect"], dict):
        raise SchemaError("expect must be an object")


# -- execution ------------------------------------------------------------------


def _policy(scenario: Scenario) -> TolerancePolicy:
    if scenario.tol is None:
        return TolerancePolicy()
    return TolerancePolicy(rel=float(scenario.tol))


def _point_strs(point):
    return [scalar_str(x) for x in point]


def _check_dict(name, passed, detail=""):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _apply_expect(expect, outputs, checks):
    if expect is None:
        return
    for key, wanted in expect.items():
        actual = outputs.get(key)
        checks.append(_check_dict(
            f"expected_{key}", actual == wanted, f"{actual} vs {wanted}"))


def execute_scenario(scenario: Scenario) -> dict:
    backend = scenario.backend
    if scenario.kind in EXACT_ONLY:
        backend = EXACT
    tol = _policy(scenario)
    rng = random.Random(scenario.seed)
    payload = scenario.payload
    outputs = {}
    checks = []

    if scenario.kind == "HOMOLOGY":
        ops = [_parse_matrix(m, backend) for m in payload["operators"]]
        tup = CommutingTuple(ops, tol)
        profile = koszul.homology(koszul.build_complex(tup, tol), tol)
        outputs.update(dims=list(profile.dims), euler=profile.euler,
                       index=profile.index)
        checks.append(_check_dict("euler_characteristic_zero",
                                  profile.index == 0, f"index {profile.index}"))
        if "cone_with" in payload:
            extra = _parse_matrix(payload["cone_with"], backend)
            ok = koszul.verify_cone_isomorphism(tup, extra, tol)
            outputs["cone_isomorphism"] = ok
            checks.append(_check_dict("cone_isomorphism", ok))

    elif scenario.kind == "SPECTRUM":
        ops = [_parse_matrix(m, backend) for m in payload["operators"]]
        tup = CommutingTuple(ops, tol)
        decomposition = spectrum.spectral_decomposition(tup, tol, rng)
        outputs["eigenvalues"] = [
            {"point": _point_strs(pt), "multiplicity": space.dim}
            for pt, space in decomposition.components]
        total = decomposition.total_dim()
        checks.append(_check_dict("eigenspace_dimensions_sum",
                                  total == tup.dim, f"{total} of {tup.dim}"))
        if "at" in payload:
            point = _parse_point(payload["at"], backend)
            report = spectrum.joint_spectrum_equivalences(tup, point, tol, rng)
            outputs["at"] = {
                "point": _point_strs(point),
                "in_taylor_spectrum": report.in_taylor_spectrum,
                "in_eigenvalue_support": report.in_eigenvalue_support,
                "top_homology_nonzero": report.top_homology_nonzero,
            }
            checks.append(_check_dict("membership_equivalences", report.agree))

    elif scenario.kind == "MULTIPLICITY":
        system, nvars = _system_from_payload(payload)
        if "at" in payload:
            point = _parse_point(payload["at"])
            cert = mult_mod.local_multiplicity(system, point)
            outputs.update(multiplicity=cert.multiplicity,
                           N_star=cert.stabilization_order,
                           point=_point_strs(point))
            outputs["jacobian_regular"] = mult_mod.jacobian_regular(system, point)
            if outputs["jacobian_regular"]:
                checks.append(_check_dict("regular_zero_is_simple",
                                          cert.multiplicity == 1))
            table = mult_mod.global_multiplicity_table(system)
            match = [m for pt, m in table.entries if pt == tuple(point)]
            checks.append(_check_dict(
                "eigenspace_oracle_agreement",
                bool(match) and match[0] == cert.multiplicity,
                f"eigenspace {match} vs truncation {cert.multiplicity}"))
            if payload.get("check_diagonal"):
                ok = mult_mod.verify_diagonal_degree(system, point)
                outputs["diagonal_degree_equal"] = ok
                checks.append(_check_dict("diagonal_degree_identity", ok))
        else:
            table = mult_mod.global_multiplicity_table(system)
            outputs["zeros"] = [
                {"point": _point_strs(pt), "multiplicity": m}
                for pt, m in table.entries]
            outputs["quotient_dim"] = table.quotient_dim
            total = table.total()
            checks.append(_check_dict("multiplicities_sum_to_quotient",
                                      total == table.quotient_dim,
                                      f"{total} of {table.quotient_dim}"))

    elif scenario.kind == "INDEX":
        system, nvars = _system_from_payload(payload)
        domain = _parse_domain(payload["domain"])
        report = models.global_index(ModelTuple(domain, tuple(system)), tol, rng)
        backend = report.backend  # float when the zeros leave Q(i)
        outputs["global_index"] = report.global_index
        outputs["quotient_dim"] = report.quotient_dim
        outputs["zeros"] = [
            {"point": _point_strs(z.point), "multiplicity": z.multiplicity,
             "location": z.location, "coordinate_index": z.coordinate_index}
            for z in report.zeros]
        outputs["local_indices"] = [
            {"point": _point_strs(pt), "index": li}
            for pt, li in report.local_indices]
        checks.extend(_check_dict(c.name, c.passed, c.detail)
                      for c in report.checks)

    elif scenario.kind == "RECIPROCITY":
        system, nvars = _system_from_payload(payload)
        domain_a = _parse_domain(payload["domain_a"])
        domain_b = _parse_domain(payload["domain_b"])
        report = models.reciprocity_check(domain_a, domain_b, system, tol, rng)
        outputs.update(lhs=report.lhs, rhs=report.rhs)
        outputs["zeros"] = [
            {"point": _point_strs(pt), "multiplicity": m,
             "location_a": la, "location_b": lb}
            for pt, m, la, lb in report.zeros]
        checks.append(_check_dict("reciprocity_identity", report.equal,
                                  f"{report.lhs} vs {report.rhs}"))

    elif scenario.kind == "SPECTRAL_SEQUENCE":
        ops_a = [_parse_matrix(m, EXACT) for m in payload["operators_a"]]
        ops_b = [_parse_matrix(m, EXACT) for m in payload["operators_b"]]
        bc = spectral.build_bicomplex(CommutingTuple(ops_a), CommutingTuple(ops_b))
        r_max = payload.get("r_max", 2)
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

    elif scenario.kind == "IDENTITIES":
        n, m = payload["n"], payload["m"]
        shift = payload.get("range", 8)
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

    else:  # pragma: no cover - guarded by schema validation
        raise SchemaError(f"unhandled kind {scenario.kind}")

    _apply_expect(payload.get("expect"), outputs, checks)
    return {
        "id": scenario.id,
        "kind": scenario.kind,
        "backend": backend,
        "seed": scenario.seed,
        "inputs": payload,
        "outputs": outputs,
        "checks": checks,
        "pass": all(c["passed"] for c in checks),
        "error": None,
    }


def run_scenario(scenario: Scenario) -> dict:
    started = time.perf_counter()
    try:
        report = execute_scenario(scenario)
    except (KoszulIndexError, AssertionError) as err:
        report = {
            "id": scenario.id,
            "kind": scenario.kind,
            "backend": scenario.backend,
            "seed": scenario.seed,
            "inputs": scenario.payload,
            "outputs": {},
            "checks": [],
            "pass": False,
            "error": {"type": type(err).__name__, "message": str(err)},
        }
    report["_wall_ms"] = (time.perf_counter() - started) * 1000.0
    return report


def run_all(scenarios, jobs: int = 1):
    if jobs <= 1:
        return [run_scenario(s) for s in scenarios]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(run_scenario, s) for s in scenarios]
        return [f.result() for f in futures]  # input order regardless of finish


def emit_reports(reports, stream, timings=False):
    for report in reports:
        wall = report.pop("_wall_ms", None)
        if timings and wall is not None:
            report["wall_ms"] = round(wall, 3)
        stream.write(json.dumps(report, separators=(",", ":")) + "\n")


# -- bundled suites --------------------------------------------------------------


def _matrix_json(m: Matrix):
    return [[scalar_str(x) for x in row] for row in m.entries]


def builtin_scenarios(seed: int = DEFAULT_SEED, backend: str = EXACT) -> list:
    """The bundled verification suites, generated deterministically from the
    seed: the Euler anchor, cone isomorphisms, spectral sequences, the
    multiplicity corpus with the diagonal identity, the index and
    reciprocity scenarios, and the binomial identities."""
    rng = random.Random(seed)
    out = []

    for k in range(200):
        n = rng.choice([1, 2, 3])
        dim = rng.randint(1, 8)
        tup = suites.random_commuting_tuple(rng, n, dim)
        out.append(Scenario(
            f"euler-anchor-{k:03d}", "HOMOLOGY",
            {"operators": [_matrix_json(op) for op in tup.operators],
             "expect": {"index": 0}},
            backend, None, seed))

    for k in range(50):
        n = rng.choice([1, 2])
        dim = rng.randint(1, 6)
        tup, extra = suites.random_cone_instance(rng, n, dim)
        out.append(Scenario(
            f"cone-iso-{k:03d}", "HOMOLOGY",
            {"operators": [_matrix_json(op) for op in tup.operators],
             "cone_with": _matrix_json(extra),
             "expect": {"cone_isomorphism": True, "index": 0}},
            backend, None, seed))

    for k in range(50):
        n = rng.choice([1, 2])
        dim = rng.randint(1, 5)
        a, b = suites.random_bicomplex_pair(rng, n, 1, dim)
        out.append(Scenario(
            f"spectral-seq-{k:03d}", "SPECTRAL_SEQUENCE",
            {"operators_a": [_matrix_json(op) for op in a.operators],
             "operators_b": [_matrix_json(op) for op in b.operators],
             "r_max": 3},
            EXACT, None, seed))

    corpus = [(f"z1^{k}", 1, ["0"], k) for k in range(1, 6)]
    corpus += [
        ("z1^2; z2^3", 2, ["0", "0"], 6),
        ("z1^2 - z2; z2^2", 2, ["0", "0"], 4),
        ("z1*(z1 - 1); z2", 2, ["0", "0"], 1),
        ("z1 + z2; z1 - z2", 2, ["0", "0"], 1),
    ]
    for k, (text, nvars, at, expected) in enumerate(corpus):
        out.append(Scenario(
            f"multiplicity-{k:02d}", "MULTIPLICITY",
            {"system": text, "variables": nvars, "at": at,
             "check_diagonal": True,
             "expect": {"multiplicity": expected}},
            EXACT, None, seed))
    for k in range(10):
        system, zeros = suites.random_regular_system(rng)
        text = "; ".join(str(g) for g in system)
        at = [scalar_str(c) for c in zeros[0]]
        out.append(Scenario(
            f"multiplicity-regular-{k:02d}", "MULTIPLICITY",
            {"system": text, "variables": 2, "at": at, "check_diagonal": True,
             "expect": {"multiplicity": 1}},
            EXACT, None, seed))

    disc = {"kind": "polydisc", "center": ["0"], "radii": ["1"]}
    bidisc = {"kind": "polydisc", "center": ["0", "0"], "radii": ["1", "1"]}
    out.append(Scenario(
        "index-disc-two-zeros", "INDEX",
        {"domain": disc, "system": "z1^2 - 1/4",
         "expect": {"global_index": -2}}, EXACT, None, seed))
    out.append(Scenario(
        "index-disc-exterior", "INDEX",
        {"domain": disc, "system": "z1 - 2",
         "expect": {"global_index": 0}}, EXACT, None, seed))
    out.append(Scenario(
        "index-bidisc-multiplicity-four", "INDEX",
        {"domain": bidisc, "system": "z1^2; z2^2",
         "expect": {"global_index": -4, "quotient_dim": 4}}, EXACT, None, seed))
    out.append(Scenario(
        "index-ball-regular", "INDEX",
        {"domain": {"kind": "ball", "center": ["0", "0"], "radii": ["1"]},
         "system": "z1 + z2; z1 - z2",
         "expect": {"global_index": -1}}, EXACT, None, seed))

    half = {"kind": "polydisc", "center": ["0"], "radii": ["1/2"]}
    shifted = {"kind": "polydisc", "center": ["3"], "radii": ["1/2"]}
    ball_b = {"kind": "ball", "center": ["0", "0"], "radii": ["3/4"]}
    recip = [
        ("reciprocity-worked-pair", disc, half, "z1*(z1 - 3/4)",
         {"lhs": 1, "rhs": 1}),
        ("reciprocity-disjoint", half, shifted, "z1*(z1 - 3)", None),
        ("reciprocity-equal-domains", disc, disc, "z1^2 - 1/4", None),
        ("reciprocity-bidisc-pair", bidisc,
         {"kind": "polydisc", "center": ["0", "0"], "radii": ["1/2", "1/2"]},
         "z1^2; z2^2", None),
        ("reciprocity-ball-vs-bidisc", bidisc, ball_b,
         "z1; z2 - 1/4", None),
        ("reciprocity-shifted-centers", disc,
         {"kind": "polydisc", "center": ["1/4"], "radii": ["1/2"]},
         "z1*(z1 - 1/2)", None),
    ]
    for sid, da, db, text, expect in recip:
        payload = {"domain_a": da, "domain_b": db, "system": text}
        if expect:
            payload["expect"] = expect
        out.append(Scenario(sid, "RECIPROCITY", payload, EXACT, None, seed))

    for n in range(1, 9):
        for m in range(n, 9):
            out.append(Scenario(
                f"identities-{n}-{m}", "IDENTITIES",
                {"n": n, "m": m, "range": 8,
                 "expect": {"left_inverse": True, "binomial_identity": True}},
                EXACT, None, seed))
    return out


# -- argument parsing -------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--backend", choices=[EXACT, FLOAT], default=EXACT,
                        help="scalar backend (default exact)")
    parser.add_argument("--tol", type=float, default=None,
                        help="relative float tolerance (default 1e-9)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker count (default 1 or KOSZUL_INDEX_JOBS)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="seed for the separating-combination generator")
    parser.add_argument("--output", default=None,
                        help="write reports to this path instead of stdout")
    parser.add_argument("--timings", action="store_true",
                        help="include wall-clock fields in reports")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="koszul-index",
        description="Koszul homology, joint spectra and index theorems for "
                    "commuting tuples at desk scale.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run scenarios from a JSON file")
    p.add_argument("scenario_file")
    _add_common(p)

    p = sub.add_parser("verify-all", help="run the bundled verification suites")
    _add_common(p)

    p = sub.add_parser("homology", help="Koszul homology of one tuple")
    p.add_argument("--operators", required=True,
                   help="JSON array of matrices (scalar-string entries)")
    p.add_argument("--cone-with", default=None,
                   help="extra commuting matrix for the cone isomorphism check")
    _add_common(p)

    p = sub.add_parser("spectrum", help="joint eigenvalues and equivalences")
    p.add_argument("--operators", required=True)
    p.add_argument("--at", default=None, help="comma-separated point")
    _add_common(p)

    p = sub.add_parser("multiplicity", help="local multiplicity at a zero")
    p.add_argument("--system", required=True)
    p.add_argument("--variables", type=int, default=None)
    p.add_argument("--at", default=None, help="comma-separated point")
    p.add_argument("--check-diagonal", action="store_true")
    _add_common(p)

    p = sub.add_parser("index", help="global index over a model domain")
    p.add_argument("--domain", required=True, help="JSON domain descriptor")
    p.add_argument("--system", required=True)
    p.add_argument("--variables", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("reciprocity", help="two-domain index pairing")
    p.add_argument("--domain-a", required=True)
    p.add_argument("--domain-b", required=True)
    p.add_argument("--system", required=True)
    p.add_argument("--variables", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("ss", help="spectral sequence of a joined pair")
    p.add_argument("--operators-a", required=True)
    p.add_argument("--operators-b", required=True)
    p.add_argument("--r-max", type=int, default=2)
    _add_common(p)

    p = sub.add_parser("identities", help="binomial transform identities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--range", type=int, default=8)
    _add_common(p)

    return parser


def _jobs_from(args) -> int:
    if args.jobs is not None:
        return max(1, args.jobs)
    env = os.environ.get("KOSZUL_INDEX_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise SchemaError("KOSZUL_INDEX_JOBS must be an integer")
    return 1


def _one_off_scenario(args) -> Scenario:
    scenario = _build_one_off(args)
    _validate_payload(scenario.kind, scenario.payload, scenario.backend)
    return scenario


def _build_one_off(args) -> Scenario:
    command = args.command
    if command == "homology":
        payload = {"operators": json.loads(args.operators)}
        if args.cone_with:
            payload["cone_with"] = json.loads(args.cone_with)
        return Scenario("cli-homology", "HOMOLOGY", payload,
                        args.backend, args.tol, args.seed)
    if command == "spectrum":
        payload = {"operators": json.loads(args.operators)}
        if args.at:
            payload["at"] = args.at
        return Scenario("cli-spectrum", "SPECTRUM", payload,
                        args.backend, args.tol, args.seed)
    if command == "multiplicity":
        payload = {"system": args.system}
        if args.variables:
            payload["variables"] = args.variables
        if args.at:
            payload["at"] = args.at
        if args.check_diagonal:
            payload["check_diagonal"] = True
        return Scenario("cli-multiplicity", "MULTIPLICITY", payload,
                        EXACT, args.tol, args.seed)
    if command == "index":
        payload = {"domain": json.loads(args.domain), "system": args.system}
        if args.variables:
            payload["variables"] = args.variables
        return Scenario("cli-index", "INDEX", payload, EXACT, args.tol, args.seed)
    if command == "reciprocity":
        payload = {"domain_a": json.loads(args.domain_a),
                   "domain_b": json.loads(args.domain_b),
                   "system": args.system}
        if args.variables:
            payload["variables"] = args.variables
        return Scenario("cli-reciprocity", "RECIPROCITY", payload,
                        EXACT, args.tol, args.seed)
    if command == "ss":
        payload = {"operators_a": json.loads(args.operators_a),
                   "operators_b": json.loads(args.operators_b),
                   "r_max": args.r_max}
        return Scenario("cli-ss", "SPECTRAL_SEQUENCE", payload,
                        EXACT, args.tol, args.seed)
    if command == "identities":
        payload = {"n": args.n, "m": args.m, "range": args.range}
        return Scenario("cli-identities", "IDENTITIES", payload,
                        EXACT, args.tol, args.seed)
    raise SchemaError(f"unknown command {command}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        jobs = _jobs_from(args)
        if args.command == "run":
            defaults = Scenario("defaults", "IDENTITIES", {}, args.backend,
                                args.tol, args.seed)
            scenarios = load_scenario_file(args.scenario_file, defaults)
        elif args.command == "verify-all":
            scenarios = builtin_scenarios(args.seed, args.backend)
        else:
            scenarios = [_one_off_scenario(args)]
    except (SchemaError, ParseError, json.JSONDecodeError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    reports = run_all(scenarios, jobs)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                emit_reports(reports, handle, args.timings)
        except OSError as err:
            print(f"error: cannot write output: {err}", file=sys.stderr)
            return 2
    else:
        emit_reports(reports, sys.stdout, args.timings)
    failed = [r for r in reports if not r["pass"]]
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
