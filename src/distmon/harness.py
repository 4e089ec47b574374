"""Scenario ingestion, suite execution, and report serialization.

Scenario files are strict JSON documents: unknown keys are rejected and
every validation failure names the offending key.  A suite run is a pure
function of the scenario document, so two runs emit byte-identical
reports; the document's ``seed`` reaches only the JSON report, which
echoes it and hashes the document.  Exact scalars serialize as integer or
"a/b" strings, never floating point.
"""

from __future__ import annotations

import json
from itertools import combinations, product
from math import comb
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import DistmonError, ParseError, ValidationError
from .exactlin import GradedObject, MONOIDS, sort_universe, unit_object
from .fields import FieldError, PrimeField, RATIONAL
from .distortion import (
    DistortedStructure, check_base, check_D1, check_D2, check_D3, check_D4,
    check_lambda_sigma_commute, classify_scalar_unit_families,
    character_family, graded_character, identity_unit, koszul_braiding,
    symmetric_braiding,
)
from .twist import (
    check_idempotent_axiom, identity_idempotent, parity_projector,
    search_structural_idempotents, twist,
)
from .laxfun import (
    check_lax_axioms, check_laxator_naturality, check_SLambda, check_Ssigma,
    check_triple_strictness, collapse_functor, identity_functor,
    truncation_functor,
)
from .transform import (
    check_horizontal_strictness, check_interchange,
    check_lambda_conjugation, check_monoidal, identity_transformation,
    projection_transformation,
)
from .reports import CheckBudget, CheckReport, Coverage, Witness


# ---------------------------------------------------------------------------
# universe generation


MAX_UNIVERSE = 4096  # objects a generator may produce


def _degree_count(monoid, max_degree: int) -> int:
    """How many degrees, from 0 up, a generator draws supports from."""
    return min(max_degree + 1, monoid.degrees)


def generate_universe(monoid, max_degree: int, max_dim: int,
                      max_support: int) -> tuple[GradedObject, ...]:
    """All dimension tables within the bounds, canonically sorted, unit
    object always included."""
    degrees = range(_degree_count(monoid, max_degree))
    objs = {unit_object(monoid)}
    for size in range(1, min(max_support, len(degrees)) + 1):
        for support in combinations(degrees, size):
            for dims in product(range(1, max_dim + 1), repeat=size):
                objs.add(GradedObject.of(monoid, dict(zip(support, dims))))
    return sort_universe(objs)


# ---------------------------------------------------------------------------
# scenarios: each document field is validated and built in one place


_TOP_KEYS = {
    "field", "grading", "universe", "sigma", "lambda", "braiding",
    "idempotent", "functors", "chain", "transformations",
    "horizontal_chains", "interchange_quadruples", "checks", "seed",
    "samples", "max_tuples",
}
_REQUIRED_KEYS = {"field", "grading", "universe", "checks", "seed"}

# Keys each family kind takes besides "kind".
_BRAIDINGS = {"symmetric": (), "koszul": ()}
_SIGMAS = {**_BRAIDINGS, "twist": ("braiding", "idempotent")}
_IDEMPOTENTS = {"identity": (), "parity_projector": ()}
_UNITS = {"identity": ("name",), "character": ("name", "t"),
          "table": ("name", "values")}
_FUNCTORS = {"identity": ("name",), "truncation": ("name", "bound"),
             "collapse": ("name",)}
_CELLS = {"projection": ("name", "from", "to"),
          "identity": ("name", "functor")}


class _Variant(NamedTuple):
    """The structure built on one unit distortion, with its 1- and 2-cells;
    compared and hashed by reference.

    ``label`` is ``lambda=<name>`` when the document lists several unit
    distortions, else None."""

    label: Optional[str]
    ds: DistortedStructure
    functors: dict
    cells: dict

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class Scenario(NamedTuple):
    """A validated scenario document and the runtime built from it, compared
    and hashed by reference.

    ``variants`` holds one structure per unit distortion (the first is the
    one checks that do not depend on Lambda run on); ``rows`` maps each
    catalog key (``chain``, ``horizontal_chains``,
    ``interchange_quadruples``) to its (label, resolved row) pairs.
    """

    raw: dict
    field: object
    universe: tuple[GradedObject, ...]
    budget: CheckBudget
    variants: tuple[_Variant, ...]
    braiding: object
    idempotent: object
    rows: dict

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    @property
    def seed(self) -> int:
        return self.raw["seed"]

    @property
    def checks(self) -> list[str]:
        return list(self.raw["checks"])


def scenario_hash(scenario: Scenario) -> str:
    import hashlib  # only the JSON report hashes, so the import waits for it
    canon = json.dumps(scenario.raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _expect(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ValidationError(key, message)


def _built(key: str, build: Callable, *args):
    """``build(*args)``, with a construction error reported under ``key``."""
    try:
        return build(*args)
    except (DistmonError, FieldError) as exc:
        raise ValidationError(key, str(exc)) from None


def _int(value, key: str, minimum: int, below: Optional[int] = None) -> int:
    """An integer field in ``[minimum, below)``; booleans are rejected."""
    ok = (isinstance(value, int) and not isinstance(value, bool)
          and value >= minimum and (below is None or value < below))
    bounds = f">= {minimum}" if below is None else f"in [{minimum}, {below})"
    _expect(ok, key, f"must be an integer {bounds}")
    return value


def _scalar(field, value, key: str):
    _expect(isinstance(value, (str, int)) and not isinstance(value, bool), key,
            "must be an exact scalar string or integer")
    return _built(key, field.parse, str(value))


def _name(spec: dict, key: str) -> str:
    name = spec.get("name")
    _expect(isinstance(name, str) and bool(name), f"{key}.name", "is required")
    return name


def _kind(spec, key: str, kinds: dict) -> str:
    """The ``kind`` of an object spec whose other keys all belong to it."""
    _expect(isinstance(spec, dict), key, "must be an object")
    _expect("kind" in spec, f"{key}.kind", "is required")
    kind = spec["kind"]
    _expect(isinstance(kind, str) and kind in kinds, f"{key}.kind",
            f"must be one of {sorted(kinds)}")
    for extra in sorted(set(spec) - {"kind", *kinds[kind]}):
        raise ValidationError(f"{key}.{extra}", "unknown key")
    return kind


def _field(spec):
    if spec == "rational":
        return RATIONAL
    _expect(isinstance(spec, dict) and set(spec) == {"prime"}, "field",
            'must be "rational" or {"prime": p}')
    return _built("field.prime", PrimeField, _int(spec["prime"], "field.prime", 2))


def _table(table, key: str, monoid) -> GradedObject:
    _expect(isinstance(table, dict), key, "must be a degree -> dimension table")
    dims = {}
    for text, dim in table.items():
        entry = f"{key}.{text}"
        text = str(text)
        _expect(text.isascii() and text.isdigit(), entry,
                "degree keys must be nonnegative integers")
        degree = int(text)
        _expect(degree not in dims, entry, "repeats a degree")
        _expect(monoid.valid_degree(degree), entry,
                f"degree {degree} is invalid for the {monoid.kind} grading")
        dims[degree] = _int(dim, entry, 1)
    return GradedObject.of(monoid, dims)


def _universe(spec, monoid) -> tuple[GradedObject, ...]:
    if isinstance(spec, dict):
        bounds = ("max_degree", 0), ("max_dim", 1), ("max_support", 1)
        _expect(set(spec) == {k for k, _ in bounds}, "universe",
                "generator needs exactly max_degree, max_dim, max_support")
        max_degree, max_dim, max_support = (
            _int(spec[k], f"universe.{k}", lo) for k, lo in bounds)
        # sum over support sizes s of C(#degrees, s) * max_dim**s, stopped
        # once past the bound so that huge bounds cost nothing
        n, size = _degree_count(monoid, max_degree), 0
        for s in range(1, min(max_support, n) + 1):
            size += comb(n, s) * max_dim ** s
            if size > MAX_UNIVERSE:
                break
        _expect(size <= MAX_UNIVERSE, "universe",
                f"generator bounds give more than {MAX_UNIVERSE} objects")
        return generate_universe(monoid, max_degree, max_dim, max_support)
    _expect(isinstance(spec, list) and bool(spec), "universe",
            "must be a generator object or a nonempty list of dim tables")
    return sort_universe(_table(table, f"universe[{idx}]", monoid)
                         for idx, table in enumerate(spec))


def _idempotent(spec, key: str, grading: str):
    if _kind(spec, key, _IDEMPOTENTS) == "identity":
        return identity_idempotent()
    _expect(grading == "parity", key, "the parity projector needs parity grading")
    return parity_projector()


def _binary(spec, key: str, grading: str, kinds: dict = _BRAIDINGS):
    kind = _kind(spec, key, kinds)
    if kind == "twist":
        return twist(
            _binary(spec.get("braiding", {}), f"{key}.braiding", grading),
            _idempotent(spec.get("idempotent", {}), f"{key}.idempotent", grading))
    if kind == "koszul":
        _expect(grading == "parity", key,
                "the Koszul sign rule needs parity grading")
        return koszul_braiding()
    return symmetric_braiding()


def _unit(spec, key: str, field):
    kind = _kind(spec, key, _UNITS)
    if kind == "identity":
        return identity_unit()
    if kind == "character":
        _expect("t" in spec, f"{key}.t", "is required for a character")
        return graded_character(_scalar(field, spec["t"], f"{key}.t"))
    values = spec.get("values")
    _expect(isinstance(values, list) and bool(values), f"{key}.values",
            "must be a nonempty list of exact scalars")
    coeffs = [_scalar(field, v, f"{key}.values[{i}]") for i, v in enumerate(values)]
    return _built(f"{key}.values", character_family, field, coeffs)


def _units(doc, field) -> list[tuple[Optional[str], object]]:
    """(label, unit distortion) per declared Lambda family."""
    spec = doc.get("lambda", {"kind": "identity"})
    if not isinstance(spec, list):
        return [(None, _unit(spec, "lambda", field))]
    _expect(bool(spec), "lambda", "must not be an empty list")
    out = []
    names = set()
    for idx, item in enumerate(spec):
        key = f"lambda[{idx}]"
        unit = _unit(item, key, field)
        name = _name(item, key)
        _expect(name not in names, "lambda", "names must be unique")
        names.add(name)
        out.append((f"lambda={name}" if len(spec) > 1 else None, unit))
    return out


def _declared(doc, key: str) -> list:
    specs = doc.get(key, [])
    _expect(isinstance(specs, list), key, "must be a list")
    return specs


def _functors(doc, ds: DistortedStructure) -> dict:
    out = {}
    for idx, spec in enumerate(_declared(doc, "functors")):
        key = f"functors[{idx}]"
        kind = _kind(spec, key, _FUNCTORS)
        name = _name(spec, key)
        _expect(name not in out, "functors", "names must be unique")
        if kind == "truncation":
            bound = _int(spec.get("bound"), f"{key}.bound", 0)
            _expect(ds.monoid.kind == "nat", f"{key}.kind",
                    "truncation needs the nat grading")
            out[name] = truncation_functor(ds, bound)
        elif kind == "collapse":
            out[name] = collapse_functor(ds)
        else:
            out[name] = identity_functor(ds)
    return out


def _functor_ref(spec: dict, key: str, ref: str, functors: dict):
    name = spec.get(ref)
    _expect(isinstance(name, str) and name in functors, f"{key}.{ref}",
            "must name a declared functor")
    return functors[name]


def _cells(doc, functors: dict) -> dict:
    out = {}
    for idx, spec in enumerate(_declared(doc, "transformations")):
        key = f"transformations[{idx}]"
        kind = _kind(spec, key, _CELLS)
        name = _name(spec, key)
        _expect(name not in out, "transformations", "names must be unique")
        if kind == "identity":
            out[name] = identity_transformation(
                _functor_ref(spec, key, "functor", functors))
            continue
        source = _functor_ref(spec, key, "from", functors)
        target = _functor_ref(spec, key, "to", functors)
        _expect(source.info[0] == "truncation", f"{key}.from",
                "must name a truncation functor")
        out[name] = _built(f"{key}.to", projection_transformation, source, target)
    return out


def _row(names, key: str, width: int, table: dict, what: str) -> list:
    _expect(isinstance(names, list) and len(names) == width, key,
            f"must list exactly {width} {what} names")
    for name in names:
        _expect(isinstance(name, str) and name in table, key,
                f"undeclared {what} {name!r}")
    return [table[name] for name in names]


# Whether a functor, or a 2-cell horizontally or vertically, composes
# after another one.

def _follows(inner, outer) -> bool:
    return inner.target is outer.source


def _beside(inner, outer) -> bool:
    return (_follows(inner.source_functor, outer.source_functor)
            and _follows(inner.target_functor, outer.target_functor))


def _stacked(lower, upper) -> bool:
    return lower.target_functor is upper.source_functor


def _rows(doc, variant: _Variant) -> dict:
    """Catalog rows resolved against the first variant's 1- and 2-cells.

    ``chain`` lists f, g, h innermost first and is labelled by its
    composite ``h*g*f``; a 2-cell row is labelled by its names.
    """
    rows = {}
    if "chain" in doc:
        f, g, h = _row(doc["chain"], "chain", 3, variant.functors, "functor")
        _expect(_follows(f, g) and _follows(g, h), "chain",
                "the functors do not compose in this order")
        rows["chain"] = [("*".join(reversed(doc["chain"])), (h, g, f))]
    composable = {
        "horizontal_chains": (3, lambda a, b, c: _beside(a, b) and _beside(b, c)),
        "interchange_quadruples": (4, lambda eta, theta, phi, psi: (
            _stacked(eta, theta) and _stacked(phi, psi)
            and _beside(eta, phi) and _beside(theta, psi))),
    }
    for key, (width, ok) in composable.items():
        if key not in doc:
            continue
        entry = doc[key]
        _expect(isinstance(entry, list) and bool(entry), key,
                "must be a nonempty list")
        rows[key] = []
        for idx, names in enumerate(entry):
            cells = _row(names, f"{key}[{idx}]", width, variant.cells,
                         "transformation")
            _expect(ok(*cells), f"{key}[{idx}]",
                    "the transformations do not compose in this order")
            rows[key].append((",".join(names), tuple(cells)))
    return rows


def scenario_from_dict(doc: dict) -> Scenario:
    """Validate a scenario document and build its runtime; every error is a
    ValidationError naming the offending key."""
    _expect(isinstance(doc, dict), "document", "must be a JSON object")
    for key in sorted(_REQUIRED_KEYS - set(doc)):
        raise ValidationError(key, "is required")
    for key in sorted(set(doc) - _TOP_KEYS):
        raise ValidationError(key, "unknown key")

    field = _field(doc["field"])
    grading = doc["grading"]
    _expect(isinstance(grading, str) and grading in MONOIDS, "grading",
            'must be "trivial", "parity" or "nat"')
    monoid = MONOIDS[grading]
    universe = _universe(doc["universe"], monoid)
    budget = CheckBudget(
        max_object_tuples=_int(doc.get("max_tuples", 4096), "max_tuples", 1))
    # ``samples`` and ``seed`` change no report byte beyond the JSON echo of
    # the document, but stay validated: existing documents carry them
    _int(doc.get("samples", 3), "samples", 1)
    _int(doc["seed"], "seed", 0, 2 ** 64)

    checks = doc["checks"]
    _expect(isinstance(checks, list) and bool(checks), "checks",
            "must be a nonempty list of axiom ids")
    for c in checks:
        _expect(isinstance(c, str) and c in CHECKS, "checks",
                f"unknown check id {c!r}")

    sigma = _binary(doc.get("sigma", {"kind": "symmetric"}), "sigma", grading,
                    _SIGMAS)
    braiding = _binary(doc["braiding"], "braiding", grading) \
        if "braiding" in doc else None
    idempotent = _idempotent(doc["idempotent"], "idempotent", grading) \
        if "idempotent" in doc else None
    variants = []
    for label, lam in _units(doc, field):
        ds = DistortedStructure(field, monoid, universe, sigma, lam)
        functors = _functors(doc, ds)
        variants.append(_Variant(label, ds, functors, _cells(doc, functors)))

    for c in checks:
        check = CHECKS[c]
        for key in check.requires:
            _expect(bool(doc.get(key)), key, f"is required by the {c} check")
        _expect(grading in check.gradings, "grading",
                f"the {c} check runs on the {' or '.join(check.gradings)} grading")

    return Scenario(doc, field, universe, budget, tuple(variants), braiding,
                    idempotent, _rows(doc, variants[0]))


def load_scenario(path) -> Scenario:
    try:
        handle = open(path, "r", encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise ParseError(f"cannot read scenario file: {exc}") from None
    with handle:
        try:
            doc = json.load(handle)
        except OSError as exc:
            raise ParseError(f"cannot read scenario file: {exc}") from None
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, too long
            raise ParseError(f"scenario file is not valid JSON: {exc}") from None
    return scenario_from_dict(doc)


# ---------------------------------------------------------------------------
# the check table


class Check(NamedTuple):
    """One check id: its checker, the targets it runs on, and what it needs.

    ``run(target, scenario)`` returns a CheckReport (for the search scope,
    a SearchReport).  ``scope`` names the targets (see ``_SCOPES``); with
    ``per_lambda`` the check runs on every Lambda variant instead of the
    first.  ``requires`` lists document keys that must be present and
    nonempty (for the row scope the first of them names the rows);
    ``gradings`` the gradings the check is defined on.
    """

    run: Callable
    scope: str = "structure"
    per_lambda: bool = False
    requires: tuple[str, ...] = ()
    gradings: tuple[str, ...] = tuple(MONOIDS)


def _classify(field) -> CheckReport:
    result = classify_scalar_unit_families(field)
    shown = "[" + ", ".join(field.fmt(c) for c in result) + "]"
    cov = Coverage(1, note=f"surviving scalars: {shown}")
    return CheckReport("classify", "pass" if result == [field.one] else "fail", cov)


def _twist_check(axiom: str, *requires: str) -> Check:
    return Check(lambda _, sc: check_idempotent_axiom(
        sc.field, sc.idempotent, axiom, sc.universe, sc.budget,
        beta=sc.braiding), requires=("idempotent", *requires))


# Checkers are called through lambdas so that each call looks the checker
# up in this module's namespace, where instrumentation may have wrapped it.
CHECKS: dict[str, Check] = {
    "base": Check(lambda _, sc: check_base(sc.field, sc.universe, sc.budget)),
    "D1": Check(lambda v, sc: check_D1(v.ds, sc.budget)),
    "D2": Check(lambda v, sc: check_D2(v.ds, sc.budget), per_lambda=True),
    "D3": Check(lambda v, sc: check_D3(v.ds, sc.budget)),
    "D4": Check(lambda v, sc: check_D4(v.ds, sc.budget), per_lambda=True),
    "lambda_sigma": Check(lambda v, sc: check_lambda_sigma_commute(v.ds, sc.budget),
                          per_lambda=True),
    "classify": Check(lambda _, sc: _classify(sc.field), gradings=("trivial",)),
    "E0": _twist_check("E0"),
    "E1": _twist_check("E1"),
    "E2L": _twist_check("E2L"),
    "E2R": _twist_check("E2R"),
    "E2L_cocycle": _twist_check("E2L_cocycle"),
    "E2R_cocycle": _twist_check("E2R_cocycle"),
    "BL": _twist_check("BL", "braiding"),
    "BR": _twist_check("BR", "braiding"),
    "search_idempotents": Check(
        lambda _, sc: search_structural_idempotents(sc.field, sc.braiding,
                                                    sc.universe, sc.budget),
        scope="search row", requires=("braiding",), gradings=("parity",)),
    "lax": Check(lambda f, sc: check_lax_axioms(f, sc.budget), scope="functor",
                 requires=("functors",)),
    "SLambda": Check(lambda f, sc: check_SLambda(f, sc.budget), scope="functor",
                     per_lambda=True, requires=("functors",)),
    "Ssigma": Check(lambda f, sc: check_Ssigma(f, sc.budget), scope="functor",
                    requires=("functors",)),
    "laxator_naturality": Check(
        lambda f, sc: check_laxator_naturality(f, sc.budget), scope="functor",
        requires=("functors",)),
    "triple_strictness": Check(
        lambda row, sc: check_triple_strictness(*row, sc.budget), scope="row",
        requires=("chain",)),
    "monoidal": Check(lambda c, sc: check_monoidal(c, sc.budget), scope="cell",
                      requires=("transformations",)),
    "lambda_conjugation": Check(
        lambda c, sc: check_lambda_conjugation(c, sc.budget), scope="cell",
        per_lambda=True, requires=("transformations",)),
    "interchange": Check(lambda row, sc: check_interchange(*row, sc.budget),
                         scope="row", requires=("interchange_quadruples",)),
    "horizontal_strictness": Check(
        lambda _, sc: check_horizontal_strictness(
            [row for _, row in sc.rows["horizontal_chains"]], sc.budget),
        requires=("horizontal_chains",)),
}


# A scope yields (report, label parts) per target, lazily, so that a
# fail-fast run stops before the next target is checked.  Functor and cell
# labels name the Lambda variant the cell was built on whenever the
# document lists several.


def _variants(check: Check, sc: Scenario):
    return sc.variants if check.per_lambda else sc.variants[:1]


def _on_structure(check: Check, sc: Scenario):
    for v in _variants(check, sc):
        yield check.run(v, sc), (v.label if check.per_lambda else None,)


def _on_each(attr: str):
    def scope(check: Check, sc: Scenario):
        for v in _variants(check, sc):
            for name, target in getattr(v, attr).items():
                yield check.run(target, sc), (name, v.label)
    return scope


def _on_rows(check: Check, sc: Scenario):
    for label, row in sc.rows[check.requires[0]]:
        yield check.run(row, sc), (label,)


def _on_search_rows(check: Check, sc: Scenario):
    for row in check.run(sc.variants[0], sc).rows:
        for report in row.reports:
            yield report, (f"c11={row.odd_odd_coefficient}",)


_SCOPES = {
    "structure": _on_structure,
    "functor": _on_each("functors"),
    "cell": _on_each("cells"),
    "row": _on_rows,
    "search row": _on_search_rows,
}


def _decorate(report: CheckReport, *parts: Optional[str]) -> CheckReport:
    bits = [p for p in parts if p]
    if not bits:
        return report
    return report.relabel(f"{report.axiom}[{','.join(bits)}]")


def run_suite(scenario: Scenario, fail_fast: bool = False) -> list[CheckReport]:
    """Execute the requested checks in declared order; deterministic for a
    fixed scenario document."""
    reports: list[CheckReport] = []
    for check_id in scenario.checks:
        check = CHECKS[check_id]
        for report, parts in _SCOPES[check.scope](check, scenario):
            reports.append(_decorate(report, *parts))
            if fail_fast and report.verdict == "fail":
                return reports
    return reports


# ---------------------------------------------------------------------------
# serialization


def _object_doc(obj: GradedObject) -> dict:
    return {str(d): k for d, k in obj.dims}


def _blocks_doc(field, graded) -> dict:
    return {
        str(d): [[field.fmt(v) for v in row] for row in block]
        for d, block in graded.dense_blocks()
    }


def _witness_doc(field, w: Witness) -> dict:
    return {
        "objects": [_object_doc(o) for o in w.objects],
        "factor_degrees": list(w.factor_degrees),
        "block_degree": w.block_degree,
        "entry": [w.row, w.col],
        "left_value": field.fmt(w.left_value),
        "right_value": field.fmt(w.right_value),
        "left_blocks": _blocks_doc(field, w.left_map),
        "right_blocks": _blocks_doc(field, w.right_map),
    }


def report_document(scenario: Scenario, reports: Sequence[CheckReport]) -> dict:
    checks = []
    for r in reports:
        cov = {
            "object_tuples": r.coverage.object_tuples,
            "sampled_maps": r.coverage.sampled_maps,
            "note": r.coverage.note,
        }
        checks.append({
            "axiom": r.axiom,
            "verdict": r.verdict,
            "coverage": cov,
            "witness": _witness_doc(scenario.field, r.witness) if r.witness else None,
        })
    return {
        "scenario_hash": scenario_hash(scenario),
        "seed": scenario.seed,
        "checks": checks,
    }


def _witness_text(field, w: Witness) -> list[str]:
    lines = [
        "    objects: " + ", ".join(str(o) for o in w.objects),
        f"    factor degrees: {w.factor_degrees}  block degree: {w.block_degree}"
        f"  entry: ({w.row}, {w.col})",
        f"    left value: {field.fmt(w.left_value)}"
        f"  right value: {field.fmt(w.right_value)}",
    ]
    lb = w.left_map.block(w.block_degree)
    rb = w.right_map.block(w.block_degree)

    def fmt_block(block):
        if block is None:
            return "0"
        return "[" + "; ".join(
            " ".join(field.fmt(v) for v in row) for row in block
        ) + "]"

    lines.append(f"    left block:  {fmt_block(lb)}")
    lines.append(f"    right block: {fmt_block(rb)}")
    return lines


def emit_report(scenario: Scenario, reports: Sequence[CheckReport],
                fmt: str = "text") -> str:
    if fmt == "json":
        doc = report_document(scenario, reports)
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    lines = []
    for r in reports:
        cov = f"tuples={r.coverage.object_tuples}"
        if r.coverage.sampled_maps:
            cov += f" maps={r.coverage.sampled_maps}"
        tag = "PASS" if r.passed else "FAIL"
        note = f"  ({r.coverage.note})" if r.coverage.note else ""
        lines.append(f"[{tag}] {r.axiom}  {cov}{note}")
        if r.witness is not None:
            lines.extend(_witness_text(scenario.field, r.witness))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# builtin catalog


_SEED = 20260811


def _builtin_docs() -> list[tuple[str, dict]]:
    parity_universe = {"max_degree": 1, "max_dim": 1, "max_support": 2}
    nat_universe = {"max_degree": 2, "max_dim": 1, "max_support": 2}
    docs = [
        ("example-5-1", {
            "field": "rational", "grading": "parity",
            "universe": parity_universe,
            "sigma": {"kind": "koszul"},
            "lambda": {"kind": "identity"},
            "checks": ["D1", "D2", "D3", "D4"],
            "seed": _SEED, "samples": 2,
        }),
        ("example-5-3", {
            "field": "rational", "grading": "parity",
            "universe": parity_universe,
            "braiding": {"kind": "koszul"},
            "idempotent": {"kind": "parity_projector"},
            "checks": ["E0", "E1", "E2L_cocycle", "E2R_cocycle",
                       "E2L", "E2R", "BL", "BR"],
            "seed": _SEED, "samples": 2,
        }),
        ("example-5-4", {
            "field": "rational", "grading": "nat",
            "universe": nat_universe,
            "sigma": {"kind": "symmetric"},
            "lambda": [
                {"name": "t=0", "kind": "character", "t": "0"},
                {"name": "t=2", "kind": "character", "t": "2"},
                {"name": "t=-1", "kind": "character", "t": "-1"},
            ],
            "checks": ["D4"],
            "seed": _SEED, "samples": 2,
        }),
        ("example-5-5", {
            "field": "rational", "grading": "nat",
            "universe": nat_universe,
            "sigma": {"kind": "symmetric"},
            "lambda": {"kind": "table", "values": ["1", "1", "0"]},
            "checks": ["D4"],
            "seed": _SEED, "samples": 2,
        }),
        ("prop-6-2", {
            "field": "rational", "grading": "trivial",
            "universe": {"max_degree": 0, "max_dim": 2, "max_support": 1},
            "checks": ["classify"],
            "seed": _SEED,
        }),
        ("remark-2-3", {
            "field": "rational", "grading": "nat",
            "universe": nat_universe,
            "sigma": {"kind": "symmetric"},
            "lambda": [
                {"name": "t=2", "kind": "character", "t": "2"},
                {"name": "t=1", "kind": "character", "t": "1"},
            ],
            "functors": [{"name": "U", "kind": "collapse"}],
            "checks": ["SLambda"],
            "seed": _SEED, "samples": 2,
        }),
        ("thm-4-1", {
            "field": "rational", "grading": "nat",
            "universe": nat_universe,
            "sigma": {"kind": "symmetric"},
            "lambda": {"kind": "identity"},
            "functors": [
                {"name": "tau1", "kind": "truncation", "bound": 1},
                {"name": "tau2", "kind": "truncation", "bound": 2},
                {"name": "tau3", "kind": "truncation", "bound": 3},
                {"name": "U", "kind": "collapse"},
            ],
            "chain": ["tau2", "tau1", "U"],
            "transformations": [
                {"name": "eta", "kind": "projection", "from": "tau3", "to": "tau2"},
                {"name": "theta", "kind": "projection", "from": "tau2", "to": "tau1"},
                {"name": "phi", "kind": "projection", "from": "tau3", "to": "tau2"},
                {"name": "psi", "kind": "projection", "from": "tau2", "to": "tau1"},
                {"name": "idU", "kind": "identity", "functor": "U"},
            ],
            "interchange_quadruples": [["eta", "theta", "phi", "psi"]],
            "horizontal_chains": [["theta", "psi", "idU"],
                                  ["eta", "theta", "psi"]],
            "checks": ["lax", "SLambda", "Ssigma", "triple_strictness",
                       "monoidal", "interchange", "horizontal_strictness"],
            "seed": _SEED, "samples": 2,
        }),
        ("search-parity-idempotents", {
            "field": "rational", "grading": "parity",
            "universe": parity_universe,
            "braiding": {"kind": "koszul"},
            "checks": ["search_idempotents"],
            "seed": _SEED, "samples": 2,
        }),
    ]
    return docs


def builtin_examples() -> list[tuple[str, Scenario]]:
    return [(name, scenario_from_dict(doc)) for name, doc in _builtin_docs()]


GOLDEN: dict[str, tuple[tuple[str, str], ...]] = {
    "example-5-1": (
        ("D1", "pass"), ("D2", "pass"), ("D3", "pass"), ("D4", "pass"),
    ),
    "example-5-3": (
        ("E0", "pass"), ("E1", "pass"),
        ("E2L_cocycle", "pass"), ("E2R_cocycle", "pass"),
        ("E2L", "fail"), ("E2R", "fail"),
        ("BL", "fail"), ("BR", "fail"),
    ),
    "example-5-4": (
        ("D4[lambda=t=0]", "pass"), ("D4[lambda=t=2]", "pass"),
        ("D4[lambda=t=-1]", "pass"),
    ),
    "example-5-5": (
        ("D4", "fail"),
    ),
    "prop-6-2": (
        ("classify", "pass"),
    ),
    "remark-2-3": (
        ("SLambda[U,lambda=t=2]", "fail"), ("SLambda[U,lambda=t=1]", "pass"),
    ),
    "thm-4-1": (
        ("lax[tau1]", "pass"), ("lax[tau2]", "pass"), ("lax[tau3]", "pass"),
        ("lax[U]", "pass"),
        ("SLambda[tau1]", "pass"), ("SLambda[tau2]", "pass"),
        ("SLambda[tau3]", "pass"), ("SLambda[U]", "pass"),
        ("Ssigma[tau1]", "pass"), ("Ssigma[tau2]", "pass"),
        ("Ssigma[tau3]", "pass"), ("Ssigma[U]", "pass"),
        ("triple_strictness[U*tau1*tau2]", "pass"),
        ("monoidal[eta]", "pass"), ("monoidal[theta]", "pass"),
        ("monoidal[phi]", "pass"), ("monoidal[psi]", "pass"),
        ("monoidal[idU]", "pass"),
        ("interchange[eta,theta,phi,psi]", "pass"),
        ("horizontal_strictness", "pass"),
    ),
    "search-parity-idempotents": (
        ("E0[c11=0]", "pass"), ("E1[c11=0]", "pass"),
        ("E2L[c11=0]", "fail"), ("E2R[c11=0]", "fail"),
        ("E2L_cocycle[c11=0]", "pass"), ("E2R_cocycle[c11=0]", "pass"),
        ("BL[c11=0]", "fail"), ("BR[c11=0]", "fail"),
        ("E0[c11=1]", "pass"), ("E1[c11=1]", "pass"),
        ("E2L[c11=1]", "pass"), ("E2R[c11=1]", "pass"),
        ("E2L_cocycle[c11=1]", "pass"), ("E2R_cocycle[c11=1]", "pass"),
        ("BL[c11=1]", "pass"), ("BR[c11=1]", "pass"),
    ),
}


def run_examples(fmt: str = "text", seed: Optional[int] = None) -> tuple[str, bool]:
    """Run the builtin catalog against its expected-verdict table."""
    sections = []
    all_match = True
    for name, doc in _builtin_docs():
        if seed is not None:
            doc["seed"] = seed
        scenario = scenario_from_dict(doc)
        reports = run_suite(scenario)
        got = tuple((r.axiom, r.verdict) for r in reports)
        match = got == GOLDEN[name]
        all_match = all_match and match
        if fmt == "json":
            sections.append({
                "name": name,
                "report": report_document(scenario, reports),
                "golden_match": match,
            })
        else:
            head = f"== {name}: " + ("golden table matched"
                                     if match else "GOLDEN MISMATCH")
            sections.append(head + "\n" + emit_report(scenario, reports, "text"))
    if fmt == "json":
        doc = {"catalog": sections, "all_match": all_match}
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n", all_match
    return "\n".join(sections), all_match
