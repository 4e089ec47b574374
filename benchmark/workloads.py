"""Workload definitions owned by the benchmark.

Everything the benchmark checks the program against lives here: the
scenario documents of each workload, the expected verdict of every check
label, and the quantifier-range table used for coverage accounting.  None
of it is imported from ``distmon``, so a change to the program cannot
silently change what the benchmark expects.
"""

from __future__ import annotations

import copy
from math import comb

# Fixed per-process pass structure: one cold pass, then this many warm
# passes.  Fixed so that ``peak_rss_mb`` compares like with like.
WARM_PASSES = {"hexagon-q": 1, "naturality-fp": 1, "catalog": 3}

_PRIME = 2147483647

_HEXAGON_Q = [
    ("hexagon-q/A", {
        "field": "rational", "grading": "nat",
        "universe": {"max_degree": 3, "max_dim": 1, "max_support": 2},
        "sigma": {"kind": "symmetric"},
        "lambda": {"kind": "character", "t": "2"},
        "checks": ["base", "D3", "D4", "lambda_sigma"],
    }),
    ("hexagon-q/B", {
        "field": "rational", "grading": "parity",
        "universe": {"max_degree": 1, "max_dim": 2, "max_support": 2},
        "braiding": {"kind": "koszul"},
        "idempotent": {"kind": "parity_projector"},
        "checks": ["E2L_cocycle", "E2R_cocycle", "E2L", "E2R", "BL", "BR"],
    }),
]

_NATURALITY_FP = [
    ("naturality-fp", {
        "field": {"prime": _PRIME}, "grading": "nat",
        "universe": {"max_degree": 2, "max_dim": 2, "max_support": 1},
        "sigma": {"kind": "symmetric"},
        "lambda": {"kind": "character", "t": "3"},
        "functors": [
            {"name": "tau1", "kind": "truncation", "bound": 1},
            {"name": "U", "kind": "collapse"},
        ],
        "checks": ["D1", "laxator_naturality"],
        "samples": 3,
    }),
]

# The builtin catalog's scenarios, copied so that witnesses can be replayed
# and quantifier ranges computed without reading the program's own tables.
_PARITY_U = {"max_degree": 1, "max_dim": 1, "max_support": 2}
_NAT_U = {"max_degree": 2, "max_dim": 1, "max_support": 2}
_CATALOG = [
    ("example-5-1", {
        "field": "rational", "grading": "parity", "universe": _PARITY_U,
        "sigma": {"kind": "koszul"}, "lambda": {"kind": "identity"},
        "checks": ["D1", "D2", "D3", "D4"], "samples": 2,
    }),
    ("example-5-3", {
        "field": "rational", "grading": "parity", "universe": _PARITY_U,
        "braiding": {"kind": "koszul"},
        "idempotent": {"kind": "parity_projector"},
        "checks": ["E0", "E1", "E2L_cocycle", "E2R_cocycle",
                   "E2L", "E2R", "BL", "BR"],
        "samples": 2,
    }),
    ("example-5-4", {
        "field": "rational", "grading": "nat", "universe": _NAT_U,
        "sigma": {"kind": "symmetric"},
        "lambda": [
            {"name": "t=0", "kind": "character", "t": "0"},
            {"name": "t=2", "kind": "character", "t": "2"},
            {"name": "t=-1", "kind": "character", "t": "-1"},
        ],
        "checks": ["D4"], "samples": 2,
    }),
    ("example-5-5", {
        "field": "rational", "grading": "nat", "universe": _NAT_U,
        "sigma": {"kind": "symmetric"},
        "lambda": {"kind": "table", "values": ["1", "1", "0"]},
        "checks": ["D4"], "samples": 2,
    }),
    ("prop-6-2", {
        "field": "rational", "grading": "trivial",
        "universe": {"max_degree": 0, "max_dim": 2, "max_support": 1},
        "checks": ["classify"],
    }),
    ("remark-2-3", {
        "field": "rational", "grading": "nat", "universe": _NAT_U,
        "sigma": {"kind": "symmetric"},
        "lambda": [
            {"name": "t=2", "kind": "character", "t": "2"},
            {"name": "t=1", "kind": "character", "t": "1"},
        ],
        "functors": [{"name": "U", "kind": "collapse"}],
        "checks": ["SLambda"], "samples": 2,
    }),
    ("thm-4-1", {
        "field": "rational", "grading": "nat", "universe": _NAT_U,
        "sigma": {"kind": "symmetric"}, "lambda": {"kind": "identity"},
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
        "horizontal_chains": [["theta", "psi", "idU"], ["eta", "theta", "psi"]],
        "checks": ["lax", "SLambda", "Ssigma", "triple_strictness",
                   "monoidal", "interchange", "horizontal_strictness"],
        "samples": 2,
    }),
    ("search-parity-idempotents", {
        "field": "rational", "grading": "parity", "universe": _PARITY_U,
        "braiding": {"kind": "koszul"},
        "checks": ["search_idempotents"], "samples": 2,
    }),
]

_SCENARIOS = {
    "hexagon-q": _HEXAGON_Q,
    "naturality-fp": _NATURALITY_FP,
    "catalog": _CATALOG,
}


_P, _F = "pass", "fail"

# Expected verdict of every check label, per scenario, in report order.
# The catalog rows are the paper's verdict table.
EXPECTED = {
    "hexagon-q/A": {
        "base": _P, "D3": _P, "D4": _P, "lambda_sigma": _P,
    },
    "hexagon-q/B": {
        "E2L_cocycle": _P, "E2R_cocycle": _P, "E2L": _F, "E2R": _F, "BL": _F,
        "BR": _F,
    },
    "naturality-fp": {
        "D1": _P, "laxator_naturality[tau1]": _P, "laxator_naturality[U]": _P,
    },
    "example-5-1": {
        "D1": _P, "D2": _P, "D3": _P, "D4": _P,
    },
    "example-5-3": {
        "E0": _P, "E1": _P, "E2L_cocycle": _P, "E2R_cocycle": _P, "E2L": _F,
        "E2R": _F, "BL": _F, "BR": _F,
    },
    "example-5-4": {
        "D4[lambda=t=0]": _P, "D4[lambda=t=2]": _P, "D4[lambda=t=-1]": _P,
    },
    "example-5-5": {
        "D4": _F,
    },
    "prop-6-2": {
        "classify": _P,
    },
    "remark-2-3": {
        "SLambda[U,lambda=t=2]": _F, "SLambda[U,lambda=t=1]": _P,
    },
    "thm-4-1": {
        "lax[tau1]": _P, "lax[tau2]": _P, "lax[tau3]": _P, "lax[U]": _P,
        "SLambda[tau1]": _P, "SLambda[tau2]": _P, "SLambda[tau3]": _P,
        "SLambda[U]": _P, "Ssigma[tau1]": _P, "Ssigma[tau2]": _P,
        "Ssigma[tau3]": _P, "Ssigma[U]": _P,
        "triple_strictness[U*tau1*tau2]": _P, "monoidal[eta]": _P,
        "monoidal[theta]": _P, "monoidal[phi]": _P, "monoidal[psi]": _P,
        "monoidal[idU]": _P, "interchange[eta,theta,phi,psi]": _P,
        "horizontal_strictness": _P,
    },
    "search-parity-idempotents": {
        "E0[c11=0]": _P, "E1[c11=0]": _P, "E2L[c11=0]": _F, "E2R[c11=0]": _F,
        "E2L_cocycle[c11=0]": _P, "E2R_cocycle[c11=0]": _P, "BL[c11=0]": _F,
        "BR[c11=0]": _F, "E0[c11=1]": _P, "E1[c11=1]": _P, "E2L[c11=1]": _P,
        "E2R[c11=1]": _P, "E2L_cocycle[c11=1]": _P, "E2R_cocycle[c11=1]": _P,
        "BL[c11=1]": _P, "BR[c11=1]": _P,
    },
}

# Quantifier range of every check id that has a tuple cap, as exponents k
# of |U|: the range is the sum of |U|**k.  base = triangle pairs plus
# pentagon quadruples; E0 = idempotency pairs plus binaturality quadruples;
# lax = unit-triangle objects plus pentagon triples; monoidal = pairs plus
# the unit square.
RANGE_EXPONENTS = {
    "base": (2, 4),
    "D1": (4,), "D3": (3,), "D4": (2,), "lambda_sigma": (2,),
    "E0": (2, 4),
    "E2L": (3,), "E2R": (3,), "E2L_cocycle": (3,), "E2R_cocycle": (3,),
    "BL": (3,), "BR": (3,),
    "lax": (1, 3), "Ssigma": (2,), "laxator_naturality": (4,),
    "monoidal": (2, 0),
}


def workload_names():
    return list(_SCENARIOS)


def scenario_docs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """The workload's scenario documents, each carrying ``seed``."""
    out = []
    for name, doc in _SCENARIOS[workload]:
        doc = copy.deepcopy(doc)
        doc["seed"] = seed
        out.append((name, doc))
    return out


def check_id(label: str) -> str:
    """``D4[lambda=t=2]`` -> ``D4``."""
    return label.split("[", 1)[0]


def universe_size(doc: dict) -> int:
    """|U| of a scenario document, counted independently of the program.

    A generator yields every table with at most ``max_support`` degrees and
    dimensions up to ``max_dim``; the unit object {0: 1} is among them.
    """
    spec = doc["universe"]
    if isinstance(spec, list):
        return len({tuple(sorted((int(d), k) for d, k in t.items())) for t in spec})
    degrees = {"trivial": 1, "parity": min(spec["max_degree"], 1) + 1,
               "nat": spec["max_degree"] + 1}[doc["grading"]]
    dim, support = spec["max_dim"], spec["max_support"]
    return sum(comb(degrees, s) * dim ** s
               for s in range(1, min(support, degrees) + 1))


def quantifier_range(check: str, size: int):
    """Size of the quantifier range of a capped check, or None."""
    exps = RANGE_EXPONENTS.get(check)
    if exps is None:
        return None
    return sum(size ** k for k in exps)
