"""Answer checks for the benchmark's requests, independent of quadbook's code.

Each oracle takes the case from ``gen`` and the request's outcome, a mapping
from command name to ``(exit code, parsed structured report or None)``, and
returns the list of reasons it rejects the answer; an empty list accepts it.
Homology is compared through plain dictionaries built here from the report's
own rows, never through the package's types.
"""

from __future__ import annotations

import gen


def table(rows) -> dict[int, tuple[int, tuple[int, ...]]]:
    """A structured homology table as {degree: (rank, torsion)}, zero rows dropped."""
    return {row["degree"]: (row["rank"], tuple(row["torsion"]))
            for row in rows if row["rank"] or row["torsion"]}


def sphere_product_ranks(dims) -> dict[int, int]:
    ranks = {0: 1}
    for d in dims:
        sphere = {0: 2} if d == 0 else {0: 1, d: 1}
        nxt: dict[int, int] = {}
        for deg, r in ranks.items():
            for sd, sr in sphere.items():
                nxt[deg + sd] = nxt.get(deg + sd, 0) + r * sr
        ranks = nxt
    return ranks


def formula_table(description: dict) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Free homology of classify's symbolic type: a sphere product or a connected sum."""
    summands = description["summands"]
    if description["kind"] == "sphere-product":
        ranks = sphere_product_ranks(summands[0])
    else:
        top = sum(summands[0])
        ranks = {0: 1, top: 1}
        for dims in summands:
            for deg, r in sphere_product_ranks(dims).items():
                if 0 < deg < top:
                    ranks[deg] = ranks.get(deg, 0) + r
    return {d: (r, ()) for d, r in ranks.items() if r}


def _exit_codes(outcome, expected: dict[str, int]) -> list[str]:
    return [f"{cmd}: exit {outcome[cmd][0]}, expected {code}"
            for cmd, code in expected.items() if outcome[cmd][0] != code]


def k2_session(case, outcome) -> list[str]:
    bad = _exit_codes(outcome, {c: 0 for c in outcome})
    if bad:
        return bad
    check, classify, homology, book, dual = (outcome[c][1] for c in
                                             ("check", "classify", "homology", "open-book",
                                              "dual-complex"))
    if check["ok"] is not True:
        bad.append("check: a weakly hyperbolic construction was rejected")
    if classify["normal_form"] != case["expect"]["normal_form"]:
        bad.append(f"classify: normal form {classify['normal_form']}, "
                   f"generated {case['expect']['normal_form']}")
    expected = formula_table(classify["complex"])
    got = table(homology["spaces"]["ZC"]["table"])
    if got != expected:
        bad.append(f"homology: H(Z^C) {got} differs from the classify formula {expected}")
    for item in book["consistency"]:
        if item["status"] not in ("pass", "skip"):
            bad.append(f"open-book: consistency check {item['name']} is {item['status']}")
    if dual["void"]:
        bad.append("dual-complex: void for a configuration with three or more classes")
    return bad


def dense_k34(case, outcome) -> list[str]:
    bad = _exit_codes(outcome, {c: 0 for c in outcome})
    if bad:
        return bad
    check, homology = outcome["check"][1], outcome["homology"][1]
    if check["ok"] is not True:
        bad.append("check: a general-position configuration was rejected")
    doc = case["doc"]
    top = 2 * doc["n"] - doc["k"] - 1
    zc = table(homology["spaces"]["ZC"]["table"])
    if zc.get(0) != (1, ()) or zc.get(top) != (1, ()):
        bad.append(f"homology: H(Z^C) needs Z in degrees 0 and {top}, got {zc}")
    for d in range(top + 1):
        rank, torsion = zc.get(d, (0, ()))
        if rank != zc.get(top - d, (0, ()))[0]:
            bad.append(f"homology: Poincare duality fails on ranks in degree {d}")
        if torsion != zc.get(top - d - 1, (0, ()))[1]:
            bad.append(f"homology: Poincare duality fails on torsion in degree {d}")
    z = table(homology["spaces"]["Z"]["table"])
    chi = sum((-1) ** d * rank for d, (rank, _) in z.items())
    if chi != homology["euler"]:
        bad.append(f"homology: chi(Z) = {chi} from the table, euler reports {homology['euler']}")
    return bad


def screen_large_n(case, outcome) -> list[str]:
    doc = case["doc"]
    k, vectors = doc["k"], doc["lambdas"]
    pair = case["expect"]["planted"]
    bad = _exit_codes(outcome, {"check": 0 if pair is None else 2})
    if bad:
        return bad
    report = outcome["check"][1]
    if pair is None:
        if not gen.general_position(vectors, k):
            bad.append("generator: the clean configuration is not in general position")
        if report["ok"] is not True:
            bad.append(f"check: general-position input rejected, witness {report.get('witness')}")
        return bad
    a, b = pair
    if not gen.general_position(vectors[:b - 1] + vectors[b:], k):
        bad.append("generator: the vectors besides the planted one are not in general position")
    expected = gen.expected_witness(a, b, k)
    if report["ok"] is not False or report.get("witness") != expected:
        bad.append(f"check: witness {report.get('witness')}, expected {expected}")
    return bad


ORACLES = {"k2-session": k2_session, "dense-k34": dense_k34, "screen-large-n": screen_large_n}
