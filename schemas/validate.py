#!/usr/bin/env python3
"""Validate BENCH_<name>.json against schemas/BENCH_<name>.schema.json.

    python3 schemas/validate.py <analog|fault|profile|repro|sta>

Run from the repository root, after the bench bin that writes the
report. The shape check is a dependency-free subset of JSON Schema
draft-07: type (one name or a list), required, properties,
additionalProperties, items, minItems, const, minimum, exclusiveMinimum,
exclusiveMaximum, allOf and local "#/..." $ref. A schema that uses any other keyword or type is
rejected rather than half-checked. Then each report's run-level
invariants, the ones its bin asserts, are checked again so a stale or
hand-edited report fails too. Exits non-zero on the first violation.
"""

import json
import operator
import sys

KEYWORDS = {
    "type", "required", "properties", "additionalProperties", "items", "minItems",
    "const", "minimum", "exclusiveMinimum", "exclusiveMaximum", "allOf", "$ref",
}
# Keywords that constrain nothing ("definitions" only holds $ref targets).
ANNOTATIONS = {"$schema", "$id", "title", "description", "definitions"}
TYPES = {"object", "array", "integer", "number", "string", "boolean", "null"}


def check_keywords(sch, path="#"):
    """Rejects a keyword or type `check` does not implement, anywhere."""
    unknown = set(sch) - KEYWORDS - ANNOTATIONS
    assert not unknown, f"{path}: unsupported schema keyword(s) {sorted(unknown)}"
    types = sch.get("type", "object")
    types = types if isinstance(types, list) else [types]
    assert set(types) <= TYPES, f"{path}: unsupported type {sch['type']!r}"
    for key in ("properties", "definitions"):
        for name, sub in sch.get(key, {}).items():
            check_keywords(sub, f"{path}/{key}/{name}")
    for key in ("items", "additionalProperties"):
        if isinstance(sch.get(key), dict):
            check_keywords(sch[key], f"{path}/{key}")
    for i, sub in enumerate(sch.get("allOf", [])):
        check_keywords(sub, f"{path}/allOf/{i}")


def kind_of(inst):
    """The JSON type name of a parsed value (an integer is also a number)."""
    if inst is None:
        return "null"
    for kind, py in (("boolean", bool), ("integer", int), ("number", float), ("string", str),
                     ("array", list), ("object", dict)):
        if isinstance(inst, py):
            return kind
    raise AssertionError(f"not a JSON value: {inst!r}")


def check(inst, sch, root, path="$"):
    if "$ref" in sch:
        node = root
        for part in sch["$ref"].lstrip("#/").split("/"):
            node = node[part]
        check(inst, node, root, path)
    for sub in sch.get("allOf", []):
        check(inst, sub, root, path)
    if "const" in sch:
        assert inst == sch["const"], f"{path}: {inst!r} != {sch['const']!r}"
    t = sch.get("type")
    types = t if isinstance(t, list) else [t] if t else []
    if types:
        kind = kind_of(inst)
        assert kind in types or (kind == "integer" and "number" in types), (
            f"{path}: {kind} is not {' or '.join(types)}"
        )
    if "object" in types and isinstance(inst, dict):
        for r in sch.get("required", []):
            assert r in inst, f"{path}: missing required key {r!r}"
        props = sch.get("properties", {})
        ap = sch.get("additionalProperties", True)
        for k, v in inst.items():
            if k in props:
                check(v, props[k], root, f"{path}.{k}")
            elif isinstance(ap, dict):
                check(v, ap, root, f"{path}.{k}")
            elif ap is False:
                raise AssertionError(f"{path}: unexpected key {k!r}")
    elif "array" in types and isinstance(inst, list):
        if "minItems" in sch:
            assert len(inst) >= sch["minItems"], f"{path}: fewer than {sch['minItems']} items"
        for i, v in enumerate(inst):
            check(v, sch.get("items", {}), root, f"{path}[{i}]")
    if "minimum" in sch:
        assert inst >= sch["minimum"], f"{path}: {inst} below minimum {sch['minimum']}"
    if "exclusiveMinimum" in sch:
        assert inst > sch["exclusiveMinimum"], f"{path}: {inst} not above {sch['exclusiveMinimum']}"
    if "exclusiveMaximum" in sch:
        assert inst < sch["exclusiveMaximum"], f"{path}: {inst} not below {sch['exclusiveMaximum']}"


def analog(doc):
    """Both bit-identity proofs, a batch of at least 16 points that the
    lockstep kernel really ran, and on full (non-smoke) runs, where the
    bin enforces them, the >=5x headline and >=3x batched-kernel floors."""
    batched = doc["kernels"]["batched_vs_loop"]
    assert batched["bit_identical"] is True
    assert batched["points"] >= 16, "the batched kernel must run a real corner fan"
    # Smoke runs skip the speed floor. A batch sent down the per-point
    # loop never factorizes in the kernel, which the schema's
    # `batched_factorizations` minimum of 1 rejects; a batch whose points
    # the kernel retired to that loop fails here.
    assert batched["batch_retirements"] == 0, (
        f"{batched['batch_retirements']} points left the batched kernel"
    )
    assert doc["kernels"]["fixed_step_stamped_vs_dense"]["bit_identical"] is True
    if not doc["smoke"]:
        # Full runs assert these floors in-process; re-check the
        # recorded numbers so a stale or hand-edited report fails too.
        headline = doc["headline"]["speedup"]
        assert headline >= 5.0, f"headline speedup {headline} below the 5x floor"
        assert batched["speedup"] >= 3.0, (
            f"batched kernel speedup {batched['speedup']} below the 3x floor"
        )
    return (
        f"headline {doc['headline']['speedup']}x, "
        f"batched {batched['speedup']}x over {batched['points']} points"
    )


def fault(doc):
    """Reproducibility across worker counts and a full matrix: both CDR
    configurations over every campaign kind."""
    assert doc["reproducibility"]["identical"] is True
    assert doc["reproducibility"]["worker_counts"] == [1, 2, 4, 8]
    cdrs = {c["cdr"] for c in doc["matrix"]}
    kinds = {c["campaign"] for c in doc["matrix"]}
    assert cdrs == {"paper_default", "rtl_equivalent"}, f"unexpected cdr set {cdrs}"
    expected_kinds = {"burst_noise", "dropouts", "supply_droop", "clock_glitches", "seu", "mixed"}
    assert kinds == expected_kinds, f"unexpected campaign set {kinds}"
    assert len(doc["matrix"]) == len(cdrs) * len(kinds), "matrix must be the full cross product"
    assert doc["fault_isolation"]["completed"] == len(doc["matrix"])
    return f"{len(doc['matrix'])} cells, workers {doc['reproducibility']['worker_counts']}"


def profile(doc):
    """The schema carries the profile's bounds; nothing run-level."""
    return f"disabled overhead {doc['overhead']['overhead_pct']} %"


BAND_LIMITS = {"ge": operator.ge, "gt": operator.gt, "le": operator.le, "lt": operator.lt}


def repro(doc):
    """Ids are unique, a band comes with its source and only a band has
    one, every band holds on the recorded value, and each headline
    result R1-R7 has at least one banded entry."""
    results = doc["results"]
    ids = [r["id"] for r in results]
    assert len(ids) == len(set(ids)), "result ids must be unique"
    banded = [r for r in results if r["band"] is not None]
    for r in results:
        assert (r["band"] is None) == (r["band_source"] is None), (
            f"{r['id']}: a band needs a source, and only a band has one"
        )
    for r in banded:
        band, value = r["band"], r["measured"]
        assert band, f"{r['id']}: a band needs at least one limit"
        holds = value is not None and all(BAND_LIMITS[k](value, lim) for k, lim in band.items())
        assert holds, (
            f"band miss: {r['id']} = {value} {r['unit']} outside {band} ({r['band_source']})"
        )
    for n in range(1, 8):
        assert any(r["id"].startswith(f"R{n}.") for r in banded), f"R{n} has no banded entry"
    return f"{len(results)} results, {len(banded)} banded, every band holds"


def sta(doc):
    """All five example designs are present, each timed at exactly the
    tt/ss/ff corners, per-design fmax is ordered ss <= tt <= ff, and TNS
    is consistent with the violation count."""
    names = [d["name"] for d in doc["designs"]]
    expected = {"serializer", "deserializer", "cdr", "cdr_scan", "serdes_top"}
    assert set(names) == expected, f"unexpected design set {sorted(names)}"
    assert len(names) == len(expected), "each design appears exactly once"
    for d in doc["designs"]:
        corners = {c["corner"]: c for c in d["corners"]}
        assert set(corners) == {"tt", "ss", "ff"}, f"{d['name']}: corners {sorted(corners)}"
        ss, tt, ff = corners["ss"], corners["tt"], corners["ff"]
        assert ss["fmax_ghz"] <= tt["fmax_ghz"] <= ff["fmax_ghz"], (
            f"{d['name']}: fmax must be ordered ss <= tt <= ff, got "
            f"{ss['fmax_ghz']} / {tt['fmax_ghz']} / {ff['fmax_ghz']}"
        )
        for label, c in corners.items():
            if c["violations"] == 0:
                assert c["tns_ps"] == 0.0, f"{d['name']}/{label}: clean corner with nonzero TNS"
                assert c["wns_ps"] >= 0.0, f"{d['name']}/{label}: clean corner with negative WNS"
            else:
                assert c["tns_ps"] < 0.0, f"{d['name']}/{label}: violations but TNS >= 0"
                assert c["wns_ps"] < 0.0, f"{d['name']}/{label}: violations but WNS >= 0"
            assert c["tns_ps"] >= c["wns_ps"] * c["violations"] - 1e-6, (
                f"{d['name']}/{label}: TNS cannot be worse than violations x WNS"
            )
    return f"{len(names)} designs x 3 corners at {doc['clock_ghz']} GHz"


INVARIANTS = {"analog": analog, "fault": fault, "profile": profile, "repro": repro, "sta": sta}


def main() -> None:
    if len(sys.argv) != 2 or sys.argv[1] not in INVARIANTS:
        print(f"usage: {sys.argv[0]} <{'|'.join(INVARIANTS)}>", file=sys.stderr)
        sys.exit(2)
    name = sys.argv[1]
    schema_path = f"schemas/BENCH_{name}.schema.json"
    doc_path = f"BENCH_{name}.json"
    schema = json.load(open(schema_path))
    doc = json.load(open(doc_path))
    check_keywords(schema)
    check(doc, schema, schema)
    summary = INVARIANTS[name](doc)
    print(f"{doc_path} validates against {schema_path} ({summary})")


if __name__ == "__main__":
    try:
        main()
    except AssertionError as e:
        print(f"schema violation: {e}", file=sys.stderr)
        sys.exit(1)
