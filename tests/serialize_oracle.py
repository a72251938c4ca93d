"""The dict-document encoder that serialize replaced, kept as a test oracle.

It builds the whole document as nested dicts and lists, one per gate and
one per wire, and lets json.dumps(..., sort_keys=True) write it.  serialize
formats the same text directly; the tests require the two to agree byte
for byte.
"""

from __future__ import annotations

import json


def label_doc(lab) -> dict:
    if lab.kind == "input":
        return {"kind": "input", "var": lab.var}
    if lab.kind == "const":
        return {"kind": "const", "value": str(lab.value)}
    if lab.kind in ("th_ge", "th_eq"):
        return {"kind": lab.kind, "k": lab.k}
    if lab.kind in ("psum", "pprod"):
        return {"kind": lab.kind, "c": str(lab.c), "parts": {t: str(q) for t, q in lab.parts}}
    return {"kind": lab.kind}


def serialize_oracle(circuit) -> str:
    gates = []
    for g in sorted(circuit.gates):
        kids = [{"id": c} if tag is None else {"id": c, "tag": tag} for c, tag in circuit.wires[g]]
        gates.append({"id": g, "label": label_doc(circuit.gates[g]), "children": kids})
    doc = {
        "field": circuit.field.name(),
        "variables": list(circuit.variables),
        "gates": gates,
        "output": circuit.output,
    }
    return json.dumps(doc, sort_keys=True) + "\n"
