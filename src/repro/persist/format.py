"""The on-disk template format: versioned, fingerprinted, digest-checked.

One cache *entry* is a JSON file holding every persisted
:class:`~repro.core.codecache.CodeTemplate` for one closure shape
(bucketed by the signature's :attr:`~repro.runtime.closures
.ClosureSignature.shape_digest`).  The file carries three integrity
layers, checked strictly in this order on load:

1. **format version** (:data:`FORMAT_VERSION`) — bumped whenever the
   payload schema changes.  A mismatch is a *silent miss*: the file is
   left alone (a newer/older worker may still want it), nothing crashes.
2. **environment fingerprint** (:func:`isa_fingerprint`) — a sha256 over
   the ISA opcode list, the register-file sizes, and the cost-model
   weight table.  Templates embed resolved opcodes, register numbers,
   and modeled cold-compile cycles, so *any* change to those tables makes
   old entries meaningless; mismatch is likewise a silent miss.
3. **per-template digest** — a sha256 over the canonical JSON of the
   template body.  A digest mismatch means corruption or tampering: the
   template is rejected (never installed) and the file deleted so the
   cache self-heals.

Floats — ``$``-bound doubles in ``values``, float operands, guard
expectations — are encoded as the hex of their big-endian IEEE-754 bytes
(``{"f": "..."}``), never as JSON numbers: the cache must round-trip
NaN payloads and ``-0.0`` bit-exactly because template matching
(:meth:`CodeTemplate.matches`) bit-compares values.
"""

from __future__ import annotations

import hashlib
import json
import struct

from repro.analysis.facts import validate_fact

#: Bump on any change to the entry/template payload schema.
#: v2: elision facts + discharged (pruned) guards ride with the template.
FORMAT_VERSION = 2


class UnserializableTemplate(ValueError):
    """The template contains state with no stable on-disk encoding
    (e.g. an unresolved Label operand); it stays process-local."""


class CorruptEntry(ValueError):
    """A persisted entry failed structural validation or its digest."""


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace.  Digests are
    computed over this form, so two workers serializing the same
    template always produce the same bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


_FINGERPRINT = None


def isa_fingerprint() -> str:
    """sha256 over everything a serialized template implicitly bakes in:
    the opcode set (templates store resolved ``Op`` names), the register
    file sizes (operands are resolved register numbers), and the cost
    model (``cold_cycles`` is the cost a clone reports as saved)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        from repro.runtime.costmodel import DEFAULT_WEIGHTS
        from repro.target.isa import NUM_FREGS, NUM_REGS, Op

        weights = sorted(
            (phase.value, kind, weight)
            for (phase, kind), weight in DEFAULT_WEIGHTS.items()
        )
        text = ";".join([
            f"format={FORMAT_VERSION}",
            f"regs={NUM_REGS}",
            f"fregs={NUM_FREGS}",
            "ops=" + ",".join(op.name for op in Op),
            "weights=" + repr(weights),
        ])
        _FINGERPRINT = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return _FINGERPRINT


def program_namespace(source: str) -> str:
    """Per-program cache sub-directory: templates are only meaningful
    against the program (including the merged prelude) whose static
    symbol layout they were linked against."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


# -- value / operand encoding --------------------------------------------------


def _encode_value(v):
    if v is None or isinstance(v, bool):
        return v
    if isinstance(v, float):
        return {"f": struct.pack(">d", v).hex()}
    if isinstance(v, int):
        return int(v)  # strip IntEnum (Reg/FReg) down to the plain number
    raise UnserializableTemplate(
        f"operand {v!r} ({type(v).__name__}) has no stable encoding"
    )


def _decode_value(v):
    if v is None or isinstance(v, (bool, int)):
        return v
    if isinstance(v, dict) and set(v) == {"f"}:
        raw = v["f"]
        if not isinstance(raw, str) or len(raw) != 16:
            raise CorruptEntry(f"bad float encoding {v!r}")
        return struct.unpack(">d", bytes.fromhex(raw))[0]
    raise CorruptEntry(f"bad operand encoding {v!r}")


_FIELDS = ("a", "b", "c")


def payload_digest(body: dict) -> str:
    """sha256 of the canonical JSON of ``body`` minus its digest field."""
    clean = {k: v for k, v in body.items() if k != "digest"}
    return hashlib.sha256(canonical_json(clean).encode("utf-8")).hexdigest()


def encode_template(template) -> dict:
    """Serialize one CodeTemplate into its digest-sealed JSON body.

    Raises :class:`UnserializableTemplate` when any operand has no
    stable encoding (the template then simply stays in memory).
    """
    instructions = []
    for instr in template.instructions:
        instructions.append([
            instr.op.name,
            _encode_value(instr.a),
            _encode_value(instr.b),
            _encode_value(instr.c),
        ])
    body = {
        "values": [_encode_value(v) for v in template.values],
        "patchable": sorted(template.patchable),
        "holes": [[rel, field, org, scl, add, bool(is_float)]
                  for rel, field, org, scl, add, is_float in template.holes],
        "relocs": [[rel, field] for rel, field in template.relocs],
        "instructions": instructions,
        "entry": int(template.entry),
        "guards": [[int(addr), width, _encode_value(value)]
                   for addr, width, value in template.guards],
        "pruned_guards": [[int(addr), width, _encode_value(value)]
                          for addr, width, value in template.pruned_guards],
        "facts": [[fact[0]] + [int(v) for v in fact[1:]]
                  for fact in template.facts],
        "cold_cycles": int(template.cold_cycles),
        "callees": [[name, int(addr)] for name, addr in template.callees],
    }
    body["digest"] = payload_digest(body)
    return body


def decode_template(body: dict):
    """Validate one serialized template and rebuild the CodeTemplate.

    Raises :class:`CorruptEntry` on *any* defect — digest mismatch,
    unknown opcode, out-of-range hole/reloc indices, malformed floats —
    so the caller can count and discard it without ever installing it.
    """
    from repro.core.codecache import CodeTemplate
    from repro.target.isa import Instruction, Op

    try:
        if body.get("digest") != payload_digest(body):
            raise CorruptEntry("template digest mismatch")
        instructions = []
        for row in body["instructions"]:
            op_name, a, b, c = row
            try:
                op = Op[op_name]
            except KeyError:
                raise CorruptEntry(f"unknown opcode {op_name!r}") from None
            instructions.append(Instruction(
                op, _decode_value(a), _decode_value(b), _decode_value(c)))
        n = len(instructions)
        values = tuple(_decode_value(v) for v in body["values"])
        holes = []
        for rel, field, org, scl, add, is_float in body["holes"]:
            if not (0 <= rel < n) or field not in _FIELDS \
                    or not (0 <= org < len(values)):
                raise CorruptEntry(f"bad hole {[rel, field, org]!r}")
            holes.append((int(rel), field, int(org), int(scl), int(add),
                          bool(is_float)))
        relocs = []
        for rel, field in body["relocs"]:
            if not (0 <= rel < n) or field not in _FIELDS:
                raise CorruptEntry(f"bad reloc {[rel, field]!r}")
            relocs.append((int(rel), field))
        guards = [(int(addr), str(width), _decode_value(value))
                  for addr, width, value in body["guards"]]
        pruned = [(int(addr), str(width), _decode_value(value))
                  for addr, width, value in body["pruned_guards"]]
        facts = []
        for row in body["facts"]:
            fact = (str(row[0]),) + tuple(int(v) for v in row[1:])
            if not validate_fact(fact, n):
                raise CorruptEntry(f"bad fact {row!r}")
            facts.append(fact)
        callees = tuple((str(name), int(addr))
                        for name, addr in body["callees"])
        return CodeTemplate.restore(
            values=values,
            patchable=frozenset(int(p) for p in body["patchable"]),
            holes=holes,
            relocs=relocs,
            instructions=instructions,
            entry=int(body["entry"]),
            guards=guards,
            cold_cycles=int(body["cold_cycles"]),
            callees=callees,
            facts=facts,
            pruned_guards=pruned,
        )
    except CorruptEntry:
        raise
    except Exception as exc:
        raise CorruptEntry(f"malformed template payload: {exc}") from exc
