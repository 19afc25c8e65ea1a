"""Simple-algebra dimension table and the exact reconstruction decision
procedures: which families of simple algebras admit locally tomographic,
injective, or classicality-compatible composites with themselves.

All arithmetic is over plain integers; derivation traces are first-class
outputs recording, for every examined member, the forced rank, the required
dimension, the candidate records, and the eliminating inequality.  A trace is
built from plain dicts and lists: the candidate records of each required rank
are built once per procedure and shared by every cell that needs them, and a
cell finds its witness by bisection on their dims.  `trace_json` writes the
bytes of `json.dumps(trace, indent=2, sort_keys=True)`: it sorts and escapes
the keys once per dict layout (key order and depth), writes each scalar in
the same piece as its key, and encodes each shared list once per depth.
`max_rank` runs from 2 to `MAX_RANK` = 8, the largest rank whose required
ranks keep every matrix-family record in the record table.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import count
from json.encoder import encode_basestring_ascii

FAMILIES = ("RealSym", "ComplexHerm", "QuatHerm", "SpinFactor", "Albert")
MATRIX_FAMILIES = FAMILIES[:3]

LOCAL_TOMOGRAPHY = "local-tomography"
INJECTIVE_COMPOSITE = "injective-composite"
CLASSICALITY = "classicality"


@dataclass(frozen=True, order=True)
class ClassRecord:
    family: str
    rank: int
    dim: int


def dim_of(family: str, rank: int, spin_dim: int | None = None) -> int:
    """Dimension of the simple algebra of the given family and rank."""
    if rank < 1:
        raise ValueError("rank must be positive")
    if family == "RealSym":
        return rank * (rank + 1) // 2
    if family == "ComplexHerm":
        return rank * rank
    if family == "QuatHerm":
        return rank * (2 * rank - 1)
    if family == "SpinFactor":
        if rank != 2:
            raise ValueError("spin factors have rank 2")
        if spin_dim is None or spin_dim < 2:
            raise ValueError("spin factors need a dimension parameter >= 2")
        return spin_dim
    if family == "Albert":
        if rank != 3:
            raise ValueError("the exceptional algebra has rank 3")
        return 27
    raise ValueError(f"unknown family: {family}")


MAX_RECORD_DIM = 10000


def make_record(family: str, rank: int) -> ClassRecord:
    return ClassRecord(family, rank, dim_of(family, rank))


def records_with_rank(rank: int) -> list[ClassRecord]:
    """All simple records of the exact given rank with dim <= MAX_RECORD_DIM."""
    out = []
    for family in MATRIX_FAMILIES:
        d = dim_of(family, rank)
        if d <= MAX_RECORD_DIM:
            out.append(ClassRecord(family, rank, d))
    if rank == 2:
        out.extend(ClassRecord("SpinFactor", 2, n)
                   for n in range(2, MAX_RECORD_DIM + 1))
    if rank == 3:
        out.append(ClassRecord("Albert", 3, 27))
    return sorted(out, key=lambda c: (c.dim, c.family))


# The largest max_rank the procedures accept: every matrix-family record of
# each required rank r**2 <= MAX_RANK**2 lies in the record table.  Above
# it the table loses QuatHerm (rank 81 has dim 13041), so cells would quote
# wrong available dims, and from max_rank 11 it loses ComplexHerm (rank
# 121 has dim 14641), which the procedures would then eliminate.
MAX_RANK = next(r for r in count(1) if any(
    dim_of(f, (r + 1) ** 2) > MAX_RECORD_DIM for f in MATRIX_FAMILIES))


def family_members(family: str, max_rank: int) -> list[ClassRecord]:
    """The members each procedure examines.  Spin dimensions run from 2 to
    4*max_rank**4: that is the enumeration range the traces pin (the oracle
    and the classify digests list the same cells), not a bound the
    decision needs, since every spin member with dim >= 6 fails against the
    rank-4 candidates (dims 10, 16, 28) under both relations."""
    if family == "SpinFactor":
        return [ClassRecord("SpinFactor", 2, n)
                for n in range(2, 4 * max_rank**4 + 1)]
    if family == "Albert":
        return [ClassRecord("Albert", 3, 27)]
    return [make_record(family, r) for r in range(2, max_rank + 1)]


def _record(c: ClassRecord) -> dict:
    return {"family": c.family, "rank": c.rank, "dim": c.dim}


def _candidates(rank: int) -> tuple[list[dict], list[int], str]:
    """The candidate records of one required rank, their dims, and those
    dims as the text a failing cell quotes."""
    cands = [_record(c) for c in records_with_rank(rank)]
    dims = [c["dim"] for c in cands]
    return cands, dims, str(dims)


def _cell(member: ClassRecord, relation: str,
          candidates: tuple[list[dict], list[int], str]) -> dict:
    cands, dims, text = candidates
    required_rank = member.rank ** 2
    required_dim = member.dim ** 2
    # the candidates are sorted by (dim, family), so i is the first record
    # with dim >= required_dim, and the first with dim == required_dim if
    # there is one
    i = bisect_left(dims, required_dim)
    hit = None
    if i < len(dims) and (relation == ">=" or dims[i] == required_dim):
        hit = cands[i]
    out = {
        "member": _record(member),
        "required_rank": required_rank,
        "required_dim": required_dim,
        "relation": relation,
        "candidates": cands,
        "pass": hit is not None,
    }
    if hit is not None:
        out["witness"] = hit
    else:
        out["reason"] = (f"no simple record of rank {required_rank} has "
                         f"dim {relation} {required_dim}; available dims "
                         f"are {text}")
    return out


def _run(procedure: str, max_rank: int, num_summands: int | None = None) -> dict:
    if max_rank < 2:
        raise ValueError("max_rank must be at least 2")
    if max_rank > MAX_RANK:
        raise ValueError(
            f"max_rank must be at most {MAX_RANK}: above it the record table "
            f"(dim <= {MAX_RECORD_DIM}) lacks matrix-family records of rank "
            f"{(MAX_RANK + 1) ** 2}")
    relation = "==" if procedure == LOCAL_TOMOGRAPHY else ">="
    by_rank: dict[int, tuple[list[dict], list[int], str]] = {}
    families = {}
    survivors = []
    for family in FAMILIES:
        cells = []
        for m in family_members(family, max_rank):
            required_rank = m.rank ** 2
            if required_rank not in by_rank:
                by_rank[required_rank] = _candidates(required_rank)
            cells.append(_cell(m, relation, by_rank[required_rank]))
        ok = all(c["pass"] for c in cells)
        families[family] = {"survives": ok, "cells": cells}
        if ok:
            survivors.append(family)
    out = {
        "procedure": procedure,
        "max_rank": max_rank,
        "families": families,
        "survivors": survivors,
    }
    if procedure == CLASSICALITY:
        out["num_summands"] = num_summands
        out["reduction"] = (
            "a classical effect on a direct sum of copies of a simple "
            "algebra restricts to a summand unit, so the constraint on the "
            "simple summand is the same for every summand count")
        out["near_miss"] = near_miss_record()
    return out


def near_miss_record() -> dict:
    """Why rank and dimension counting alone cannot finish the argument:
    three exceptional summands reproduce the parameters of a simple complex
    matrix algebra."""
    return {
        "summands": 3,
        "summand": _record(make_record("Albert", 3)),
        "total_rank": 81,
        "total_dim": 81,
        "coincides_with": _record(make_record("ComplexHerm", 81)),
        "note": ("three exceptional summands give a state space whose "
                 "rank and squared dimension match the rank-81 complex "
                 "matrix algebra exactly; rank and dimension counting "
                 "alone cannot separate them"),
    }


def survivors_local_tomography(max_rank: int) -> dict:
    """Families whose every member admits a simple composite of rank exactly
    r**2 and dimension exactly d**2."""
    return _run(LOCAL_TOMOGRAPHY, max_rank)


def survivors_injective_composite(max_rank: int) -> dict:
    """Relaxed constraint: some simple record of rank r**2 has dimension at
    least d**2."""
    return _run(INJECTIVE_COMPOSITE, max_rank)


def survivors_classicality(max_rank: int, num_summands: int) -> dict:
    """Direct sums of num_summands copies of a simple member: the classical
    unit effect pins the composite summand, giving the same per-member
    constraint as the injective case for every summand count."""
    if num_summands < 1:
        raise ValueError("num_summands must be at least 1")
    return _run(CLASSICALITY, max_rank, num_summands)


def trace_json(trace: dict) -> str:
    """The trace as text equal byte for byte to
    `json.dumps(trace, indent=2, sort_keys=True)`.

    Values may be dicts with str keys, lists, str, int, bool and None; any
    other type raises TypeError (traces never contain floats).  The text is
    built as one list of pieces, with two memos that live for one call:

    - Layouts.  A dict's layout is keyed by its keys in insertion order and
      its depth.  It holds the sorted keys and, for each key, the piece
      written before its value: the opening brace or the separator, the
      indent, the escaped key and ": ".  The 16 405 cells of a max-rank 8
      trace share a handful of layouts, so keys are sorted and escaped once
      per layout, and a non-str key raises when its layout is built.
    - Spans.  Each list is memoised by its id and depth: the first time it
      is met, the span of pieces it produced is recorded; when it is met
      again at that depth, the span is joined once and reused, so a list
      shared by many cells is encoded once per depth.  Cells with the same
      required rank share one `candidates` list, so treat a trace as
      read-only.  Dicts are not memoised: the dicts a trace shares are
      three-key candidate records, which cost less to write again than a
      memo entry costs each of the 32 810 cell and member dicts of a
      max-rank 8 trace.

    A scalar value is written in the same piece as its key (or its list
    separator), through `_SCALARS`, which dispatches on the exact type;
    only containers recurse, and other types (str and int subclasses, or
    floats, which raise) take `_emit`'s isinstance rules.  The encoder is a
    module function, not a closure that refers to itself, so the pieces and
    the memos are freed on return without waiting for the cycle collector.
    """
    out: list[str] = []
    _emit(trace, 0, out, out.append, {}, {})
    return "".join(out)


# How each exact scalar type is written; `bool` is not `int` here.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


def _layout(d: dict, depth: int) -> tuple[tuple[tuple[str, str], ...], str]:
    """The (key, piece before its value) pairs of d in sorted key order, and
    the piece that closes d, for a dict at the given depth."""
    if not all(isinstance(k, str) for k in d):
        raise TypeError("trace keys must be str")
    close = "\n" + "  " * depth
    inner = close + "  "
    keys = sorted(d)
    heads = ["{" + inner] + ["," + inner] * (len(keys) - 1)
    return (tuple((k, h + encode_basestring_ascii(k) + ": ")
                  for k, h in zip(keys, heads)), close + "}")


def _emit(o, depth: int, out: list[str], append,
          spans: dict[tuple[int, int], tuple[int, int] | str],
          layouts: dict[tuple[tuple, int], tuple]) -> None:
    """Append the pieces of o at the given depth to out (see `trace_json`);
    `append` is `out.append`."""
    enc = _SCALARS.get(type(o))
    if enc is not None:
        append(enc(o))
    elif isinstance(o, dict):
        if not o:
            append("{}")
            return
        shape = (tuple(o), depth)
        layout = layouts.get(shape)
        if layout is None:
            layout = layouts[shape] = _layout(o, depth)
        pieces, close = layout
        for k, head in pieces:
            v = o[k]
            enc = _SCALARS.get(type(v))
            if enc is not None:
                append(head + enc(v))
            else:
                append(head)
                _emit(v, depth + 1, out, append, spans, layouts)
        append(close)
    elif isinstance(o, list):
        key = (id(o), depth)
        seen = spans.get(key)
        if seen is not None:
            if isinstance(seen, tuple):
                seen = spans[key] = "".join(out[seen[0]:seen[1]])
            append(seen)
            return
        start = len(out)
        if not o:
            append("[]")
        else:
            close = "\n" + "  " * depth
            head, sep = "[" + close + "  ", "," + close + "  "
            for v in o:
                enc = _SCALARS.get(type(v))
                if enc is not None:
                    append(head + enc(v))
                else:
                    append(head)
                    _emit(v, depth + 1, out, append, spans, layouts)
                head = sep
            append(close + "]")
        spans[key] = (start, len(out))
    elif isinstance(o, str):
        append(encode_basestring_ascii(o))
    elif isinstance(o, int):
        append(int.__repr__(o))
    else:
        raise TypeError(f"cannot encode {type(o).__name__} in a trace")


TEXT_CELLS = 6


def trace_text(trace: dict) -> str:
    """Plain-text derivation, elided for very long member lists."""
    lines = [f"procedure: {trace['procedure']} (max_rank={trace['max_rank']})"]
    if trace["procedure"] == CLASSICALITY:
        lines.append(f"summand count: {trace['num_summands']} "
                     f"(constraint independent of it: {trace['reduction']})")
    for family, info in trace["families"].items():
        verdict = "survives" if info["survives"] else "eliminated"
        lines.append(f"{family}: {verdict}")
        shown = info["cells"]
        elided = 0
        if len(shown) > TEXT_CELLS:
            failing = [c for c in shown if not c["pass"]]
            keep = shown[:TEXT_CELLS]
            if failing and failing[0] not in keep:
                keep = shown[:TEXT_CELLS - 1] + failing[:1]
            elided = len(shown) - len(keep)
            shown = keep
        for c in shown:
            m = c["member"]
            head = (f"  rank {m['rank']} dim {m['dim']}: needs rank "
                    f"{c['required_rank']}, dim {c['relation']} "
                    f"{c['required_dim']}")
            if c["pass"]:
                w = c["witness"]
                lines.append(f"{head} -> ok via {w['family']} "
                             f"(dim {w['dim']})")
            else:
                lines.append(f"{head} -> FAIL: {c['reason']}")
        if elided:
            lines.append(f"  ... {elided} further members elided")
    lines.append("survivors: " + ", ".join(trace["survivors"]))
    if "near_miss" in trace:
        nm = trace["near_miss"]
        lines.append(f"near miss on record counting alone: {nm['summands']} "
                     f"x {nm['summand']['family']} has squared rank "
                     f"{nm['total_rank']} and squared dimension "
                     f"{nm['coincides_with']['dim']}, {nm['note']}")
    return "\n".join(lines)
