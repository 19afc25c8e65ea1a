"""Simple-algebra dimension table and the exact reconstruction decision
procedures: which families of simple algebras admit locally tomographic,
injective, or classicality-compatible composites with themselves.

All arithmetic is over plain integers; derivation traces are first-class
outputs recording, for every examined member, the forced rank, the required
dimension, the candidate records, and the eliminating inequality.  A trace is
built from plain dicts and lists: the candidate records of each required rank
are built once per procedure and shared by every cell that needs them, and
`trace_json` encodes each shared list once per depth.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

FAMILIES = ("RealSym", "ComplexHerm", "QuatHerm", "SpinFactor", "Albert")

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
    for family in ("RealSym", "ComplexHerm", "QuatHerm"):
        d = dim_of(family, rank)
        if d <= MAX_RECORD_DIM:
            out.append(ClassRecord(family, rank, d))
    if rank == 2:
        out.extend(ClassRecord("SpinFactor", 2, n)
                   for n in range(2, MAX_RECORD_DIM + 1))
    if rank == 3:
        out.append(ClassRecord("Albert", 3, 27))
    return sorted(out, key=lambda c: (c.dim, c.family))


def family_members(family: str, max_rank: int) -> list[ClassRecord]:
    """The members each procedure must examine.  Spin dimensions are bounded
    by 4*max_rank**4, which covers every dimension that could still satisfy
    dim >= d**2 against rank-4 candidates."""
    if family == "SpinFactor":
        return [ClassRecord("SpinFactor", 2, n)
                for n in range(2, 4 * max_rank**4 + 1)]
    if family == "Albert":
        return [ClassRecord("Albert", 3, 27)]
    return [make_record(family, r) for r in range(2, max_rank + 1)]


def _record(c: ClassRecord) -> dict:
    return {"family": c.family, "rank": c.rank, "dim": c.dim}


def _candidates(rank: int) -> tuple[list[dict], str]:
    """The candidate records of one required rank, and their dims as the
    text a failing cell quotes."""
    cands = [_record(c) for c in records_with_rank(rank)]
    return cands, str([c["dim"] for c in cands])


def _cell(member: ClassRecord, relation: str,
          candidates: tuple[list[dict], str]) -> dict:
    cands, dims = candidates
    required_rank = member.rank ** 2
    required_dim = member.dim ** 2
    if relation == "==":
        hit = next((c for c in cands if c["dim"] == required_dim), None)
    else:
        hit = next((c for c in cands if c["dim"] >= required_dim), None)
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
                         f"are {dims}")
    return out


def _run(procedure: str, max_rank: int, num_summands: int | None = None) -> dict:
    if max_rank < 2:
        raise ValueError("max_rank must be at least 2")
    relation = "==" if procedure == LOCAL_TOMOGRAPHY else ">="
    by_rank: dict[int, tuple[list[dict], str]] = {}
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
    built as one list of pieces.  Each dict and list is memoised by its id
    and depth: the first time it is met, the span of pieces it produced is
    recorded; when it is met again at that depth, the span is joined once
    and reused, so a list shared by many cells is encoded once per depth.
    Cells with the same required rank share one `candidates` list, so treat
    a trace as read-only.  The encoder is a module function, not a closure
    that refers to itself, so the pieces and the memo are freed on return
    without waiting for the cycle collector.
    """
    out: list[str] = []
    _emit(trace, 0, out, out.append, {})
    return "".join(out)


def _emit(o, depth: int, out: list[str], append,
          spans: dict[tuple[int, int], tuple[int, int] | str]) -> None:
    """Append the pieces of o at the given depth to out (see `trace_json`);
    `append` is `out.append`."""
    if isinstance(o, str):
        append(encode_basestring_ascii(o))
    elif o is None:
        append("null")
    elif o is True:
        append("true")
    elif o is False:
        append("false")
    elif isinstance(o, int):
        append(int.__repr__(o))
    elif isinstance(o, (dict, list)):
        key = (id(o), depth)
        seen = spans.get(key)
        if seen is not None:
            if isinstance(seen, tuple):
                seen = spans[key] = "".join(out[seen[0]:seen[1]])
            append(seen)
            return
        start = len(out)
        if not o:
            append("{}" if isinstance(o, dict) else "[]")
        else:
            close = "\n" + "  " * depth
            inner = close + "  "
            sep = "," + inner
            if isinstance(o, dict):
                append("{" + inner)
                for i, k in enumerate(sorted(o)):
                    if not isinstance(k, str):
                        raise TypeError("trace keys must be str")
                    if i:
                        append(sep)
                    append(encode_basestring_ascii(k) + ": ")
                    _emit(o[k], depth + 1, out, append, spans)
                append(close + "}")
            else:
                append("[" + inner)
                for i, v in enumerate(o):
                    if i:
                        append(sep)
                    _emit(v, depth + 1, out, append, spans)
                append(close + "]")
        spans[key] = (start, len(out))
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
