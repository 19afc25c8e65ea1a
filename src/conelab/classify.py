"""Simple-algebra dimension table and the exact reconstruction decision
procedures: which families of simple algebras admit locally tomographic,
injective, or classicality-compatible composites with themselves.

All arithmetic is over plain integers; derivation traces are first-class
outputs recording, for every examined member, the forced rank, the required
dimension, the candidate records, and the eliminating inequality.  A trace is
plain dicts and lists computed by `dim_of`: the candidates of each required
rank are built once per procedure and shared by every cell that needs them,
and a cell finds its witness by bisection on their dims.  `trace_json` writes
the bytes of `json.dumps(trace, indent=2, sort_keys=True)`: it sorts and
escapes the keys once per dict layout (key order and depth), writes each
scalar in the same piece as its key, and encodes each shared list once per
depth.  `max_rank` runs from 2 to `MAX_RANK` = 8, a bound on the trace size.
"""

from __future__ import annotations

from bisect import bisect_left
from json.encoder import encode_basestring_ascii

FAMILIES = ("RealSym", "ComplexHerm", "QuatHerm", "SpinFactor", "Albert")
MATRIX_FAMILIES = FAMILIES[:3]

LOCAL_TOMOGRAPHY = "local-tomography"
INJECTIVE_COMPOSITE = "injective-composite"
CLASSICALITY = "classicality"


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


# The largest max_rank the procedures accept.  Spin members run to dimension
# 4*max_rank**4, so a max-rank 8 trace is already 16 405 cells and 12 MB,
# and the independent oracle in the tests checks nothing above 8.
MAX_RANK = 8


def family_members(family: str, max_rank: int):
    """The (rank, dim) of each member a procedure examines.  Spin dims run
    from 2 to 4*max_rank**4, the range the traces pin; the decision needs
    fewer, since every spin member with dim >= 6 fails against the rank-4
    candidates (dims 10, 16, 28) under both relations."""
    if family == "SpinFactor":
        for n in range(2, 4 * max_rank**4 + 1):
            yield 2, n
    elif family == "Albert":
        yield 3, 27
    else:
        for r in range(2, max_rank + 1):
            yield r, dim_of(family, r)


def _candidates(rank: int) -> tuple[list[dict], list[int], str]:
    """The candidate records of a required rank R = r**2 >= 4, their dims,
    and those dims as the text a failing cell quotes.  No spin factor
    (rank 2) or Albert algebra (rank 3) has rank R, so the candidates are
    the matrix families, whose dims increase strictly in that order since
    R(R+1)/2 < R**2 < R(2R-1): `_cell`'s bisect_left finds the first with
    dim >= required_dim, and the one with dim == required_dim if any."""
    cands = [{"family": f, "rank": rank, "dim": dim_of(f, rank)}
             for f in MATRIX_FAMILIES]
    dims = [c["dim"] for c in cands]
    return cands, dims, str(dims)


def _cell(family: str, rank: int, dim: int, relation: str,
          candidates: tuple[list[dict], list[int], str]) -> dict:
    cands, dims, text = candidates
    required_rank = rank ** 2
    required_dim = dim ** 2
    i = bisect_left(dims, required_dim)
    ok = i < len(dims) and (relation == ">=" or dims[i] == required_dim)
    out = {
        "member": {"family": family, "rank": rank, "dim": dim},
        "required_rank": required_rank,
        "required_dim": required_dim,
        "relation": relation,
        "candidates": cands,
        "pass": ok,
    }
    if ok:
        out["witness"] = cands[i]
    else:
        out["reason"] = (f"no simple record of rank {required_rank} has "
                         f"dim {relation} {required_dim}; available dims "
                         f"are {text}")
    return out


def _run(procedure: str, max_rank: int, num_summands: int | None = None) -> dict:
    if max_rank < 2:
        raise ValueError("max_rank must be at least 2")
    if max_rank > MAX_RANK:
        raise ValueError(f"max_rank must be at most {MAX_RANK}: the spin "
                         "family alone lists 4*max_rank**4 members")
    relation = "==" if procedure == LOCAL_TOMOGRAPHY else ">="
    # members have ranks 2..max_rank, and the Albert member has rank 3
    by_rank = {r: _candidates(r * r) for r in range(2, max(max_rank, 3) + 1)}
    families = {}
    for family in FAMILIES:
        cells = [_cell(family, rank, dim, relation, by_rank[rank])
                 for rank, dim in family_members(family, max_rank)]
        families[family] = {"survives": all(c["pass"] for c in cells),
                            "cells": cells}
    survivors = [f for f in FAMILIES if families[f]["survives"]]
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
        "summand": {"family": "Albert", "rank": 3, "dim": dim_of("Albert", 3)},
        "total_rank": 81,
        "total_dim": 81,
        "coincides_with": {"family": "ComplexHerm", "rank": 81,
                           "dim": dim_of("ComplexHerm", 81)},
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
