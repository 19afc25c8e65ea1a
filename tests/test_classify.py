"""Reconstruction decision procedures against the brute-force oracle."""

import enum
import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classify_oracle as oracle
from conelab import classify
from helpers import assert_same_text


def test_dimension_table():
    assert classify.dim_of("ComplexHerm", 3) == 9
    assert classify.dim_of("RealSym", 2) == 3
    assert classify.dim_of("QuatHerm", 2) == 6
    assert classify.dim_of("SpinFactor", 2, spin_dim=7) == 7
    assert classify.dim_of("Albert", 3) == 27


def test_invalid_combinations():
    with pytest.raises(ValueError):
        classify.dim_of("Albert", 4)
    with pytest.raises(ValueError):
        classify.dim_of("SpinFactor", 3, spin_dim=5)
    with pytest.raises(ValueError):
        classify.dim_of("Octonion", 2)
    with pytest.raises(ValueError):
        classify.survivors_local_tomography(1)
    with pytest.raises(ValueError):
        classify.survivors_classicality(4, 0)


def test_local_tomography_survivors():
    trace = classify.survivors_local_tomography(8)
    assert trace["survivors"] == ["ComplexHerm"]


def test_injective_composite_survivors():
    trace = classify.survivors_injective_composite(8)
    assert trace["survivors"] == ["RealSym", "ComplexHerm"]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_classicality_survivors(k):
    trace = classify.survivors_classicality(8, k)
    assert trace["survivors"] == ["RealSym", "ComplexHerm"]
    assert trace["num_summands"] == k


@pytest.mark.parametrize("max_rank", [2, 3, 5])
def test_oracle_agreement_byte_for_byte(max_rank):
    for proc in (classify.LOCAL_TOMOGRAPHY, classify.INJECTIVE_COMPOSITE):
        mine = classify.trace_json(classify._run(proc, max_rank))
        theirs = oracle.to_json(oracle.run(proc, max_rank))
        assert_same_text(mine, theirs)
    mine = classify.trace_json(classify.survivors_classicality(max_rank, 2))
    theirs = oracle.to_json(oracle.run(classify.CLASSICALITY, max_rank, 2))
    assert_same_text(mine, theirs)


@pytest.mark.parametrize("a, b, offset", [
    ("x" * 10_000 + "a" + "y" * 50, "x" * 10_000 + "b" + "y" * 50, 10_000),
    ("abc", "abcd", 3), ("", "z", 0)])
def test_assert_same_text_names_the_first_difference(a, b, offset):
    assert_same_text(a, a)
    with pytest.raises(AssertionError, match=f"at offset {offset} ") as exc:
        assert_same_text(a, b)
    assert len(str(exc.value)) < 300


@pytest.mark.parametrize("max_rank", [2, 3, 4, 5, 6, 7, 8])
def test_monotonicity(max_rank):
    lt = set(classify.survivors_local_tomography(max_rank)["survivors"])
    inj = set(classify.survivors_injective_composite(max_rank)["survivors"])
    assert lt <= inj


def test_albert_elimination_detail():
    trace = classify.survivors_local_tomography(3)
    cell = trace["families"]["Albert"]["cells"][0]
    assert cell["required_rank"] == 9
    assert cell["required_dim"] == 729
    assert [c["dim"] for c in cell["candidates"]] == [45, 81, 153]
    assert not cell["pass"]


def test_real_sym_local_tomography_strict_inequality():
    trace = classify.survivors_local_tomography(2)
    cell = trace["families"]["RealSym"]["cells"][0]
    assert cell["required_dim"] == 9
    assert [c["dim"] for c in cell["candidates"]] == [10, 16, 28]
    assert not cell["pass"]


def test_real_sym_injective_passes():
    trace = classify.survivors_injective_composite(2)
    cell = trace["families"]["RealSym"]["cells"][0]
    assert cell["pass"]
    assert cell["witness"]["dim"] == 10


def test_spin_dim_nine_injective_fails():
    trace = classify.survivors_injective_composite(2)
    cells = trace["families"]["SpinFactor"]["cells"]
    nine = next(c for c in cells if c["member"]["dim"] == 9)
    assert not nine["pass"]
    assert nine["required_rank"] == 4
    assert nine["required_dim"] == 81


def test_quat_herm_classicality_fails():
    trace = classify.survivors_classicality(3, 1)
    cells = trace["families"]["QuatHerm"]["cells"]
    r3 = next(c for c in cells if c["member"]["rank"] == 3)
    assert not r3["pass"]
    assert r3["required_dim"] == 225
    assert max(c["dim"] for c in r3["candidates"]) == 153


def test_near_miss_record():
    trace = classify.survivors_classicality(4, 3)
    nm = trace["near_miss"]
    assert nm["summands"] == 3
    assert nm["summand"]["family"] == "Albert"
    assert nm["total_rank"] == 81
    assert nm["coincides_with"] == {"family": "ComplexHerm", "rank": 81,
                                    "dim": 6561}


def test_near_miss_text_calls_81_the_squared_rank():
    # three Albert summands have rank 9 and dimension 81; their composite
    # needs rank 81 and dimension 6561, the squares
    lines = classify.trace_text(classify.survivors_classicality(4, 3)) \
        .splitlines()
    near = next(line for line in lines if line.startswith("near miss"))
    assert "3 x Albert has squared rank 81 and squared dimension 6561," \
        in near


def test_spin_enumeration_bound():
    members = list(classify.family_members("SpinFactor", 3))
    assert members[0] == (2, 2)
    assert members[-1] == (2, 4 * 3**4)


def test_candidates_are_the_matrix_families_in_dim_order():
    # bisect_left in _cell needs the candidate dims strictly increasing
    for r in range(2, classify.MAX_RANK + 1):
        cands, dims, text = classify._candidates(r * r)
        assert [c["family"] for c in cands] == list(classify.MATRIX_FAMILIES)
        assert all(c["rank"] == r * r for c in cands)
        assert dims == [classify.dim_of(f, r * r)
                        for f in classify.MATRIX_FAMILIES]
        assert dims == [c["dim"] for c in cands]
        assert dims[0] < dims[1] < dims[2]
        assert text == str(dims)


def test_trace_text_renders():
    text = classify.trace_text(classify.survivors_local_tomography(3))
    assert "survivors: ComplexHerm" in text
    assert "Albert: eliminated" in text
    assert "elided" in text


def test_trace_json_round_trips():
    trace = classify.survivors_injective_composite(3)
    assert json.loads(classify.trace_json(trace)) == trace


class _Level(enum.IntEnum):
    LOW = -3
    HIGH = 2**70


class _Name(str):
    pass


# Text with the characters JSON must escape, next to arbitrary code points.
_escapes = st.sampled_from('"\\/\n\t\x00\x1f\x7f\xe9\u2028')
_texts = st.text(alphabet=st.one_of(_escapes, st.characters()), max_size=12)
# int and str subclasses take the encoder's isinstance rules, not its
# exact-type table, and must still write what json.dumps writes
_scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                     st.integers(min_value=-(2**200), max_value=2**200),
                     _texts, st.sampled_from(_Level), st.builds(_Name, _texts))


def _containers(children):
    return st.one_of(st.lists(children, max_size=4),
                     st.dictionaries(_texts, children, max_size=4))


_trees = st.recursive(_scalars, _containers, max_leaves=25)


@st.composite
def _trees_with_sharing(draw):
    """A tree in which one non-empty container appears at depths 1 and 3."""
    shared = draw(st.one_of(st.lists(_trees, min_size=1, max_size=4),
                            st.dictionaries(_texts, _trees, min_size=1,
                                            max_size=4)))
    return {"shared": shared,
            "nested": [{"again": shared, "other": draw(_trees)}],
            "tree": draw(_trees)}


@st.composite
def _one_key_set_at_many_depths(draw):
    """Dicts with one key set, nested two to four deep, each inserting the
    keys in a drawn order: one dict layout at several depths, and one key
    set in several orders."""
    keys = draw(st.lists(_texts, min_size=1, max_size=4, unique=True))
    tree = draw(_scalars)
    for _ in range(draw(st.integers(2, 4))):
        order = draw(st.permutations(keys))
        values = [draw(_scalars) for _ in order]
        values[draw(st.integers(0, len(keys) - 1))] = tree
        tree = dict(zip(order, values))
    return [tree, {"again": tree}]


# bools next to the ints they equal, which an int-first dispatch would merge
_bools_beside_ints = st.lists(st.sampled_from([True, False, 0, 1, 2]),
                              min_size=2, max_size=8)


@given(tree=st.one_of(_trees, _trees_with_sharing(),
                      _one_key_set_at_many_depths(), _bools_beside_ints))
@settings(max_examples=150, deadline=None)
def test_trace_json_matches_stdlib(tree):
    assert classify.trace_json(tree) == json.dumps(tree, indent=2,
                                                   sort_keys=True)


def test_trace_json_keeps_no_state_between_calls():
    # the second trace's containers are likely to reuse the ids of the
    # first's, so a memo that outlived the first call would splice the
    # first trace's text into the second
    first = classify.survivors_injective_composite(3)
    classify.trace_json(first)
    del first
    second = classify.survivors_local_tomography(3)
    assert classify.trace_json(second) == json.dumps(second, indent=2,
                                                     sort_keys=True)


@pytest.mark.parametrize("obj", [{"x": [1, 0.5]}, {1: "one"}])
def test_trace_json_rejects_floats_and_non_str_keys(obj):
    with pytest.raises(TypeError):
        classify.trace_json(obj)


def test_trace_json_frees_its_pieces_without_the_cycle_collector():
    # an encoder that refers to itself keeps its pieces and its memo, some
    # 5 MB here, alive until the cycle collector runs
    trace = classify.survivors_local_tomography(5)
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        text = classify.trace_json(trace)
        assert len(text) > 10**6
        del text
        assert tracemalloc.get_traced_memory()[0] - before < 2**20
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()


def test_trace_json_peak_memory_stays_near_the_text():
    # pieces, memos and the joined text; one piece per scalar and key, as
    # an encoder without inline scalars writes, peaks above 3.3x
    trace = classify.survivors_local_tomography(5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        text = classify.trace_json(trace)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * len(text)


def test_max_rank_stops_where_the_record_table_is_complete():
    # spin members run to dim 4*max_rank**4, so max rank 9 would list
    # 26 243 spin cells; the oracle's record table (dim <= 10000) would
    # also lack QuatHerm of rank 81 (dim 13041)
    assert classify.MAX_RANK == 8
    for run in (classify.survivors_local_tomography,
                classify.survivors_injective_composite,
                lambda r: classify.survivors_classicality(r, 2)):
        with pytest.raises(ValueError, match="at most 8"):
            run(9)
    trace = classify.survivors_injective_composite(8)
    lists = {id(c["candidates"]): c["candidates"]
             for f in trace["families"].values() for c in f["cells"]}
    assert len(lists) == 7
    for cands in lists.values():
        assert set(classify.MATRIX_FAMILIES) <= {c["family"] for c in cands}


def test_candidates_built_once_per_required_rank(monkeypatch):
    calls = []
    candidates = classify._candidates

    def counting(rank, *args, **kwargs):
        calls.append(rank)
        return candidates(rank, *args, **kwargs)

    monkeypatch.setattr(classify, "_candidates", counting)
    trace = classify.survivors_local_tomography(8)
    cells = [c for f in trace["families"].values() for c in f["cells"]]
    assert len(cells) > 16000
    assert sorted(calls) == [4, 9, 16, 25, 36, 49, 64]
    assert {c["required_rank"] for c in cells} == set(calls)
