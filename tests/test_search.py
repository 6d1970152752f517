import ast
import concurrent.futures
import functools
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from modgrid import search
from modgrid.census import count_quadruples, count_triples, transversal_points
from modgrid.constructions import g_permutation, inverse_permutation
from modgrid.errors import BoundExceeded, CheckpointMismatch, NonPrimeModulus, OutOfRange
from modgrid.geometry import CollinearityMode
from modgrid.geometry import collinear_triple
from modgrid.modring import is_prime
from modgrid.packing import psi_lower_bound
from modgrid.search import (
    _LEVEL_CUT,
    BRUTE_FORCE_BOUND,
    SEARCH_BOUND,
    SearchBudget,
    _grid_step,
    _Placement,
    _orbit_min,
    _psi_branches,
    ct0_subsets,
    lex_least_with_count,
    max_triple_free_subset,
    max_triples_quadfree_transversal,
    psi,
    psi_brute_force,
    verify_theorem1,
)
from modgrid.verification import PSI_TABLE

ANY = CollinearityMode.ANY_LINE
UNIT = CollinearityMode.UNIT_LINE

# minimum triple counts under the default (unit-line) semantics
PSI_SMALL = {1: 0, 2: 0, 3: 1, 4: 0, 5: 2, 6: 0, 7: 3, 8: 0, 9: 5, 10: 2}


@pytest.mark.parametrize("n,expected", sorted(PSI_SMALL.items()))
def test_psi_small_values(n, expected):
    out = psi(n)
    assert out.exact
    assert out.value == expected
    assert count_triples(transversal_points(out.witness), n) == expected


def test_psi_11():
    out = psi(11)
    assert out.exact and out.value == 5


def test_psi_16_matches_the_table():
    out = psi(16)
    assert (out.value, out.exact) == (PSI_TABLE[16], True)


def test_psi_mode_sensitivity():
    assert psi(9, mode=UNIT).value == 5
    assert psi(9, mode=ANY).value == 12
    assert psi(10, mode=UNIT).value == 2
    assert psi(10, mode=ANY).value == 60


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("mode", [ANY, UNIT])
def test_pruned_search_matches_brute_force(n, mode):
    assert psi(n, mode=mode).value == psi_brute_force(n, mode).value


@functools.lru_cache(maxsize=None)
def _brute_force(n, mode):
    """(value, lex-least witness) of plain enumeration, once per (n, mode)."""
    out = psi_brute_force(n, mode)
    return out.value, out.witness


@pytest.mark.parametrize("n", range(1, 9))
def test_psi_witness_is_lex_least_optimum(n):
    for mode in (UNIT, ANY):
        want = _brute_force(n, mode)
        for reduction in ("canonical", "full"):
            out = psi(n, mode, reduction=reduction)
            assert out.exact and (out.value, out.witness) == want, (mode, reduction)


def test_psi_workers_agree():
    serial = psi(9)
    parallel = psi(9, budget=SearchBudget(workers=8))
    assert serial.value == parallel.value == 5
    assert count_triples(transversal_points(parallel.witness), 9) == 5


def test_psi_budget_yields_inexact_upper_bound():
    out = psi(9, budget=SearchBudget(max_nodes=500))
    assert not out.exact
    assert out.note
    assert out.value >= 5  # upper bound on the true optimum
    assert count_triples(transversal_points(out.witness), 9) == out.value


def test_psi_checkpoint_roundtrip(tmp_path):
    for reduction in ("canonical", "full"):
        path = str(tmp_path / f"{reduction}.json")
        ref = psi(9, reduction=reduction)
        max_nodes = 20000 if reduction == "full" else ref.nodes_explored // 4
        partial = psi(9, budget=SearchBudget(max_nodes=max_nodes), checkpoint=path,
                      reduction=reduction)
        assert not partial.exact
        with open(path) as fh:
            data = json.load(fh)
        assert data["n"] == 9 and data["version"] == 2 and data["reduction"] == reduction
        # every reduction writes one entry format
        assert data["remaining"] and all(set(e) == {"anchor", "prefix"}
                                         for e in data["remaining"])
        # auto resumes with the reduction the checkpoint records
        resumed = psi(9, checkpoint=path)
        assert resumed.exact and resumed.value == 5


# lex-least optimal witnesses; no pruning rule may change them
LEX_LEAST_WITNESSES = {
    (9, UNIT): [0, 1, 2, 6, 7, 8, 4, 5, 3],
    (10, UNIT): [0, 1, 3, 7, 2, 6, 5, 9, 4, 8],
    (11, UNIT): [0, 1, 2, 7, 5, 4, 10, 3, 9, 8, 6],
    (12, UNIT): [0, 1, 3, 9, 11, 6, 5, 10, 2, 4, 8, 7],
    (8, ANY): [0, 1, 2, 3, 5, 4, 7, 6],
    (9, ANY): [0, 1, 2, 4, 3, 6, 5, 8, 7],
}


@pytest.mark.parametrize("n,mode", sorted(LEX_LEAST_WITNESSES))
def test_psi_witness_pinned(n, mode):
    out = psi(n, mode=mode)
    assert out.exact
    assert out.witness == LEX_LEAST_WITNESSES[(n, mode)]


def _bound_case(n, mode, prefix):
    """(cnt, node bound, {v: child bound}) of the engine at ``prefix``."""
    engine = _Placement(n, mode)
    A, _, cnt, _ = engine.root(prefix)
    rows = engine.counts(A, len(prefix))
    node = cnt + sum(map(min, rows))
    assert engine.root_bounds([(0, prefix)]) == {(0, prefix): node}
    rest = sum(map(min, rows[1:]))
    children = {v: cnt + rows[0][v] + rest for v in range(n) if v not in prefix}
    return cnt, node, children


def _best_completion(n, mode, prefix):
    free = [v for v in range(n) if v not in prefix]
    return min(
        count_triples(transversal_points(list(prefix) + list(tail)), n, mode)
        for tail in itertools.permutations(free)
    )


@st.composite
def _prefixes(draw):
    n = draw(st.integers(3, 8))
    perm = draw(st.permutations(range(n)))
    # keep at most 5 free values, so brute force stays at 120 completions
    k = draw(st.integers(max(0, n - 5), n))
    return n, tuple(perm[:k])


@settings(max_examples=60, deadline=None)
@given(case=_prefixes(), mode=st.sampled_from([UNIT, ANY]))
def test_lookahead_bound_is_admissible(case, mode):
    n, prefix = case
    cnt, node, children = _bound_case(n, mode, prefix)
    assert cnt == count_triples(list(enumerate(prefix)), n, mode)
    assert node <= _best_completion(n, mode, prefix)
    for v, bound in children.items():
        assert bound <= _best_completion(n, mode, prefix + (v,))
    if len(prefix) == n:
        assert node == cnt


@functools.lru_cache(maxsize=None)
def _engine(n, mode):
    return _Placement(n, mode)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), mode=st.sampled_from([UNIT, ANY]))
def test_level_bound_matches_the_unpacked_rows(data, mode):
    # 8-bit fields up to n = 17, 16-bit from 18
    n = data.draw(st.integers(5, 19))
    engine = _engine(n, mode)
    # a canonical branch (min-ratio anchors and floors), or the quadruple-free
    # walk's root, extended by free cells
    quad = data.draw(st.booleans())
    anchor, prefix = (0, (0,)) if quad else data.draw(
        st.sampled_from(_psi_branches(engine, "canonical")))
    A, sigma, _, _ = engine.root(prefix, anchor, quad)
    for _ in range(data.draw(st.integers(0, n - 1 - len(sigma)))):
        free = [v for v, a in enumerate(engine.counts(A, len(sigma))[0]) if a < engine.used]
        if not free:
            break
        sigma += [data.draw(st.sampled_from(free))]
        A = engine.root(sigma, anchor, quad)[0]
    pos = len(sigma)
    assume(pos < n)
    rows = engine.counts(A, pos)
    mins = list(map(min, rows))
    full = engine.full_rows(A >> n * engine.field, pos + 1)
    assert bool(full) == (max(mins[1:], default=0) >= engine.used)
    # a row with no free cell has no minimum, at either width
    total = math.inf if max(mins) >= engine.used else sum(mins)
    assert engine.minima(A, pos) == total
    slack = data.draw(st.integers(0, _LEVEL_CUT))
    rest, row = engine.bound(A, pos, slack)
    if total > slack:
        assert (rest, row) == (0, None)
    else:
        assert (rest, row) == (total - mins[0], rows[0])
    assert engine.bound(A, pos, math.inf) == (total - mins[0], rows[0])


# an int is a node budget for the "full" reduction, whose node counts it was
# chosen for; a float is a fraction of the nodes of the uninterrupted
# default run
@pytest.mark.parametrize("n", [9, 10, 11])
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("max_nodes", [50, 3000, 12000, 0.01, 0.25, 0.6])
def test_interrupted_resume_matches_uninterrupted(tmp_path, n, workers, max_nodes):
    reduction = "full" if isinstance(max_nodes, int) else "auto"
    ref = psi(n, reduction=reduction)
    if isinstance(max_nodes, float):
        max_nodes = round(max_nodes * ref.nodes_explored)
    path = str(tmp_path / "ckpt.json")
    budget = SearchBudget(max_nodes=max_nodes, workers=workers)
    partial = psi(n, budget=budget, checkpoint=path, reduction=reduction)
    assert not partial.exact
    # one node budget for the whole search, however many workers share it
    assert partial.nodes_explored <= max_nodes
    with open(path) as fh:
        assert json.load(fh)["remaining"]
    psi(n, budget=budget, checkpoint=path, reduction=reduction)  # a second interrupted leg
    resumed = psi(n, budget=SearchBudget(workers=workers), checkpoint=path,
                  reduction=reduction)
    assert (resumed.value, resumed.exact, resumed.witness) == (ref.value, True, ref.witness)


def test_resume_holding_a_lex_greater_witness_finds_the_lex_least(tmp_path):
    ref = psi(9)
    w = ref.witness
    # images of the optimum under y -> -y and under a column shift
    held_elsewhere = [(-y) % 9 for y in w]  # in branch (0, 8)
    held_inside = [(w[(x + 1) % 9] - w[1]) % 9 for x in range(9)]  # in branch (0, 1)
    for held in (held_elsewhere, held_inside):
        assert held > w and count_triples(transversal_points(held), 9) == ref.value
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "version": 2, "n": 9, "mode": "unit", "reduction": "full",
            "best": ref.value, "witness": held,
            "remaining": [{"anchor": 0, "prefix": [0, v]} for v in range(1, 9)],
        }))
        resumed = psi(9, checkpoint=str(path))
        assert (resumed.value, resumed.exact, resumed.witness) == (ref.value, True, w)


# a checkpoint of the form a run without the transpose prune writes: an
# incumbent, here the seed, and a tail of the canonical branches, those
# before it taken as finished without the prune
@pytest.mark.parametrize("p", [11, 13])
def test_resume_from_a_checkpoint_written_before_the_transpose_prune(tmp_path, p):
    ref = psi(p)
    seed = inverse_permutation(p)
    branches = _psi_branches(_Placement(p, UNIT), "canonical")
    for start in (0, 1, len(branches) // 2, len(branches) - 1):
        path = tmp_path / f"ckpt{start}.json"
        path.write_text(json.dumps({
            "version": 2, "n": p, "mode": "unit", "reduction": "canonical",
            "best": count_triples(transversal_points(seed), p), "witness": seed,
            "remaining": [{"anchor": a, "prefix": list(b)} for a, b in branches[start:]],
        }))
        resumed = psi(p, checkpoint=str(path))
        assert (resumed.value, resumed.exact, resumed.witness) == (ref.value, True, ref.witness)


def _root_bound(n, branch):
    """The look-ahead bound at the root of a canonical branch, from the
    engine's cost matrix."""
    engine = _Placement(n, UNIT)
    anchor, prefix = branch
    A, _, count, _ = engine.root(prefix, anchor)
    return count + sum(min(row) for row in engine.counts(A, len(prefix)))


# the root bounds differ at both n, so the two orders differ
@pytest.mark.parametrize("n", [7, 12])
def test_fresh_checkpoint_lists_root_bound_order_at_composite_n_only(tmp_path, n):
    path = tmp_path / "ckpt.json"
    # no node is granted, so the first branch aborts and every branch remains
    assert not psi(n, budget=SearchBudget(max_nodes=0), checkpoint=str(path)).exact
    listed = [(e["anchor"], tuple(e["prefix"])) for e in json.loads(path.read_text())["remaining"]]
    lex = _psi_branches(_Placement(n, UNIT), "canonical")
    # a stable sort: equal bounds keep lex order
    by_bound = sorted(lex, key=lambda b: _root_bound(n, b))
    assert by_bound != lex
    assert listed == (lex if is_prime(n) else by_bound)


@pytest.mark.parametrize("n,mode,reduction", [
    (9, ANY, "canonical"), (10, ANY, "canonical"), (12, UNIT, "canonical"),
    (12, ANY, "canonical"), (15, UNIT, "canonical"), (12, UNIT, "full"),
    (10, UNIT, "full"), (11, UNIT, "canonical"),
])
def test_root_bounds_equal_roots_placed_from_scratch(n, mode, reduction):
    engine = _Placement(n, mode)
    branches = _psi_branches(engine, reduction)
    # in no order, as a resumed checkpoint may list them
    random.Random(n).shuffle(branches)
    fresh = _Placement(n, mode)
    want = {}
    for anchor, prefix in branches:
        A, _, count, _ = fresh.root(prefix, anchor)
        mins = list(map(min, fresh.counts(A, len(prefix))))
        # a row with no free cell has no minimum
        want[anchor, prefix] = count + (sum(mins) if max(mins) < fresh.used else math.inf)
    assert engine.root_bounds(branches) == want


def test_resume_from_a_lex_ordered_checkpoint(tmp_path):
    # a checkpoint listing its branches in lex order, as written before the
    # branches were ordered by their root bound
    ref = psi(12)
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({
        "version": 2, "n": 12, "mode": "unit", "reduction": "canonical",
        "best": None, "witness": None,
        "remaining": [{"anchor": a, "prefix": list(p)}
                      for a, p in _psi_branches(_Placement(12, UNIT), "canonical")],
    }))
    resumed = psi(12, checkpoint=str(path))
    assert (resumed.value, resumed.exact, resumed.witness, resumed.nodes_explored) == (
        ref.value, True, ref.witness, ref.nodes_explored)


def test_transversal_search_bound():
    # the largest prime under the bound builds its tables and runs budgeted
    out = psi(127, budget=SearchBudget(max_nodes=2000))
    assert not out.exact and out.nodes_explored == 2000
    assert out.value == count_triples(transversal_points(out.witness), 127)
    with pytest.raises(BoundExceeded):
        psi(SEARCH_BOUND + 3)
    with pytest.raises(BoundExceeded):
        lex_least_with_count(SEARCH_BOUND + 3)


SEARCHES = [
    psi, lex_least_with_count, max_triples_quadfree_transversal, ct0_subsets,
    max_triple_free_subset, psi_brute_force,
]


@pytest.mark.parametrize("search", SEARCHES)
def test_searches_reject_composite_n_above_bound(search):
    for n in (SEARCH_BOUND + 2, SEARCH_BOUND + 3):
        with pytest.raises(BoundExceeded):
            search(n)


def test_searches_accept_composite_n_above_64_under_a_budget():
    out = psi(66, budget=SearchBudget(max_nodes=500))
    assert (out.exact, out.nodes_explored) == (False, 500)
    assert out.value == count_triples(transversal_points(out.witness), 66)
    for run, n, max_nodes in [(max_triples_quadfree_transversal, 66, 200),
                              (ct0_subsets, 66, 50), (max_triple_free_subset, 66, 50),
                              (max_triple_free_subset, 127, 50), (lex_least_with_count, 66, 50)]:
        out = run(n, budget=SearchBudget(max_nodes=max_nodes))
        assert (out.exact, out.nodes_explored) == (False, max_nodes), (run, n)


@pytest.mark.parametrize("search", SEARCHES)
def test_searches_reject_n_below_one(search):
    with pytest.raises(OutOfRange):
        search(0)


def test_psi_brute_force_bound():
    with pytest.raises(BoundExceeded):
        psi_brute_force(BRUTE_FORCE_BOUND + 1)


BUDGETED_SEARCHES = {
    "psi": lambda budget: psi(9, budget=budget),
    "lex_least": lambda budget: lex_least_with_count(7, budget=budget),
    "quadfree": lambda budget: max_triples_quadfree_transversal(9, budget=budget),
    "ct0_exact": lambda budget: ct0_subsets(4, budget=budget),
    "ct0_prime": lambda budget: ct0_subsets(5, budget=budget),
    "triple_free": lambda budget: max_triple_free_subset(4, budget=budget),
}


@pytest.mark.parametrize("name", sorted(BUDGETED_SEARCHES))
def test_negative_budgets_are_rejected(name):
    for budget in ({"max_nodes": -1}, {"max_time": -1.0}, {"max_time": float("nan")}):
        with pytest.raises(OutOfRange):
            BUDGETED_SEARCHES[name](SearchBudget(**budget))
        with pytest.raises(OutOfRange):
            psi(2, budget=SearchBudget(**budget))


@pytest.mark.parametrize("name", sorted(BUDGETED_SEARCHES))
def test_max_nodes_is_an_exact_cap(name):
    run = BUDGETED_SEARCHES[name]
    out = run(SearchBudget(max_nodes=10))
    assert not out.exact and out.nodes_explored == 10
    timed = run(SearchBudget(max_time=0.0))
    assert not timed.exact and timed.nodes_explored == 0


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 10, 12])
@pytest.mark.parametrize("mode", [ANY, UNIT])
def test_composite_masks_match_closed_form(n, mode):
    # pairs[dx*2n + n + e], e = dy or dy - n, marks the cells (t, f),
    # 1 <= t < n, collinear with P = (0, 0) and Q = (-dx, -dy); row t - 1
    # stands for column t, and the cell (n - dx, -dy) is Q itself
    engine = _Placement(n, mode)
    for dx in range(1, n):
        for e in range(-n, n):
            rows = engine.counts(engine.pairs[dx * 2 * n + n + e])
            q = (-dx % n, -e % n)
            want = [[int(t < n and ((t, f) == q or collinear_triple(q, (0, 0), (t, f), n, mode)))
                     for f in range(n)] for t in range(1, n + 1)]
            assert rows == want, (n, mode, dx, e)


@pytest.mark.parametrize("n,mode", [(7, UNIT), (9, UNIT), (10, UNIT), (11, UNIT), (10, ANY)])
@pytest.mark.parametrize("workers", [1, 2])
def test_resume_after_an_abort_one_node_short(tmp_path, n, mode, workers):
    ref = psi(n, mode)
    path = str(tmp_path / "ckpt.json")
    # a pool explores at least the serial nodes, since each of its branches
    # starts from an incumbent no better than the serial one
    budget = SearchBudget(max_nodes=ref.nodes_explored - 1, workers=workers)
    partial = psi(n, mode, budget=budget, checkpoint=path)
    assert not partial.exact
    assert count_triples(transversal_points(partial.witness), n, mode) == partial.value
    with open(path) as fh:
        assert json.load(fh)["remaining"]
    resumed = psi(n, mode, budget=SearchBudget(workers=workers), checkpoint=path)
    assert (resumed.value, resumed.exact, resumed.witness) == (ref.value, True, ref.witness)
    if workers == 1:
        # the branches that finished before the abort are not searched again
        assert resumed.nodes_explored < ref.nodes_explored


def test_psi_checkpoint_mismatch(tmp_path):
    path = str(tmp_path / "ckpt.json")
    psi(7, budget=SearchBudget(max_nodes=50), checkpoint=path)
    with pytest.raises(CheckpointMismatch):
        psi(9, checkpoint=path)
    with pytest.raises(CheckpointMismatch):
        psi(7, checkpoint=path, reduction="full")
    assert psi(7, checkpoint=path, reduction="canonical").exact


def _replace(**fields):
    return lambda data: json.dumps({**data, **fields})


# each case breaks one part of a checkpoint written by an interrupted psi(7)
BAD_CHECKPOINTS = {
    "not json": lambda data: "{",
    "nested too deep": lambda data: "[" * 100_000,
    "version 1": _replace(version=1),
    "not an object": lambda data: "[]",
    "no remaining": lambda data: json.dumps({k: v for k, v in data.items() if k != "remaining"}),
    "remaining not a list": _replace(remaining=3),
    "entry without a prefix": _replace(remaining=[{"anchor": 2}]),
    "bare-prefix entry": _replace(remaining=[[0, 1, 2]]),
    "repeated value": _replace(remaining=[{"anchor": 2, "prefix": [0, 1, 1]}]),
    "value out of range": _replace(remaining=[{"anchor": 0, "prefix": [0, 7]}]),
    "anchor out of range": _replace(remaining=[{"anchor": 9, "prefix": [0, 1]}]),
    "null best with a witness": _replace(best=None),
    "witness not a permutation": _replace(witness=[0, 1, 1, 5, 2, 3, 6]),
    "witness of another count": _replace(best=1),
    "reduction translate": _replace(reduction="translate"),
    "reduction none": _replace(reduction="none"),
}


def _no_search(*args, **kwargs):
    raise AssertionError("a branch was searched")


@pytest.mark.parametrize("case", sorted(BAD_CHECKPOINTS))
def test_psi_rejects_a_bad_checkpoint(tmp_path, monkeypatch, case):
    path = tmp_path / "ckpt.json"
    psi(7, budget=SearchBudget(max_nodes=5), checkpoint=str(path))
    path.write_text(BAD_CHECKPOINTS[case](json.loads(path.read_text())))
    monkeypatch.setattr(search, "_search_branch", _no_search)
    with pytest.raises(CheckpointMismatch):
        psi(7, checkpoint=str(path))


# a null witness stands for no completion yet, so a file with a best value,
# or with no branch left, has lost its witness; at prime n it does not stand
# for the seed either, whose count is 5 at n = 11
@pytest.mark.parametrize("best,left", [(None, False), (5, True), (5, False)])
@pytest.mark.parametrize("n", [9, 11])
def test_psi_rejects_a_checkpoint_without_a_witness(tmp_path, monkeypatch, n, best, left):
    branches = _psi_branches(_Placement(n, UNIT), "canonical") if left else []
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({
        "version": 2, "n": n, "mode": "unit", "reduction": "canonical",
        "best": best, "witness": None,
        "remaining": [{"anchor": a, "prefix": list(p)} for a, p in branches],
    }))
    monkeypatch.setattr(search, "_search_branch", _no_search)
    with pytest.raises(CheckpointMismatch):
        psi(n, checkpoint=str(path))


# a null witness no longer stands for the prime seed, so neither a count
# other than the seed's (5 at n = 11) nor a null best goes with it
@pytest.mark.parametrize("best", [3, 9, None])
def test_psi_rejects_a_prime_checkpoint_whose_best_is_not_the_seed(tmp_path, monkeypatch, best):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({
        "version": 2, "n": 11, "mode": "unit", "reduction": "canonical",
        "best": best, "witness": None, "remaining": [],
    }))
    monkeypatch.setattr(search, "_search_branch", _no_search)
    with pytest.raises(CheckpointMismatch):
        psi(11, checkpoint=str(path))


# at n = 10 the branch (0, 2, 3) places 3 next to 2 at a unit gcd, below its
# floor 2, and (0, 1, 5, 2) is lex-rejected on the floor-1 branch (see
# test_a_flagged_prefix_is_one_pruned_node): neither holds a transversal
# that psi keeps, so a checkpoint that leaves only one of them has lost its
# witness
@pytest.mark.parametrize("anchor,prefix", [(2, [0, 2, 3]), (1, [0, 1, 5, 2])])
def test_psi_rejects_a_checkpoint_whose_branches_hold_no_transversal(tmp_path, anchor, prefix):
    path = tmp_path / "ckpt.json"
    path.write_text(json.dumps({
        "version": 2, "n": 10, "mode": "unit", "reduction": "canonical", "best": None,
        "witness": None, "remaining": [{"anchor": anchor, "prefix": prefix}],
    }))
    with pytest.raises(CheckpointMismatch):
        psi(10, checkpoint=str(path))


def test_psi_writes_its_checkpoint_before_the_first_branch(tmp_path, monkeypatch):
    monkeypatch.setattr(search, "_search_branch", _no_search)
    with pytest.raises(OSError):
        psi(7, checkpoint=str(tmp_path / "missing" / "ckpt.json"))
    path = tmp_path / "ckpt.json"
    psi(2, checkpoint=str(path))
    assert not path.exists()


# at n = 12 the floor 6 leaves column 2 only the values 0 and 6, both used
@pytest.mark.parametrize("n,anchors", [(11, {2, 3}), (12, {1, 2, 3, 4}), (13, {2, 3, 4})])
def test_canonical_checkpoint_entries_carry_their_anchor(tmp_path, n, anchors):
    path = str(tmp_path / "ckpt.json")
    psi(n, budget=SearchBudget(max_nodes=50), checkpoint=path)
    with open(path) as fh:
        data = json.load(fh)
    assert data["reduction"] == "canonical"
    branches = [{"anchor": a, "prefix": list(p)}
                for a, p in _psi_branches(_Placement(n, UNIT), "canonical")]
    assert data["remaining"] and all(e in branches for e in data["remaining"])
    # one branch per orbit representative r (prime n) or divisor d < n,
    # split at the third column
    assert {e["anchor"] for e in branches} == anchors
    assert all(len(e["prefix"]) == 3 for e in branches)


def _anchored_image(sigma, n, i, j):
    """The image of sigma under x -> (x - i)/(j - i), y -> (y - sigma(i))/(sigma(j) -
    sigma(i)) (n prime)."""
    s, t = pow(j - i, -1, n), pow(sigma[j] - sigma[i], -1, n)
    tau = [0] * n
    for x in range(n):
        tau[(x - i) * s % n] = (sigma[x] - sigma[i]) * t % n
    return tau


def _inverse(sigma):
    """sigma^-1, the transpose of sigma."""
    inv = [0] * len(sigma)
    for x, y in enumerate(sigma):
        inv[y] = x
    return inv


def _least_transpose(sigma):
    """The lesser of sigma and sigma^-1: the one the transpose prune keeps
    on a prime branch."""
    return min(sigma, _inverse(sigma))


def _anchored_triples(sigma, n, mode):
    """(r, i, j) for each ordered collinear triple i, j, k of sigma whose
    ratio r = (k - i)/(j - i) is the least of its orbit (n prime)."""
    omin = _orbit_min(n)
    return [(r, i, j) for i, j, k in itertools.permutations(range(n), 3)
            for r in [(k - i) * pow(j - i, -1, n) % n]
            if omin[r] == r and collinear_triple(*((x, sigma[x]) for x in (i, j, k)), n, mode)]


def _adjacent_images(sigma, n):
    """The images x -> c(sigma(i + e*x) - sigma(i)), e = +-1, of sigma over the
    column pairs (i, i + e) whose value step u is a unit, c = 1/u: each
    starts (0, 1)."""
    return [[c * (sigma[(i + e * x) % n] - sigma[i]) % n for x in range(n)]
            for i in range(n) for e in (1, -1)
            for u in [(sigma[(i + e) % n] - sigma[i]) % n] if math.gcd(u, n) == 1
            for c in [pow(u, -1, n)]]


def _canonical_image(sigma, n, mode):
    """(anchor, tau): the image of sigma that the canonical reduction keeps,
    mapped as in the search module docstring: at prime n a triple of the
    least ratio anchored, the lesser of it and its transpose, on the floor-1
    branch the lex-least adjacent image."""
    if is_prime(n):
        triples = _anchored_triples(sigma, n, mode)
        if not triples:
            raise AssertionError(f"{sigma} has no collinear triple")
        anchor, i, j = min(triples)
        return anchor, _least_transpose(_anchored_image(sigma, n, i, j))
    anchor, i, j = min((math.gcd(sigma[j] - sigma[i], n), i, j)
                       for i in range(n) for j in range(n)
                       if i != j and math.gcd(j - i, n) == 1)
    s = pow(j - i, -1, n)
    t = next(c for c in range(1, n)
             if math.gcd(c, n) == 1 and c * (sigma[j] - sigma[i]) % n == anchor)
    tau = [0] * n
    for x in range(n):
        tau[(x - i) * s % n] = (sigma[x] - sigma[i]) * t % n
    if anchor == 1:
        tau = min(_adjacent_images(tau, n))
    return anchor, tau


@settings(max_examples=200, deadline=None)
@given(data=st.data(), mode=st.sampled_from([UNIT, ANY]))
def test_canonical_image_passes_its_branch(data, mode):
    n = data.draw(st.integers(3, 8))
    sigma = data.draw(st.permutations(range(n)))
    anchor, tau = _canonical_image(sigma, n, mode)
    engine = _Placement(n, mode)
    assert (anchor, tuple(tau[:3])) in _psi_branches(engine, "canonical")
    # a blocked or pinned-out cell would add the used mark to the count
    _, _, count, _ = engine.root(tau, anchor)
    assert count == count_triples(transversal_points(sigma), n, mode)


@settings(max_examples=40, deadline=None)
@given(sigma=st.sampled_from([5, 7, 11, 13]).flatmap(lambda n: st.permutations(range(n))))
# about 1% of random transversals at n = 11 and 13 have no triple of ratio 2;
# these two have least ratio 3
@example(sigma=[10, 5, 2, 0, 7, 9, 4, 8, 3, 6, 1])
@example(sigma=[2, 3, 6, 1, 8, 9, 11, 10, 4, 7, 0, 5, 12])
def test_images_anchored_at_a_larger_ratio_are_blocked(sigma):
    # the min-ratio rule: an image passes branch r only when r is the least
    # ratio of sigma's triples; at any larger r a cell of it is blocked.
    # Each image is taken as the lesser of it and its transpose, which the
    # transpose prune never rejects
    n = len(sigma)
    triples = _anchored_triples(sigma, n, UNIT)
    least = min(r for r, _, _ in triples)
    engine = _Placement(n, UNIT)
    want = count_triples(transversal_points(sigma), n)
    for r, i, j in triples:
        _, _, count, _ = engine.root(_least_transpose(_anchored_image(sigma, n, i, j)), r)
        if r == least:
            assert count == want, (sigma, r, i, j)
        else:
            assert count >= engine.used, (sigma, r, i, j)


@settings(max_examples=300, deadline=None)
@given(sigma=st.sampled_from([5, 7, 11, 13]).flatmap(lambda n: st.permutations(range(n))))
# x -> 1/x is self-inverse: the state reaches n at the last column
@example(sigma=[0, 1, 7, 9, 10, 8, 11, 2, 5, 3, 4, 6, 12])
# sigma and sigma^-1 agree at positions 0-2 and differ at 3
@example(sigma=[0, 1, 2, 4, 6, 5, 3])
@example(sigma=[0, 1, 2, 6, 3, 5, 4])
def test_transpose_step_keeps_exactly_the_lesser_of_sigma_and_its_inverse(sigma):
    # the transpose state walked column by column, as the walk does: sigma
    # passes every column exactly when sigma <= sigma^-1, and a prune comes
    # at the first column by which both define every position up to the
    # first where they differ; position j is known to sigma at column j and
    # to sigma^-1 at column sigma^-1(j)
    n = len(sigma)
    inv = _inverse(sigma)
    engine = _Placement(n, UNIT)
    u, pruned_at = 0, None
    for pos, v in enumerate(sigma):
        u = engine.transpose(sigma[:pos], v, u)
        if u is None:
            pruned_at = pos
            break
    assert (pruned_at is None) == (sigma <= inv)
    if sigma == inv:
        assert u == n
    if pruned_at is not None:
        i = next(i for i in range(n) if sigma[i] != inv[i])
        assert sigma[i] > inv[i] and pruned_at == max(max(j, inv[j]) for j in range(i + 1))


@settings(max_examples=100, deadline=None)
@given(sigma=st.sampled_from([4, 6, 8, 9, 10]).flatmap(lambda n: st.permutations(range(n))),
       mode=st.sampled_from([UNIT, ANY]))
def test_images_at_a_floor_above_the_least_gcd_are_blocked(sigma, mode):
    # the composite floor: an image of a unit-distance pair (i, j) with
    # gcd(sigma(j) - sigma(i), n) = d passes branch d only when d is
    # sigma's floor; above it, a pair at a smaller gcd blocks a cell
    n = len(sigma)
    pairs = [(math.gcd(sigma[j] - sigma[i], n), i, j) for i in range(n) for j in range(n)
             if i != j and math.gcd(j - i, n) == 1]
    floor = min(d for d, _, _ in pairs)
    engine = _Placement(n, mode)
    want = count_triples(transversal_points(sigma), n, mode)
    for d, i, j in pairs:
        if d == 1:
            continue
        s = pow(j - i, -1, n)
        c = next(c for c in range(1, n)
                 if math.gcd(c, n) == 1 and c * (sigma[j] - sigma[i]) % n == d)
        tau = [0] * n
        for x in range(n):
            tau[(x - i) * s % n] = (sigma[x] - sigma[i]) * c % n
        _, _, count, _ = engine.root(tau, d)
        if d == floor:
            assert count == want, (sigma, d, i, j)
        else:
            assert count >= engine.used, (sigma, d, i, j)


@pytest.mark.parametrize("mode", [UNIT, ANY])
def test_each_floor_mask_is_built_once_per_psi_call(monkeypatch, mode):
    # the floors of n = 12 are its divisors d < 12; the root-bound order
    # interleaves them, and a mask rebuilt per branch would show here
    built, inside = [], []
    tables, mask = _Placement.tables, _Placement.mask

    def spy_tables(self, anchor):
        inside.append(anchor)
        try:
            return tables(self, anchor)
        finally:
            inside.pop()

    def spy_mask(self, *args, **kwargs):
        if inside:
            built.append(inside[-1])
        return mask(self, *args, **kwargs)

    monkeypatch.setattr(_Placement, "tables", spy_tables)
    monkeypatch.setattr(_Placement, "mask", spy_mask)
    assert psi(12, mode).exact
    assert sorted(built) == [1, 2, 3, 4, 6]


@pytest.mark.parametrize("n", [11, 12, 13])
def test_tables_are_the_same_after_another_anchor(n):
    # at prime n the tables of one anchor are kept at a time, at composite n
    # those of every floor; either way a table built after another anchor's
    # must be the one a fresh engine builds
    anchors = sorted({0} | {a for a, _ in _psi_branches(_Placement(n, UNIT), "canonical")})
    engine = _Placement(n, UNIT)
    for a, other in itertools.permutations(anchors, 2):
        engine.tables(other)
        assert engine.tables(a) == _Placement(n, UNIT).tables(a), (a, other)


class _InlinePool:
    """A stand-in for ProcessPoolExecutor that runs each submitted call at
    once in this process and records the pool sizes asked for."""

    sizes: list = []

    def __init__(self, max_workers, initializer, initargs):
        self.sizes.append(max_workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("workers,cores,size", [
    (10**6, 64, None), (10**6, 2, 2), (3, 64, 3), (10**6, 1, 0), (10**6, None, 0),
])
def test_psi_pool_is_no_larger_than_its_branches_or_cores(monkeypatch, workers, cores, size):
    # size None: one worker per branch; 0: the serial loop, no pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    monkeypatch.setattr(search.os, "cpu_count", lambda: cores)
    monkeypatch.setattr(search, "_pool_engine", None)
    monkeypatch.setattr(search, "_pool_budget", None)
    branches = len(_psi_branches(_Placement(10, UNIT), "canonical"))
    out = psi(10, budget=SearchBudget(workers=workers))
    assert _InlinePool.sizes == ([] if size == 0 else [size or branches])
    assert (out.value, out.exact, out.witness) == (2, True, LEX_LEAST_WITNESSES[10, UNIT])


#: the package's source directory, put first on a child's path
SRC = str(Path(search.__file__).resolve().parent.parent)
#: the modules only pooled or checkpointed psi needs
POOL_AND_JSON = ("multiprocessing", "concurrent.futures", "json")


def _fresh(code: str, *args: str) -> object:
    """The value ``code`` prints as a literal, run in an interpreter that
    skips ``site`` and has imported nothing of this test's process."""
    lines = f"import sys\nsys.path.insert(0, {SRC!r})\n{code}"
    out = subprocess.run([sys.executable, "-S", "-c", lines, *args],
                         check=True, capture_output=True, text=True, timeout=60)
    return ast.literal_eval(out.stdout)


@pytest.mark.parametrize("module,absent", [
    ("modgrid", POOL_AND_JSON),
    # the CLI prints JSON itself
    ("modgrid.cli", POOL_AND_JSON[:2]),
])
def test_import_leaves_the_pool_and_json_modules_unloaded(module, absent):
    loaded = _fresh(f"import {module}\nprint([m for m in {absent!r} if m in sys.modules])")
    assert loaded == []


def test_pooled_checkpointed_psi_runs_from_a_cold_import(tmp_path):
    # this process has the pool and JSON modules loaded already, so psi
    # using a submodule that only pytest imported would pass here; a fresh
    # process shows that psi's own imports load all it needs
    path = str(tmp_path / "ckpt.json")
    cut, value, exact, witness, loaded = _fresh(
        "from modgrid import SearchBudget, psi\n"
        "cut = psi(10, budget=SearchBudget(workers=2, max_nodes=1000), checkpoint=sys.argv[1])\n"
        "out = psi(10, budget=SearchBudget(workers=2), checkpoint=sys.argv[1])\n"
        "print((cut.exact, out.value, out.exact, out.witness,"
        f" [m for m in {POOL_AND_JSON!r} if m in sys.modules]))",
        path)
    assert not cut
    assert (value, exact, witness) == (2, True, LEX_LEAST_WITNESSES[10, UNIT])
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    assert (data["version"], data["remaining"]) == (2, [])
    # one core runs the branches serially, without a pool
    pooled = (os.cpu_count() or 1) > 1
    assert loaded == list(POOL_AND_JSON if pooled else POOL_AND_JSON[2:])


@pytest.mark.parametrize("workers", [0, -2])
def test_workers_below_one_are_rejected(workers):
    with pytest.raises(OutOfRange):
        SearchBudget(workers=workers)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), mode=st.sampled_from([UNIT, ANY]))
def test_lex_least_adjacent_image_passes_the_floor_one_branch(data, mode):
    n = data.draw(st.sampled_from([4, 6, 8, 9, 10]))
    sigma = data.draw(st.permutations(range(n)))
    images = _adjacent_images(sigma, n)
    assume(images)
    tau = min(images)
    engine = _Placement(n, mode)
    # an image that beats a prefix of tau would add the used mark
    _, _, count, ties = engine.root(tau, 1)
    assert count == count_triples(transversal_points(sigma), n, mode)
    assert ties is not None


def test_every_count_is_below_the_used_mark():
    for n in range(1, SEARCH_BOUND + 1):
        assert math.comb(n - 1, 2) < 1 << search._field_bits(n) - 1
    assert [search._field_bits(n) for n in (17, 18)] == [8, 16]
    for n in (17, 18):
        engine = _engine(n, UNIT)
        assert engine.used == 1 << engine.field - 1 > math.comb(n - 1, 2)


# at n = 10, (0, 2, 3) places a cell blocked by the floor 2, and (0, 1, 5, 2)
# is beaten by the -1 image at column 3, which starts (0, 1, 3)
@pytest.mark.parametrize("anchor,prefix", [(2, (0, 2, 3)), (1, (0, 1, 5, 2))])
@pytest.mark.parametrize("limit", [200, math.inf])
def test_a_flagged_prefix_is_one_pruned_node(anchor, prefix, limit):
    engine = _engine(10, UNIT)
    assert engine.root(prefix, anchor)[2] == math.inf
    out = search._search_branch(engine, prefix, limit, search._NodeBudget(None, 0), anchor=anchor)
    assert out == (None, None, 0, 1, False)


# (12, ANY) is left out: "full" takes 29M nodes, about 45 s, there.  At
# composite n "full" only translates, fixing sigma(0) = 0
@pytest.mark.parametrize("n,mode", [(n, m) for n in range(3, 13) for m in (UNIT, ANY)
                                    if (n, m) != (12, ANY)])
def test_canonical_matches_full_and_translate(n, mode):
    canonical = psi(n, mode, reduction="canonical")
    full = psi(n, mode, reduction="full")
    assert (canonical.value, canonical.exact, canonical.witness) == (
        full.value, full.exact, full.witness)


# the transpose prune runs on the canonical prime branches only, so "full"
# is the independent check of it, serial and pooled
@pytest.mark.parametrize("workers", [1, 2])
def test_canonical_matches_full_at_13(workers):
    budget = SearchBudget(workers=workers)
    canonical = psi(13, budget=budget)
    full = psi(13, budget=budget, reduction="full")
    assert (canonical.value, canonical.exact, canonical.witness) == (
        full.value, full.exact, full.witness)


# branches finish out of order in a pool; the tie rule still merges them to
# the serial witness
@pytest.mark.parametrize("n,mode", [(9, UNIT), (10, UNIT), (11, UNIT), (12, UNIT), (13, UNIT),
                                    (9, ANY), (10, ANY), (11, ANY)])
def test_pooled_psi_matches_serial(n, mode):
    serial = psi(n, mode)
    pooled = psi(n, mode, budget=SearchBudget(workers=2))
    assert (pooled.value, pooled.exact, pooled.witness) == (
        serial.value, serial.exact, serial.witness)


# the canonical reduction's node counts (README); a larger count means a
# prune was lost. test_tie_rule_node_counts pins the exact counts
@pytest.mark.parametrize("n,mode,most", [(11, UNIT, 6_000), (13, UNIT, 84_000), (10, ANY, 33_000)])
def test_canonical_node_counts(n, mode, most):
    assert psi(n, mode).nodes_explored <= most


# psi's node counts under the canonical reduction, the tie rule and the
# branch order (root-bound at composite n, lex at prime n), as in README and
# tools/bench.py: a lost prune, a branch run below a tie it could have
# kept, a witness walk run again or a change of branch order shows here
@pytest.mark.parametrize("n,mode,nodes", [(9, UNIT, 1_193), (10, UNIT, 2_824),
                                          (11, UNIT, 3_456), (12, UNIT, 13_022),
                                          (13, UNIT, 47_101), (9, ANY, 1_268),
                                          (10, ANY, 21_741)])
def test_tie_rule_node_counts(n, mode, nodes):
    assert psi(n, mode).nodes_explored == nodes


# psi's node and pruned counts under the "full" reduction at composite n,
# where the walk starts with no limit: a node keeps its later rows' minima
# for the children that follow a completion below it, which lowers the
# limit (a walk that dropped them took 35,788 nodes at (9, any))
@pytest.mark.parametrize("n,mode,nodes,pruned", [(8, ANY, 10_677, 4_751),
                                                 (9, UNIT, 27_186, 18_348),
                                                 (9, ANY, 35_785, 19_733),
                                                 (10, UNIT, 35_583, 26_968)])
def test_full_reduction_node_counts(n, mode, nodes, pruned):
    out = psi(n, mode, reduction="full")
    assert (out.nodes_explored, out.nodes_pruned) == (nodes, pruned)


# a bulk-counted node (every child over the limit) is charged in one step
# only when the slice already granted holds it: at k = 9 and 9_020 the
# budget ends inside one, at 4_098 and 5_000 one spans the end of the first
# 4_096-node slice
@pytest.mark.parametrize("k", [1, 9, 4_095, 4_098, 5_000, 9_020, 47_100])
def test_psi_budget_is_an_exact_cap_across_bulk_counted_nodes(k):
    out = psi(13, budget=SearchBudget(max_nodes=k))
    assert (out.exact, out.nodes_explored) == (False, k)
    assert psi(13, budget=SearchBudget(max_nodes=47_101)).exact


def test_psi_rejects_unknown_reduction():
    for reduction in ("transpose", "translate", "none"):
        with pytest.raises(OutOfRange):
            psi(5, reduction=reduction)


def test_lex_least_examples():
    out3 = lex_least_with_count(3)
    assert out3.found and out3.witness == [0, 1, 2] == g_permutation(3)
    out5 = lex_least_with_count(5)
    assert out5.witness == [0, 1, 2, 4, 3] == g_permutation(5)
    out7 = lex_least_with_count(7)
    assert out7.witness == g_permutation(7)
    assert count_triples(transversal_points(out7.witness), 7) == 3


def test_lex_least_not_found():
    # no transversal mod 5 has exactly 1 triple (the minimum is 2), and none
    # mod 4 has 1 (the counts are 0 and 4)
    for n, target in ((5, 1), (4, None)):
        out = lex_least_with_count(n, target)
        assert not out.found and out.witness is None and out.exact


# the lex-least rule's node counts (README): the default target is hit on
# branch r = 2, with no walk from the empty prefix; a target below psi
# (11, 4 and 13, 5) or above the seed's count (11, 6) is refuted on the
# canonical branches alone
@pytest.mark.parametrize("p,target,nodes", [(11, None, 1_850), (13, None, 26_392),
                                            (11, 4, 2_673), (13, 5, 36_646), (11, 6, 5_893)])
def test_lex_least_node_counts(p, target, nodes):
    out = lex_least_with_count(p, target, budget=SearchBudget(max_nodes=100_000))
    assert (out.exact, out.nodes_explored) == (True, nodes)
    found = target is None
    assert (out.found, out.witness) == (found, g_permutation(p) if found else None)


@functools.lru_cache(maxsize=None)
def _first_of_each_count(n, mode):
    """count -> the first permutation of itertools.permutations with it."""
    first = {}
    for perm in itertools.permutations(range(n)):
        first.setdefault(count_triples(list(enumerate(perm)), n, mode), list(perm))
    return first


# the lex-least rule at composite n rests on the floor and the floor-1
# prune, with no walk from the empty prefix; n <= 2 has the one branch
# (0, ..., n-1), and C(n, 3), the identity's count, is the largest
@pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
@pytest.mark.parametrize("mode", [UNIT, ANY])
def test_lex_least_matches_brute_force_off_odd_primes(n, mode):
    first = _first_of_each_count(n, mode)
    assert max(first) == math.comb(n, 3)
    for target in range(max(first) + 2):
        out = lex_least_with_count(n, target, mode=mode)
        assert (out.exact, out.found, out.witness) == (
            True, target in first, first.get(target)), target


@pytest.mark.parametrize("n,mode", [(n, UNIT) for n in (4, 6, 8, 9, 10, 12)]
                         + [(n, ANY) for n in (4, 6, 8, 9, 10)])
def test_lex_least_at_psi_value_is_psi_witness(n, mode):
    best = psi(n, mode)
    out = lex_least_with_count(n, best.value, mode=mode)
    assert (out.exact, out.found, out.witness) == (True, True, best.witness)


# the lex-least rule's walk from the empty prefix, which no prime target of
# psi or lex_least_with_count has been seen to need: at prime n a witness
# that does not start (0, 1, 2) gives way to the first transversal with its
# count; one that does, or any witness at composite n, is kept
@pytest.mark.parametrize("mode", [UNIT, ANY])
def test_lex_least_step_walks_from_the_empty_prefix_at_prime_n(mode):
    budget = search._NodeBudget(None, 0)
    for count, least in _first_of_each_count(7, mode).items():
        witness, nodes, _, aborted = search._lex_least(
            _engine(7, mode), [6, 5, 4, 3, 2, 1, 0], count, budget)
        assert (witness, aborted) == (least, False) and nodes > 0
    for n, witness in ((7, [0, 1, 2, 4, 3, 6, 5]), (8, [7, 6, 5, 4, 3, 2, 1, 0])):
        assert search._lex_least(_engine(n, mode), witness, 0, budget) == (witness, 0, 0, False)


# no transversal has a count outside 0..C(n, 3); such a target is refuted
# without a search
@pytest.mark.parametrize("n,target", [(13, 287), (7, -1), (128, math.comb(128, 3) + 1)])
def test_lex_least_target_out_of_range_is_refuted_at_once(n, target):
    out = lex_least_with_count(n, target)
    assert (out.exact, out.found, out.witness, out.nodes_explored) == (True, False, None, 0)


def test_quadfree_transversal_examples():
    out5 = max_triples_quadfree_transversal(5)
    assert out5.exact and out5.value == 2
    out7 = max_triples_quadfree_transversal(7)
    assert out7.exact and out7.value == 6
    pts = transversal_points(out7.witness)
    assert count_triples(pts, 7) == 6 and count_quadruples(pts, 7) == 0


@pytest.mark.parametrize("n", range(2, 8))
def test_quadfree_transversal_bound(n):
    out = max_triples_quadfree_transversal(n)
    assert out.exact
    assert out.value <= n * (n - 1) // 6


# (value, witness) of max_triples_quadfree_transversal as its own DFS found
# them, before it ran on _Placement; None where no transversal is
# quadruple-free
QUADFREE = {
    (1, UNIT): (0, [0]),
    (2, UNIT): (0, [0, 1]),
    (3, UNIT): (1, [0, 1, 2]),
    (4, UNIT): (0, [0, 1, 3, 2]),
    (5, UNIT): (2, [0, 1, 2, 4, 3]),
    (6, UNIT): (4, [0, 1, 3, 5, 4, 2]),
    (7, UNIT): (6, [0, 1, 2, 5, 6, 4, 3]),
    (8, UNIT): (8, [0, 1, 3, 2, 4, 6, 7, 5]),
    (9, UNIT): (12, [0, 1, 2, 6, 7, 8, 3, 4, 5]),
    (1, ANY): (0, [0]),
    (2, ANY): (0, [0, 1]),
    (3, ANY): (1, [0, 1, 2]),
    (4, ANY): (0, [0, 1, 3, 2]),
    (5, ANY): (2, [0, 1, 2, 4, 3]),
    (6, ANY): None,
    (7, ANY): (6, [0, 1, 2, 5, 6, 4, 3]),
    (8, ANY): None,
    (9, ANY): (12, [0, 1, 2, 4, 3, 6, 5, 8, 7]),
    (10, ANY): None,
}


@pytest.mark.parametrize("n,mode", sorted(QUADFREE))
def test_quadfree_transversal_matches_the_pinned_table(n, mode):
    out = max_triples_quadfree_transversal(n, mode)
    assert out.exact
    want = QUADFREE[n, mode]
    if want is None:
        assert (out.value, out.witness, out.found) == (-1, None, False)
    else:
        assert (out.value, out.witness, out.found) == (*want, True)


@pytest.mark.parametrize("n", [6, 10])
def test_quadfree_transversal_reports_that_none_exists(n):
    out = max_triples_quadfree_transversal(n, ANY)
    assert (out.value, out.witness, out.found, out.exact) == (-1, None, False, True)
    assert out.note == "no quadruple-free transversal"
    # the walk prunes the nodes that leave a later column no free cell
    assert out.nodes_pruned > 0


@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("mode", [ANY, UNIT])
def test_quadfree_transversal_matches_exhaustive_scan(n, mode):
    # permutations come in lexicographic order, so the first maximum is the
    # lex-least one
    best, witness = -1, None
    for perm in itertools.permutations(range(n)):
        pts = transversal_points(perm)
        if count_quadruples(pts, n, mode) == 0 and count_triples(pts, n, mode) > best:
            best, witness = count_triples(pts, n, mode), list(perm)
    out = max_triples_quadfree_transversal(n, mode)
    assert out.exact and (out.value, out.witness, out.found) == (best, witness, best >= 0)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), mode=st.sampled_from([UNIT, ANY]))
def test_quadruple_blocks_are_the_cells_that_complete_a_quadruple(data, mode):
    n = data.draw(st.integers(4, 10))
    perm = data.draw(st.permutations(range(n)))
    k = data.draw(st.integers(1, n - 1))
    # the longest quadruple-free prefix of perm[:k]
    prefix: list[int] = []
    for v in perm[:k]:
        if count_quadruples(list(enumerate(prefix + [v])), n, mode):
            break
        prefix.append(v)
    engine = _Placement(n, mode)
    pos = len(prefix)
    rows = engine.counts(engine.root(prefix, quad=True)[0], pos)
    placed = list(enumerate(prefix))
    for j in range(pos, n):
        for w in set(range(n)) - set(prefix):
            closes = count_quadruples(placed + [(j, w)], n, mode) > 0
            assert (rows[j - pos][w] >= engine.used) == closes, (n, mode, prefix, j, w)


# (value, witness) of ct0_subsets for n = 2..4, as the exhaustive subset
# scan found them
CT0_SMALL = {
    (2, UNIT): (0, []),
    (3, UNIT): (12, [(x, y) for x in range(3) for y in range(3)]),
    (4, UNIT): (18, [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3),
                     (2, 0), (2, 1), (2, 2), (3, 0)]),
    (2, ANY): (0, []),
    (3, ANY): (12, [(x, y) for x in range(3) for y in range(3)]),
    (4, ANY): (3, [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]),
}


def test_ct0_exact_small():
    for (n, mode), (value, witness) in CT0_SMALL.items():
        out = ct0_subsets(n, mode)
        assert out.exact
        assert (out.value, out.witness) == (value, witness), (n, mode)
        assert count_quadruples(out.witness, n, mode) == 0


def test_ct0_5_is_exact():
    for mode in (UNIT, ANY):
        out = ct0_subsets(5, mode)
        assert out.exact and out.value == 16 and out.note == ""
        assert count_triples(out.witness, 5, mode) == 16
        assert count_quadruples(out.witness, 5, mode) == 0


def test_ct0_stops_at_a_one_node_budget():
    out = ct0_subsets(10, budget=SearchBudget(max_nodes=1))
    assert not out.exact and out.nodes_explored == 1


@st.composite
def _accepted_set(draw, quad):
    """A set the grid walk accepts: (0, 0), then drawn cells in increasing
    order, each kept unless a cell already kept blocks it; with the triples
    closed and the cells blocked on the way."""
    n = draw(st.integers(2, 8))
    mode = draw(st.sampled_from([UNIT, ANY]))
    step = _grid_step(n, mode)
    cells, triples, blocked = [], 0, 0
    for c in [0] + sorted(draw(st.sets(st.integers(1, n * n - 1), max_size=3 * n))):
        if not blocked >> c & 1:
            t, block = step(cells, c, quad)
            cells.append(divmod(c, n))
            triples, blocked = triples + t, blocked | block
    return n, mode, cells, triples, blocked


@settings(max_examples=150, deadline=None)
@given(case=_accepted_set(False))
def test_triple_free_blocks_are_the_cells_that_close_a_triple(case):
    n, mode, cells, triples, blocked = case
    assert triples == count_triples(cells, n, mode) == 0
    for x in set(itertools.product(range(n), repeat=2)) - set(cells):
        closes = count_triples(cells + [x], n, mode) > 0
        assert bool(blocked >> (x[0] * n + x[1]) & 1) == closes, (n, mode, cells, x)


@settings(max_examples=150, deadline=None)
@given(case=_accepted_set(True))
def test_quad_blocks_are_the_cells_that_close_a_quadruple(case):
    n, mode, cells, triples, blocked = case
    assert count_quadruples(cells, n, mode) == 0
    assert triples == count_triples(cells, n, mode)
    for x in set(itertools.product(range(n), repeat=2)) - set(cells):
        closes = count_quadruples(cells + [x], n, mode) > 0
        assert bool(blocked >> (x[0] * n + x[1]) & 1) == closes, (n, mode, cells, x)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_quadruple_free_sets_at_prime_n_meet_the_pair_bound(data):
    # ct0_subsets' prune: a quadruple-free set of m points at prime n has at
    # most C(m, 2) // 3 collinear triples
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    order = data.draw(st.permutations(list(itertools.product(range(p), repeat=2))))
    cells: list = []
    for x in order:
        if not count_quadruples(cells + [x], p):
            cells.append(x)
    assert count_triples(cells, p) <= math.comb(len(cells), 2) // 3


def test_ct0_honours_budget():
    full = ct0_subsets(4)
    out = ct0_subsets(4, budget=SearchBudget(max_nodes=1000))
    assert not out.exact and out.nodes_explored == 1000
    assert out.note == "lower bound: search budget exhausted"
    assert out.value <= full.value
    assert count_triples(out.witness, 4) == out.value
    prime = ct0_subsets(5, budget=SearchBudget(max_nodes=40))
    assert not prime.exact and prime.nodes_explored == 40
    assert prime.note == "lower bound: search budget exhausted"
    timed = ct0_subsets(4, budget=SearchBudget(max_time=0.0))
    assert not timed.exact and timed.nodes_explored == 0


# (value, witness) of max_triple_free_subset for n = 2..6, as the DFS over
# all cells in order found them
TRIPLE_FREE_SMALL = {
    (2, UNIT): (4, [(0, 0), (0, 1), (1, 0), (1, 1)]),
    (3, UNIT): (4, [(0, 0), (0, 1), (1, 0), (1, 1)]),
    (4, UNIT): (6, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)]),
    (5, UNIT): (6, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 3), (4, 3)]),
    (6, UNIT): (8, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2), (3, 5), (5, 3)]),
    (2, ANY): (4, [(0, 0), (0, 1), (1, 0), (1, 1)]),
    (3, ANY): (4, [(0, 0), (0, 1), (1, 0), (1, 1)]),
    (4, ANY): (4, [(0, 0), (0, 1), (1, 0), (1, 1)]),
    (5, ANY): (6, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 3), (4, 3)]),
    (6, ANY): (4, [(0, 0), (0, 1), (1, 0), (1, 1)]),
}


@pytest.mark.parametrize("n,mode", sorted(TRIPLE_FREE_SMALL, key=str))
def test_max_triple_free_subset_pinned(n, mode):
    out = max_triple_free_subset(n, mode)
    assert out.exact
    assert (out.value, out.witness) == TRIPLE_FREE_SMALL[n, mode]


def test_max_triple_free_subset():
    assert max_triple_free_subset(2).value == 4
    assert max_triple_free_subset(3).value == 4
    out4 = max_triple_free_subset(4)
    assert out4.exact and out4.value == 6
    assert len(out4.witness) == 6
    assert count_triples(out4.witness, 4) == 0
    out5 = max_triple_free_subset(5)
    assert out5.exact and out5.value == 6
    with pytest.raises(OutOfRange):
        max_triple_free_subset(1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_max_triple_free_subset_is_an_arc_of_p_plus_one_points(p):
    # an arc of AG(2, p) has at most p + 1 points, and a conic has p + 1
    out = max_triple_free_subset(p)
    assert out.exact and out.value == p + 1
    assert count_triples(out.witness, p) == 0


def test_verify_theorem1():
    for p in (3, 5, 7, 11):
        assert verify_theorem1(p)
    assert verify_theorem1(13)
    with pytest.raises(NonPrimeModulus):
        verify_theorem1(9)


def test_verify_theorem1_for_every_prime_the_searches_accept():
    # beyond n = 11 it rests on psi_lower_bound, which needs no DP bounds
    primes = [p for p in range(3, SEARCH_BOUND) if is_prime(p)]
    assert primes[-1] == 127
    for p in primes:
        assert psi_lower_bound(p) == -(-(p - 1) // 4), p
        assert verify_theorem1(p), p


def test_verify_theorem1_does_not_assume_it(monkeypatch):
    # the canonical reduction visits only transversals with a triple
    calls = []

    def recording_psi(n, **kwargs):
        calls.append(kwargs.get("reduction", "auto"))
        return psi(n, **kwargs)

    monkeypatch.setattr(search, "psi", recording_psi)
    assert verify_theorem1(7)
    assert calls == ["full"]
