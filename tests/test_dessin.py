import json
import math
import random
import time
import tracemalloc
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dessins import dessin as dd
from dessins import permutations as perms
from dessins.cli import main
from dessins.errors import Disconnected, MalformedInput, NotAPermutation
from dessins.grouptypes import GroupType, classify_census

EQUATOR = '{"darts":2,"sigma_white":[[1,2]],"sigma_black":[[1,2]]}'
SINGLE = '{"darts":1,"sigma_white":[],"sigma_black":[]}'
TORUS = '{"darts":4,"sigma_white":[[1,2,3,4]],"sigma_black":[[1,2,3,4]]}'


# Slow oracles: the tuple permutation helpers and the per-dart candidate mask
# the package used before a Dessin kept its rotations as int32 arrays.

def _identity(n):
    return tuple(range(n))


def _compose(p, q):
    """Composition p∘q: apply q first, then p."""
    return tuple(p[q[i]] for i in range(len(p)))


def _inverse(p):
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def _order(p):
    return math.lcm(*(len(c) for c in perms.cycles(p))) if p else 1


def _from_cycles(cycles, n):
    """Expand 1-based disjoint cycles to a permutation of {0..n-1}, one label at a time.

    Darts omitted from every cycle are fixed points.  Raises NotAPermutation
    on the first label that is not an integer, out of range or a repeat.
    """
    out = list(range(n))
    seen = set()
    for cycle in cycles:
        for label in cycle:
            if not isinstance(label, int) or isinstance(label, bool):
                raise NotAPermutation(f"dart label {label!r} is not an integer")
            if label < 1 or label > n:
                raise NotAPermutation(f"dart label {label} outside 1..{n}")
            if label in seen:
                raise NotAPermutation(f"dart {label} appears twice")
            seen.add(label)
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[a - 1] = b - 1
    return tuple(out)


def _darts_like_dart_0(cycles, n):
    """Mask of the darts whose cycle is as long as the first one, the cycle through dart 0."""
    mask = np.zeros(n, dtype=bool)
    mask[[d for c in cycles if len(c) == len(cycles[0]) for d in c]] = True
    return mask


def test_permutation_helpers():
    p = _from_cycles([[1, 2, 3]], 4)
    assert p == (1, 2, 0, 3)
    assert _inverse(p) == (2, 0, 1, 3)
    # compose applies the right-hand factor first
    q = _from_cycles([[1, 2]], 4)
    assert _compose(p, q)[0] == p[q[0]]
    assert _order(p) == 3


def test_parse_equator():
    d = dd.parse_dessin(EQUATOR)
    assert d.dart_count == 2
    assert d.sigma_white == (1, 0)
    assert d.sigma_black == (1, 0)
    # the derived fields stay out of repr (verify failure details print it) and of ==
    assert repr(d) == "Dessin(dart_count=2, sigma_white=(1, 0), sigma_black=(1, 0))"
    assert d.cycles == (((0, 1),), ((0, 1),), ((0,), (1,)))
    assert d == dd.Dessin(2, (1, 0), (1, 0)) and hash(d) == hash(dd.Dessin(2, (1, 0), (1, 0)))


def test_parse_single_edge():
    d = dd.parse_dessin(SINGLE)
    assert d.sigma_white == (0,)
    assert d.sigma_black == (0,)


def test_parse_expands_omitted_fixed_points():
    d = dd.parse_dessin('{"darts":3,"sigma_white":[[1,2,3]],"sigma_black":[[1,2]]}')
    assert d.sigma_black == (1, 0, 2)


def test_parse_rejects_bad_json():
    with pytest.raises(MalformedInput):
        dd.parse_dessin("{not json")
    with pytest.raises(MalformedInput):
        dd.parse_dessin('{"darts":2,"sigma_white":[[1,2]]}')
    with pytest.raises(MalformedInput):
        dd.parse_dessin('{"darts":0,"sigma_white":[],"sigma_black":[]}')


def test_parse_rejects_non_permutations():
    with pytest.raises(NotAPermutation):
        dd.parse_dessin('{"darts":2,"sigma_white":[[1,1]],"sigma_black":[[1,2]]}')
    with pytest.raises(NotAPermutation):
        dd.parse_dessin('{"darts":2,"sigma_white":[[1,3]],"sigma_black":[[1,2]]}')


@pytest.mark.parametrize("sigma_white, sigma_black", [
    ((1.0, 0), (1, 0)), ((1, 0.5), (1, 0)), ((0, 2**40), (0, 1)), ((1, 0), (0, "1")),
    ((0, 2**32 + 1), (1, 0)), ((0, 2**64), (0, 1)), (([1], 0), (1, 0)),
], ids=["float", "half", "2**40", "string", "2**32+1", "2**64", "list"])
def test_dessin_rejects_entries_that_are_not_darts(sigma_white, sigma_black):
    # entries an int32 cast would truncate, wrap, overflow on or parse
    with pytest.raises(NotAPermutation) as caught:
        dd.Dessin(2, sigma_white, sigma_black)
    assert "\n" not in str(caught.value)


def test_parse_rejects_disconnected():
    with pytest.raises(Disconnected):
        dd.parse_dessin('{"darts":4,"sigma_white":[[1,2],[3,4]],"sigma_black":[[1,2],[3,4]]}')


def test_klein_four_dessin():
    d = dd.parse_dessin('{"darts":4,"sigma_white":[[1,2],[3,4]],"sigma_black":[[1,3],[2,4]]}')
    assert dd.genus(d) == 0
    aut = dd.automorphisms(d)
    assert aut.order == 4
    assert dd.classify_perm_group(aut) == GroupType.dihedral(2)


def test_genus_reference_values():
    assert dd.genus(dd.parse_dessin(EQUATOR)) == 0
    assert dd.genus(dd.parse_dessin(SINGLE)) == 0
    assert dd.genus(dd.parse_dessin(TORUS)) == 1


def test_passport_reference_values():
    p = dd.passport(dd.parse_dessin(EQUATOR))
    assert (p.degree, p.white_degrees, p.black_degrees, p.face_half_degrees) == \
        (2, (2,), (2,), (1, 1))
    p = dd.passport(dd.parse_dessin(SINGLE))
    assert (p.degree, p.white_degrees, p.black_degrees, p.face_half_degrees) == \
        (1, (1,), (1,), (1,))
    p = dd.passport(dd.parse_dessin(TORUS))
    assert (p.degree, p.white_degrees, p.black_degrees, p.face_half_degrees) == \
        (4, (4,), (4,), (2, 2))


def test_triangulation_counts_and_pairing():
    for text, darts in ((EQUATOR, 2), (SINGLE, 1), (TORUS, 4)):
        tri = dd.triangulate(dd.parse_dessin(text))
        assert tri.triangle_count == 2 * darts
        assert tri.butterfly_count == darts
        assert len(tri.butterfly_pairs) == darts
        for plus_id, minus_id in tri.butterfly_pairs:
            assert tri.triangles[plus_id][3] == +1
            assert tri.triangles[minus_id][3] == -1
            # the pair shares its black vertex and face
            assert tri.triangles[plus_id][1] == tri.triangles[minus_id][1]
            assert tri.triangles[plus_id][2] == tri.triangles[minus_id][2]


def test_faces_carry_twice_their_half_degree_in_triangles():
    d = dd.parse_dessin(TORUS)
    tri = dd.triangulate(d)
    per_face = {}
    for _, _, fid, _ in tri.triangles:
        per_face[fid] = per_face.get(fid, 0) + 1
    assert sorted(per_face.values()) == [2 * p for p in
                                         sorted(dd.passport(d).face_half_degrees)]


def test_automorphisms_equator():
    aut = dd.automorphisms(dd.parse_dessin(EQUATOR))
    assert aut.order == 2
    assert set(aut.elements) == {(0, 1), (1, 0)}


def test_automorphisms_star_is_cyclic():
    for n in range(2, 7):
        d = dd.Dessin(n, _from_cycles([list(range(1, n + 1))], n), _identity(n))
        aut = dd.automorphisms(d)
        assert aut.order == n
        assert dd.classify_perm_group(aut) == GroupType.cyclic(n)
        assert aut == dd.brute_force_automorphisms(d)


def test_automorphisms_single_edge_trivial():
    assert dd.automorphisms(dd.parse_dessin(SINGLE)).order == 1


def _perm_closure(gens, n):
    els = {_identity(n)}
    frontier = list(els)
    while frontier:
        fresh = []
        for w in frontier:
            for g in gens:
                p = _compose(w, g)
                if p not in els:
                    els.add(p)
                    fresh.append(p)
        frontier = fresh
    return dd.PermGroup(tuple(sorted(els)))


def _regular_closure(a, b, n):
    """The group generated by two permutations of n points, in its regular representation."""
    gens = [_from_cycles(a, n), _from_cycles(b, n)]
    g = _perm_closure(gens, n)
    return _perm_closure(list(_regular(g.elements, gens, _compose)), g.order)


def test_classify_exceptional_groups_by_brute_force():
    a4 = _regular_closure([[1, 2, 3]], [[1, 2], [3, 4]], 4)
    assert a4.order == 12
    assert dd.classify_perm_group(a4) == GroupType.a4()
    s4 = _regular_closure([[1, 2, 3, 4]], [[1, 2]], 4)
    assert s4.order == 24
    assert dd.classify_perm_group(s4) == GroupType.s4()
    a5 = _regular_closure([[1, 2, 3, 4, 5]], [[1, 2], [3, 4]], 5)
    assert a5.order == 60
    assert dd.classify_perm_group(a5) == GroupType.a5()
    d3 = _regular_closure([[1, 2, 3]], [[2, 3]], 3)
    assert dd.classify_perm_group(d3) == GroupType.dihedral(3)
    klein = _regular_closure([[1, 2], [3, 4]], [[1, 3], [2, 4]], 4)
    assert dd.classify_perm_group(klein) == GroupType.dihedral(2)
    c2 = _perm_closure([_from_cycles([[1, 2]], 2)], 2)
    assert dd.classify_perm_group(c2) == GroupType.cyclic(2)


def test_classify_rejects_shared_image_of_dart_0():
    # S3 on 3 points: (2 3) fixes dart 0 like the identity, and has order 2, not 1
    s3 = _perm_closure([_from_cycles([[1, 2, 3]], 3),
                        _from_cycles([[2, 3]], 3)], 3)
    with pytest.raises(ValueError, match="dart 0"):
        dd.classify_perm_group(s3)


@st.composite
def transitive_dessins(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    sw = tuple(draw(st.permutations(list(range(n)))))
    sb = tuple(draw(st.permutations(list(range(n)))))
    if len(perms.walk((sw, sb), n)) < n:
        # connect by replacing sigma_black with a full cycle
        sb = tuple((i + 1) % n for i in range(n))
    return dd.Dessin(n, sw, sb)


@settings(max_examples=60, deadline=None)
@given(transitive_dessins())
def test_euler_formula_and_riemann_hurwitz(d):
    g = dd.genus(d)
    assert g >= 0
    cw = len(perms.cycles(d.sigma_white))
    cb = len(perms.cycles(d.sigma_black))
    cf = len(perms.cycles(d.face_permutation))
    assert 2 - 2 * g == cw + cb + cf - d.dart_count
    assert dd.riemann_hurwitz_holds(d)
    tri = dd.triangulate(d)
    assert tri.triangle_count == 2 * d.dart_count
    assert tri.butterfly_count == d.dart_count


def _oracle_cycle_id(p, dart):
    """Position of the cycle holding ``dart`` among the cycles of ``p`` numbered by least dart."""
    return next(k for k, c in enumerate(sorted(perms.cycles(p), key=min)) if dart in c)


@settings(max_examples=60, deadline=None)
@given(transitive_dessins())
def test_triangle_ids_match_cycle_membership(d):
    # triangle 2k is dart k's own (white, black) corner, 2k+1 the one sharing its black-centre edge
    n, sw, sb = d.dart_count, d.sigma_white, d.sigma_black
    face = tuple(sw[sb[k]] for k in range(n))
    expected = []
    for k in range(n):
        b, f = _oracle_cycle_id(sb, k), _oracle_cycle_id(face, k)
        expected += [(_oracle_cycle_id(sw, k), b, f, +1), (_oracle_cycle_id(sw, face[k]), b, f, -1)]
    tri = dd.triangulate(d)
    assert tri.triangles == tuple(expected)
    assert tri.butterfly_pairs == tuple((2 * k, 2 * k + 1) for k in range(n))


D3_MAP = '{"darts":6,"sigma_white":[[1,2,3],[4,5,6]],"sigma_black":[[1,4],[2,6],[3,5]]}'


@pytest.mark.parametrize("argv", [["info"], ["metric", "--group", "D3", "--grid", "4"]])
def test_one_decomposition_per_rotation(argv, tmp_path, monkeypatch, capsys):
    # a dessin decomposes its three rotations and walks its darts once, on construction;
    # every report and the automorphism search read them
    path = tmp_path / "d3.json"
    path.write_text(D3_MAP)
    if argv[0] == "metric":
        argv = argv + ["--out", str(tmp_path / "g.csv")]
    calls = Counter()

    for name in ("cycles", "walk"):
        def counted(*args, _name=name, _call=getattr(perms, name)):
            calls[_name] += 1
            return _call(*args)
        monkeypatch.setattr(perms, name, counted)
    assert main([argv[0], str(path), *argv[1:]]) == 0
    assert calls == {"cycles": 3, "walk": 1}
    assert "D3" in capsys.readouterr().out


@settings(max_examples=40, deadline=None)
@given(transitive_dessins())
def test_automorphism_group_properties(d):
    aut = dd.automorphisms(d)
    assert d.dart_count % aut.order == 0
    els = set(aut.elements)
    assert _identity(d.dart_count) in els
    for p in aut.elements:
        assert _inverse(p) in els
    if d.dart_count <= 7:
        assert aut == dd.brute_force_automorphisms(d)


# The seed's brute force, now the oracle of brute_force_automorphisms: filter
# all n! permutations by both commutation relations.

def _oracle_permutation_filter(d):
    import itertools

    els = [cand for cand in itertools.permutations(range(d.dart_count))
           if _compose(cand, d.sigma_white) == _compose(d.sigma_white, cand)
           and _compose(cand, d.sigma_black) == _compose(d.sigma_black, cand)]
    return dd.PermGroup(els)


def test_brute_force_automorphisms_matches_permutation_filter_exhaustively():
    import itertools

    for n in range(1, 5):
        for sw in itertools.permutations(range(n)):
            for sb in itertools.permutations(range(n)):
                if len(perms.walk((sw, sb), n)) == n:
                    d = dd.Dessin(n, sw, sb)
                    assert dd.brute_force_automorphisms(d) == _oracle_permutation_filter(d)


@st.composite
def small_dessins(draw):
    """Transitive dessins of at most 6 darts; sigma_white often has repeated cycle lengths."""
    n = draw(st.integers(min_value=1, max_value=6))
    if draw(st.booleans()):
        size = draw(st.sampled_from([k for k in range(1, n + 1) if n % k == 0]))
        sw = tuple(d + 1 if (d + 1) % size else d + 1 - size for d in range(n))
    else:
        sw = tuple(draw(st.permutations(list(range(n)))))
    sb = tuple(draw(st.permutations(list(range(n)))))
    if len(perms.walk((sw, sb), n)) < n:
        sb = tuple((i + 1) % n for i in range(n))
    return dd.Dessin(n, sw, sb)


@settings(max_examples=200, deadline=None)
@given(small_dessins())
def test_brute_force_automorphisms_matches_permutation_filter(d):
    aut = dd.brute_force_automorphisms(d)
    assert aut == _oracle_permutation_filter(d)
    assert aut == dd.automorphisms(d)


# ---------------------------------------------------------------------------
# Oracles for automorphisms and classify_perm_group: per-target propagation of
# dart 0 and the census of every element's order over all its cycles.

def _extend_from_seed(sw, sb, target: int):
    # A permutation commuting with both rotations is fixed by the image of
    # one dart; propagate dart 0 -> target along the action and check
    # consistency.
    n = len(sw)
    img = [-1] * n
    img[0] = target
    stack = [0]
    while stack:
        d = stack.pop()
        for s in (sw, sb):
            e = s[d]
            fe = s[img[d]]
            if img[e] == -1:
                img[e] = fe
                stack.append(e)
            elif img[e] != fe:
                return None
    if -1 in img or len(set(img)) != n:
        return None
    return tuple(img)


def _oracle_automorphisms(d):
    els = [img for t in range(d.dart_count)
           if (img := _extend_from_seed(d.sigma_white, d.sigma_black, t)) is not None]
    return dd.PermGroup(sorted(els))


def _oracle_classify(g):
    return classify_census(g.order, dict(Counter(_order(p) for p in g.elements)))


def _assert_matches_oracle(d):
    aut = dd.automorphisms(d)
    oracle = _oracle_automorphisms(d)
    assert aut == oracle
    assert aut.elements == oracle.elements
    assert dd.classify_perm_group(aut) == _oracle_classify(oracle)
    return aut


def _relabel(sw, sb, rng):
    p = [int(x) for x in rng.permutation(len(sw))]
    inv = _inverse(p)
    return dd.Dessin(len(sw), tuple(p[sw[inv[i]]] for i in range(len(p))),
                     tuple(p[sb[inv[i]]] for i in range(len(p))))


def _regular(elements, gens, times):
    """Regular dessin of a group: darts are its elements, rotations multiply on the right."""
    index = {x: i for i, x in enumerate(elements)}
    return tuple(tuple(index[times(x, g)] for x in elements) for g in gens)


def _dihedral_regular(n):
    # r^i s^f . r^j s^g = r^(i + (-1)^f j) s^(f + g)
    def times(x, y):
        return ((x[0] + (y[0] if x[1] == 0 else -y[0])) % n, (x[1] + y[1]) % 2)
    return _regular([(i, f) for f in (0, 1) for i in range(n)], [(1, 0), (0, 1)], times)


def _abelian_regular(a, b):
    def times(x, y):
        return ((x[0] + y[0]) % a, (x[1] + y[1]) % b)
    return _regular([(i, j) for i in range(a) for j in range(b)], [(1, 0), (0, 1)], times)


def _random_transitive(n, rng):
    while True:
        sw = tuple(int(x) for x in rng.permutation(n))
        sb = tuple(int(x) for x in rng.permutation(n))
        if len(perms.walk((sw, sb), n)) == n:
            return sw, sb


def _cyclic_cover(base, p, rng):
    """The second connected p-fold cyclic voltage cover of a random dessin on ``base`` darts.

    The base's white rotation is a fixed-point-free involution and its black
    rotation is made of 3-cycles; dart (x, i) is x * p + i, and a rotation
    sends it to (sigma(x), i + v(x)), the voltages v drawn from Z_p so that
    every lifted cycle keeps its length.  Shifting i is an automorphism.
    With p = 1 the cover is the random dessin itself, whose group is usually
    trivial.
    """
    found = 0
    while True:
        pairs = rng.permutation(base).reshape(-1, 2)
        triples = rng.permutation(base).reshape(-1, 3)
        vw, vb = rng.integers(0, p, base).tolist(), rng.integers(0, p, base).tolist()
        sw, sb, aw, ab = [0] * base, [0] * base, [0] * base, [0] * base
        for x, y in pairs.tolist():
            sw[x], sw[y], aw[x], aw[y] = y, x, vw[x], -vw[x]
        for x, y, z in triples.tolist():
            sb[x], sb[y], sb[z] = y, z, x
            ab[x], ab[y], ab[z] = vb[x], vb[y], -vb[x] - vb[y]
        lifted = tuple(tuple(s[x] * p + (i + a[x]) % p for x in range(base) for i in range(p))
                       for s, a in ((sw, aw), (sb, ab)))
        if len(perms.walk(lifted, base * p)) == base * p:
            found += 1
            if found == 2:
                return lifted


@st.composite
def small_dessins(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    sw = tuple(draw(st.permutations(list(range(n)))))
    kind = draw(st.sampled_from(["random", "power", "cycle"]))
    if kind == "power":  # a power of a full cycle: many candidates survive the cycle lengths
        k = draw(st.integers(min_value=0, max_value=n))
        sw = tuple((i + 1) % n for i in range(n))
        sb = tuple((i + k) % n for i in range(n))
    else:
        sb = tuple(draw(st.permutations(list(range(n)))))
    if len(perms.walk((sw, sb), n)) < n:
        sb = tuple((i + 1) % n for i in range(n))
    return dd.Dessin(n, sw, sb)


@settings(max_examples=300, deadline=None)
@given(small_dessins())
def test_automorphisms_and_classification_match_oracle_small(d):
    _assert_matches_oracle(d)


@pytest.mark.parametrize("kind, size", [
    ("star", 150), ("cyclic", 150), ("dihedral", 150), ("abelian", (6, 4)),
    ("abelian", (2, 2)), ("random", 150), ("random", 300), ("cover", (12, 53)),
])
def test_automorphisms_and_classification_match_oracle_large(kind, size):
    rng = np.random.default_rng(17)
    if kind == "star":
        sw, sb = tuple((i + 1) % size for i in range(size)), _identity(size)
    elif kind == "cyclic":
        sw, sb = tuple((i + 1) % size for i in range(size)), tuple((i + 7) % size for i in range(size))
    elif kind == "dihedral":
        sw, sb = _dihedral_regular(size)
    elif kind == "abelian":
        sw, sb = _abelian_regular(*size)
    elif kind == "cover":
        sw, sb = _cyclic_cover(*size, np.random.default_rng(5))
    else:
        sw, sb = _random_transitive(size, rng)
    d = _relabel(sw, sb, rng)
    aut = _assert_matches_oracle(d)
    if kind in ("star", "cyclic"):
        assert dd.classify_perm_group(aut) == GroupType.cyclic(size)
    elif kind == "dihedral":
        assert dd.classify_perm_group(aut) == GroupType.dihedral(size)
    elif kind == "abelian":
        assert aut.order == size[0] * size[1]
    elif kind == "cover":
        # 530 candidates die down to the 53 shifts of the cover, so dropped
        # candidates are compacted away on a 636-row table
        like = [_darts_like_dart_0(c, d.dart_count) for c in d.cycles]
        assert np.count_nonzero(np.logical_and.reduce(like)) == 530
        assert dd.classify_perm_group(aut) == GroupType.cyclic(size[1])


def test_classify_exceptional_groups_matches_oracle():
    gens = [
        ([[1, 2, 3]], [[1, 2], [3, 4]], 4),        # A4
        ([[1, 2, 3, 4]], [[1, 2]], 4),             # S4
        ([[1, 2, 3, 4, 5]], [[1, 2], [3, 4]], 5),  # A5
        ([[1, 2, 3]], [[2, 3]], 3),                # D3
        ([[1, 2], [3, 4]], [[1, 3], [2, 4]], 4),   # Klein
        ([[1, 2, 3, 4]], [[1, 3]], 4),             # D4, from the square's corners
    ]
    for a, b, n in gens:
        g = _regular_closure(a, b, n)
        assert dd.classify_perm_group(g) == _oracle_classify(g)


def test_abelian_groups_are_never_dihedral_beyond_rank_2():
    # the census alone tells every abelian group from D_n, n >= 3
    for a, b in ((a, b) for a in range(1, 49) for b in range(1, 49 // a + 1)):
        g = dd.automorphisms(dd.Dessin(a * b, *_abelian_regular(a, b)))
        tag = dd.classify_perm_group(g)
        assert tag == _oracle_classify(g)
        assert not (tag.kind == "dihedral" and tag.n >= 3), (a, b, tag)


def test_classify_rejects_a_stack_that_is_not_a_group():
    # dart 0 goes to distinct darts, but (0 1 2) squared sends it to 2, where no element does
    with pytest.raises(ValueError, match="not a group: a product sends dart 0 outside"):
        dd.classify_perm_group(dd.PermGroup([(0, 1, 2), (1, 2, 0)]))
    with pytest.raises(ValueError, match="not a group: no element fixes dart 0"):
        dd.classify_perm_group(dd.PermGroup([(1, 0)]))
    with pytest.raises(ValueError, match="a group needs at least one element"):
        dd.PermGroup([])


# Covers of 66 to 300 darts whose false candidates outlive several row growths:
# (base, p, seed) of _cyclic_cover.  Every check runs at a row doubling, once the
# rows it compares are filled; the last false candidate of each fails only after
# the walk has passed its first 16 darts, so it outlives several doublings.
_DEFERRED_COVERS = [(12, 6, 6), (30, 7, 5), (6, 11, 5), (18, 13, 6), (36, 8, 5), (300, 1, 5)]


@pytest.mark.parametrize("base, p, seed", _DEFERRED_COVERS)
def test_automorphisms_match_oracle_when_false_candidates_outlive_row_growth(base, p, seed):
    d = dd.Dessin(base * p, *_cyclic_cover(base, p, np.random.default_rng(seed)))
    aut = _assert_matches_oracle(d)
    like = [_darts_like_dart_0(c, d.dart_count) for c in d.cycles]
    candidates = np.flatnonzero(np.logical_and.reduce(like)).tolist()
    false = sorted(set(candidates) - set(aut.stack[:, 0].tolist()))
    assert false and _rows_walked_until_the_last_false_candidate_dies(d, [0] + false) > 16


# The power walk that prime-power descent replaced: the order of each element
# is the length of its cycle through dart 0, all elements stepped at once.
def _oracle_element_orders(stack):
    orders = np.empty(len(stack), dtype=np.int64)
    todo = np.arange(len(stack))
    point = stack[:, 0]
    step = 1
    while len(todo):
        back = point == 0
        orders[todo[back]] = step
        todo = todo[~back]
        point = stack[todo, point[~back]]
        step += 1
    return orders


def _groups_the_dessin_tests_build():
    for a, b in ((a, b) for a in range(1, 49) for b in range(1, 48 // a + 1)):
        yield dd.automorphisms(dd.Dessin(a * b, *_abelian_regular(a, b)))
    for n in (1, 2, 12, 97, 150, 360, 800):
        cycle = tuple((i + 1) % n for i in range(n))
        yield dd.automorphisms(dd.Dessin(n, cycle, _identity(n)))
        yield dd.automorphisms(dd.Dessin(n, cycle, tuple((i + 7) % n for i in range(n))))
    for n in (1, 2, 3, 12, 97, 150, 180, 400):
        yield dd.automorphisms(dd.Dessin(2 * n, *_dihedral_regular(n)))
    yield _regular_closure([[1, 2, 3]], [[1, 2], [3, 4]], 4)         # A4
    yield _regular_closure([[1, 2, 3, 4]], [[1, 2]], 4)              # S4
    yield _regular_closure([[1, 2, 3, 4, 5]], [[1, 2], [3, 4]], 5)   # A5
    for base, p, seed in [(12, 53, 5), *_DEFERRED_COVERS]:
        yield dd.automorphisms(dd.Dessin(base * p, *_cyclic_cover(base, p, np.random.default_rng(seed))))


def test_element_orders_match_the_power_walk():
    for g in _groups_the_dessin_tests_build():
        assert np.array_equal(dd._element_orders(g.stack), _oracle_element_orders(g.stack))


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda k: st.lists(st.permutations(range(k)).map(tuple), min_size=2, max_size=2)))
def test_element_orders_match_the_power_walk_on_random_regular_groups(gens):
    g = _perm_closure(gens, len(gens[0]))
    regular = _perm_closure(list(_regular(g.elements, gens, _compose)), g.order)
    assert np.array_equal(dd._element_orders(regular.stack), _oracle_element_orders(regular.stack))
    assert dd.classify_perm_group(regular) == _oracle_classify(regular)


def test_group_stack_is_read_only():
    aut = dd.automorphisms(dd.parse_dessin(TORUS))
    assert aut.stack.dtype == np.int32
    assert aut.stack.shape == (aut.order, 4)
    assert not aut.stack.flags.writeable
    with pytest.raises(ValueError):
        aut.stack[0, 0] = 1
    with pytest.raises(AttributeError):
        aut.stack = np.zeros((1, 4), dtype=np.int32)


def _traced_automorphisms(d):
    tracemalloc.start()
    try:
        aut = dd.automorphisms(d)
        return aut, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_automorphisms_peak_stays_near_the_output_when_every_dart_is_a_candidate():
    # the rows are moved into dart order in place; a second copy of the
    # table, such as a gather into dart order, would double the peak
    d = _relabel(*_dihedral_regular(400), np.random.default_rng(17))
    aut, peak = _traced_automorphisms(d)
    assert aut.order == d.dart_count == 800
    assert peak <= 1.25 * aut.stack.nbytes


def _rows_walked_until_the_last_false_candidate_dies(d, candidates):
    """Darts the breadth-first walk of dart 0 has reached when the last candidate but dart 0 fails."""
    rotations = (d.sigma_white, d.sigma_black)
    rows = 0
    for c in candidates[1:]:
        image, walk = {0: c}, [0]
        for dart in walk:
            for sigma in rotations:
                e, f = sigma[dart], sigma[image[dart]]
                if image.setdefault(e, f) != f:
                    break
                if len(image) > len(walk):
                    walk.append(e)
            else:
                continue
            break
        else:
            raise AssertionError(f"candidate {c} is an automorphism")
        rows = max(rows, len(walk))
    return rows


def test_automorphisms_peak_follows_the_darts_walked_when_the_group_is_trivial():
    # 1066 candidates all but the identity die within a few hundred walk
    # steps; the table holds only the rows walked, never one row per dart
    d = dd.Dessin(3000, *_cyclic_cover(3000, 1, np.random.default_rng(5)))
    like = [_darts_like_dart_0(c, d.dart_count) for c in d.cycles]
    candidates = np.flatnonzero(np.logical_and.reduce(like)).tolist()
    rows = _rows_walked_until_the_last_false_candidate_dies(d, candidates)
    aut, peak = _traced_automorphisms(d)
    assert aut.order == 1
    assert len(candidates) == 1066 and rows < d.dart_count // 10
    assert peak <= 4 * rows * len(candidates) * 4


def test_automorphisms_kill_candidates_whose_rows_change_a_cycle_length():
    # dart 0 lies on a face of 16440 darts and no edge check fails near it, so
    # without the cycle lengths of each new row all 16440 candidates lived until
    # the table held 1024 rows (traced peak 132 MB); the peak is now the edge
    # preparation, a few int32 arrays of 2n entries
    d = dd.Dessin(60000, *_cyclic_cover(60000, 1, np.random.default_rng(5)))
    aut, peak = _traced_automorphisms(d)
    assert aut.order == 1 and d.dart_cycle_lengths[2, 0] == 16440
    assert peak < 160 * d.dart_count


def test_info_on_1000_dart_star_is_fast(tmp_path, capsys):
    # classification of this star was cubic in the dart count (about 69 s)
    n = 1000
    path = tmp_path / "star.json"
    path.write_text(json.dumps({"darts": n, "sigma_white": [list(range(1, n + 1))],
                                "sigma_black": []}))
    start = time.perf_counter()
    assert main(["info", str(path)]) == 0
    assert time.perf_counter() - start < 10.0
    assert f"automorphisms: order {n}, type C{n}" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Oracles for the parser and a dessin's int32 arrays: the rotations expanded
# one label at a time, the face as a tuple composition, and each dart's cycle
# length by walking its orbit.

def _oracle_orbits(p):
    """The orbit of each dart under p, walked from that dart."""
    orbits = [None] * len(p)
    for d in range(len(p)):
        if orbits[d] is None:
            orbit = [d]
            while p[orbit[-1]] != d:
                orbit.append(p[orbit[-1]])
            for x in orbit:
                orbits[x] = orbit
    return orbits


def _oracle_walk(sigmas):
    """Breadth-first order of the darts from dart 0, by a queue, white before black."""
    order, seen, queue = [], {0}, deque([0])
    while queue:
        dart = queue.popleft()
        order.append(dart)
        for sigma in sigmas:
            if sigma[dart] not in seen:
                seen.add(sigma[dart])
                queue.append(sigma[dart])
    return order


def _assert_dessin_matches_oracles(d):
    n, sw, sb = d.dart_count, d.sigma_white, d.sigma_black
    assert not d.walk.flags.writeable
    assert d.walk.tolist() == _oracle_walk((sw, sb))
    face = _compose(sw, sb)
    assert d.face_permutation == face
    assert d.rotations.dtype == np.int32 and not d.rotations.flags.writeable
    assert d.rotations.tolist() == [list(sw), list(sb), list(face)]
    orbits = [_oracle_orbits(p) for p in (sw, sb, face)]
    assert not d.dart_cycle_lengths.flags.writeable
    assert d.dart_cycle_lengths.tolist() == [[len(o) for o in row] for row in orbits]
    counts = [len({min(o) for o in row}) for row in orbits]
    assert [len(c) for c in d.cycles] == counts
    assert dd.genus(d) == 1 - (sum(counts) - n) // 2
    degrees = [tuple(sorted((len(o) for k, o in enumerate(row) if k == min(o)), reverse=True))
               for row in orbits]
    assert dd.passport(d) == dd.Passport(*degrees, n)


def _file_cycles(p, rng, fixed_points):
    """1-based cycles of p as a file may write them: any order, any start, fixed points
    listed or left out, with empty cycles mixed in."""
    cycles = [[x + 1 for x in o] for k, o in enumerate(_oracle_orbits(p)) if k == min(o)]
    cycles = [c[s:] + c[:s] for c in cycles for s in [rng.randrange(len(c))]
              if fixed_points or len(c) > 1]
    cycles += [[] for _ in range(rng.randrange(3))]
    rng.shuffle(cycles)
    return cycles


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=60).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))),
    st.randoms(use_true_random=False), st.booleans())
def test_parse_and_dessin_arrays_match_the_oracles(pair, rng, fixed_points):
    n = len(pair[0])
    sw, sb = tuple(pair[0]), tuple(pair[1])
    if len(perms.walk((sw, sb), n)) < n:
        sb = tuple((i + 1) % n for i in range(n))
    white, black = _file_cycles(sw, rng, fixed_points), _file_cycles(sb, rng, fixed_points)
    d = dd.parse_dessin(json.dumps({"darts": n, "sigma_white": white, "sigma_black": black}))
    assert (d.sigma_white, d.sigma_black) == (_from_cycles(white, n), _from_cycles(black, n))
    assert (d.sigma_white, d.sigma_black) == (sw, sb)
    _assert_dessin_matches_oracles(d)


_LABELS_OR_NOT = st.integers(min_value=-2, max_value=9) | st.sampled_from(
    [True, False, 1.0, "1", None, [1], 10**30, -10**30, 2**63, -2**63])


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=8),
       st.lists(st.lists(_LABELS_OR_NOT, max_size=5), max_size=3),
       st.lists(st.lists(_LABELS_OR_NOT, max_size=5), max_size=3))
def test_parse_rejects_labels_as_the_label_by_label_oracle(n, white, black):
    # the first bad label in file order, with its first failing check, or the same rotations
    try:
        expected = (_from_cycles(white, n), _from_cycles(black, n))
    except NotAPermutation as exc:
        expected = str(exc)
    text = json.dumps({"darts": n, "sigma_white": white, "sigma_black": black})
    try:
        d = dd.parse_dessin(text)
        got = (d.sigma_white, d.sigma_black)
    except NotAPermutation as exc:
        got = str(exc)
    except Disconnected:
        return
    assert got == expected


@pytest.mark.parametrize("kind, size, seed", [
    ("star", 800, 1), ("cyclic", 800, 1), ("dihedral", 400, 1), ("random", 2000, 1),
    ("random", 2000, 2)])
def test_dessin_arrays_match_the_oracles_on_large_dessins(kind, size, seed):
    rng = np.random.default_rng(seed)
    if kind == "star":
        sw, sb = tuple((i + 1) % size for i in range(size)), _identity(size)
    elif kind == "cyclic":
        sw, sb = tuple((i + 1) % size for i in range(size)), tuple((i + 7) % size for i in range(size))
    elif kind == "dihedral":
        sw, sb = _dihedral_regular(size)
    else:
        sw, sb = _random_transitive(size, rng)
    d = _relabel(sw, sb, rng)
    _assert_dessin_matches_oracles(d)
    cycles = [_file_cycles(p, random.Random(seed), False) for p in (d.sigma_white, d.sigma_black)]
    parsed = dd.parse_dessin(json.dumps({"darts": d.dart_count, "sigma_white": cycles[0],
                                         "sigma_black": cycles[1]}))
    assert parsed == d
