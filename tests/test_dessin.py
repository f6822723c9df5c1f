import json
import time
from collections import Counter

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


def test_permutation_helpers():
    p = perms.from_cycles([[1, 2, 3]], 4)
    assert p == (1, 2, 0, 3)
    assert perms.inverse(p) == (2, 0, 1, 3)
    # compose applies the right-hand factor first
    q = perms.from_cycles([[1, 2]], 4)
    assert perms.compose(p, q)[0] == p[q[0]]
    assert perms.cycle_lengths(p) == (3, 1)
    assert perms.order(p) == 3


def test_parse_equator():
    d = dd.parse_dessin(EQUATOR)
    assert d.dart_count == 2
    assert d.sigma_white == (1, 0)
    assert d.sigma_black == (1, 0)


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
        d = dd.Dessin(n, perms.from_cycles([list(range(1, n + 1))], n),
                      perms.identity(n))
        aut = dd.automorphisms(d)
        assert aut.order == n
        assert dd.classify_perm_group(aut) == GroupType.cyclic(n)
        assert aut == dd.brute_force_automorphisms(d)


def test_automorphisms_single_edge_trivial():
    assert dd.automorphisms(dd.parse_dessin(SINGLE)).order == 1


def _perm_closure(gens, n):
    els = {perms.identity(n)}
    frontier = list(els)
    while frontier:
        fresh = []
        for w in frontier:
            for g in gens:
                p = perms.compose(w, g)
                if p not in els:
                    els.add(p)
                    fresh.append(p)
        frontier = fresh
    return dd.PermGroup(tuple(sorted(els)))


def _regular_closure(a, b, n):
    """The group generated by two permutations of n points, in its regular representation."""
    gens = [perms.from_cycles(a, n), perms.from_cycles(b, n)]
    g = _perm_closure(gens, n)
    return _perm_closure(list(_regular(g.elements, gens, perms.compose)), g.order)


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
    c2 = _perm_closure([perms.from_cycles([[1, 2]], 2)], 2)
    assert dd.classify_perm_group(c2) == GroupType.cyclic(2)


def test_classify_rejects_shared_image_of_dart_0():
    # S3 on 3 points: (2 3) fixes dart 0 like the identity, and has order 2, not 1
    s3 = _perm_closure([perms.from_cycles([[1, 2, 3]], 3),
                        perms.from_cycles([[2, 3]], 3)], 3)
    with pytest.raises(ValueError, match="dart 0"):
        dd.classify_perm_group(s3)


@st.composite
def transitive_dessins(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    sw = tuple(draw(st.permutations(list(range(n)))))
    sb = tuple(draw(st.permutations(list(range(n)))))
    if not perms.is_transitive((sw, sb), n):
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


@settings(max_examples=40, deadline=None)
@given(transitive_dessins())
def test_automorphism_group_properties(d):
    aut = dd.automorphisms(d)
    assert d.dart_count % aut.order == 0
    els = set(aut.elements)
    assert perms.identity(d.dart_count) in els
    for p in aut.elements:
        assert perms.inverse(p) in els
    if d.dart_count <= 7:
        assert aut == dd.brute_force_automorphisms(d)


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
    return classify_census(g.order, dict(Counter(perms.order(p) for p in g.elements)))


def _assert_matches_oracle(d):
    aut = dd.automorphisms(d)
    oracle = _oracle_automorphisms(d)
    assert aut == oracle
    assert aut.elements == oracle.elements
    assert dd.classify_perm_group(aut) == _oracle_classify(oracle)
    return aut


def _relabel(sw, sb, rng):
    p = [int(x) for x in rng.permutation(len(sw))]
    inv = perms.inverse(p)
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
        if perms.is_transitive((sw, sb), n):
            return sw, sb


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
    if not perms.is_transitive((sw, sb), n):
        sb = tuple((i + 1) % n for i in range(n))
    return dd.Dessin(n, sw, sb)


@settings(max_examples=300, deadline=None)
@given(small_dessins())
def test_automorphisms_and_classification_match_oracle_small(d):
    _assert_matches_oracle(d)


@pytest.mark.parametrize("kind, size", [
    ("star", 150), ("cyclic", 150), ("dihedral", 150), ("abelian", (6, 4)),
    ("abelian", (2, 2)), ("random", 150), ("random", 300),
])
def test_automorphisms_and_classification_match_oracle_large(kind, size):
    rng = np.random.default_rng(17)
    if kind == "star":
        sw, sb = tuple((i + 1) % size for i in range(size)), perms.identity(size)
    elif kind == "cyclic":
        sw, sb = tuple((i + 1) % size for i in range(size)), tuple((i + 7) % size for i in range(size))
    elif kind == "dihedral":
        sw, sb = _dihedral_regular(size)
    elif kind == "abelian":
        sw, sb = _abelian_regular(*size)
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


def test_group_stack_is_read_only():
    aut = dd.automorphisms(dd.parse_dessin(TORUS))
    assert aut.stack.dtype == np.int32
    assert aut.stack.shape == (aut.order, 4)
    assert not aut.stack.flags.writeable
    with pytest.raises(ValueError):
        aut.stack[0, 0] = 1
    with pytest.raises(AttributeError):
        aut.stack = np.zeros((1, 4), dtype=np.int32)


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
