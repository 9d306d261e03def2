import itertools
import json
import math

import numpy as np
import pytest

from z2top.cli import main
from z2top.errors import InvalidParameterError
from z2top.geometry import (
    MAX_N_INCIDENCE,
    Collineation,
    _block_rule,
    _third_point_table,
    classic_fano_lines,
    classic_line_set,
    classic_planes_15,
    find_collineation,
    find_hyperplane_collineation,
    geometry_json,
    hyperplanes,
    incidence_dot,
    lines,
    num_lines,
    num_points,
)

from classic_fixtures import CLASSIC_15_PAIRS, pairs_to_lines


def _dot(u: int, v: int) -> int:
    """GF(2) dot product of two int-encoded bit vectors: the reference pairing."""
    return (u & v).bit_count() & 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_counts(n):
    lns = lines(n)
    hps = hyperplanes(n)
    assert len(json.loads(geometry_json(n))["points"]) == num_points(n) == 2**n - 1
    assert len(hps) == 2**n - 1
    assert len(lns) == (2**n - 1) * (2 ** (n - 1) - 1) // 3
    for h in hps:
        assert len(h) == 2 ** (n - 1) - 1
    for p in range(1, 2**n):
        assert sum(1 for ln in lns if p in ln) == 2 ** (n - 1) - 1
        assert sum(1 for h in hps if p in h) == 2 ** (n - 1) - 1


def test_point_bits_bijection():
    # Point p is written (z_0, ..., z_{n-1}) with z_{n-1} the least-significant bit.
    pts = json.loads(geometry_json(3))["points"]
    assert [int(bits, 2) for bits in pts] == list(range(1, 8))
    assert pts[0] == "001"
    assert pts[1] == "010"
    assert len(set(pts)) == 7
    assert "000" not in pts


def test_points_n2():
    assert json.loads(geometry_json(2))["points"] == ["01", "10", "11"]


def test_points_out_of_range():
    for bad in (1, 13, 17, 0, -3):
        for build in (lines, geometry_json):
            with pytest.raises(InvalidParameterError):
                build(bad)


def test_lines_n2_single():
    assert lines(2) == [(1, 2, 3)]


def test_lines_n3_match_bruteforce():
    # Independent oracle: filter all index triples by XOR closure.
    expected = {
        t for t in itertools.combinations(range(1, 8), 3) if t[0] ^ t[1] ^ t[2] == 0
    }
    assert set(lines(3)) == expected
    assert expected == {
        (1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6),
    }


@pytest.mark.parametrize("n", range(2, 9))
def test_lines_match_loop_order(n):
    # Reference: the double loop over p < q, keeping q < p ^ q, in loop order.
    d = 2**n - 1
    expected = [(p, q, p ^ q) for p in range(1, d + 1) for q in range(p + 1, d + 1) if p ^ q > q]
    assert lines(n) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_pair_on_one_line(n):
    lns = lines(n)
    for p, q in itertools.combinations(range(1, 2**n), 2):
        assert sum(1 for ln in lns if p in ln and q in ln) == 1


def test_hyperplanes_n2_are_singletons():
    assert hyperplanes(2) == [(2,), (1,), (3,)]


def test_hyperplanes_n3_are_the_lines():
    # The 7-point plane is self-dual: hyperplane point sets = line point sets.
    assert set(hyperplanes(3)) == set(lines(3))


def test_hyperplane_membership_oracle():
    for n in (4, 8):
        d = 2**n - 1
        hs = hyperplanes(n)
        assert len(hs) == d
        for v, h in enumerate(hs, 1):
            assert h == tuple(p for p in range(1, d + 1) if _dot(v, p) == 0)


def test_collineation_identity_found_for_canonical():
    for n in (2, 3):
        coll = find_collineation(n, lines(n))
        assert coll is not None
        assert coll.perm == tuple(range(1, 2**n))


def test_collineation_found_for_classic_fano():
    coll = find_collineation(3, classic_fano_lines())
    assert coll is not None
    image = {tuple(sorted(coll.perm[p - 1] for p in ln)) for ln in lines(3)}
    assert image == {tuple(sorted(t)) for t in classic_fano_lines()}


def test_collineation_not_found_for_non_line_set():
    target = [(1, 2, 3), (1, 2, 4), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
    assert find_collineation(3, target) is None
    # The Fano lines with one triple listed twice in place of another.
    fano = classic_fano_lines()
    assert find_collineation(3, fano[:-1] + fano[:1]) is None


def test_collineation_wrong_count_raises():
    with pytest.raises(InvalidParameterError):
        find_collineation(3, [(1, 2, 3)])


def test_collineation_n_limit():
    # Both searches accept n up to MAX_N_INCIDENCE, the limit of lines()
    # and hyperplanes() that their final image checks build.
    for bad in (1, MAX_N_INCIDENCE + 1):
        for search in (find_collineation, find_hyperplane_collineation):
            with pytest.raises(InvalidParameterError):
                search(bad, [])


def _reference_search(n, triples):
    """The first frame search, kept as the oracle: every ordered n-tuple of
    target labels for the basis points 1, 2, ..., 2^(n-1), in lexicographic
    order, closed through the third-point table and checked against the target."""
    d = num_points(n)
    target_set = {tuple(t) for t in triples}
    third = _third_point_table(triples)
    basis = [1 << j for j in range(n)]
    canonical = lines(n)
    for frame in itertools.permutations(range(1, d + 1), n):
        perm = [0] * (d + 1)
        for b, t in zip(basis, frame):
            perm[b] = t
        used = set(frame)
        ok = True
        for c in range(3, d + 1):
            if perm[c]:
                continue
            low = c & -c
            img = third.get((min(perm[low], perm[c ^ low]), max(perm[low], perm[c ^ low])))
            if img is None or img in used:
                ok = False
                break
            perm[c] = img
            used.add(img)
        if not ok:
            continue
        image = {tuple(sorted((perm[p], perm[q], perm[r]))) for p, q, r in canonical}
        if image == target_set:
            return tuple(perm[1:])
    return None


def _reference_lines_from_blocks(blocks, d):
    """The first line derivation, kept as the oracle: the points collinear
    with a pair are those common to every block containing the pair."""
    points = frozenset(range(1, d + 1))
    triples = set()
    for p in range(1, d + 1):
        for q in range(p + 1, d + 1):
            common = points.intersection(*[b for b in blocks if p in b and q in b])
            if len(common) != 3:
                return None
            triples.add(tuple(sorted(common)))
    return triples


def _rule_lines(third, d):
    """The triples {p, q, third(p, q)} over all pairs p < q, or None when a
    pair gets no third point, or p or q as its own third point."""
    triples = set()
    for p, q in itertools.combinations(range(1, d + 1), 2):
        r = third(p, q)
        if r is None or r in (p, q):
            return None
        triples.add(tuple(sorted((p, q, r))))
    return triples


def _reference_hyperplane_search(n, blocks):
    blocks = [frozenset(b) for b in blocks]
    if len(set(blocks)) != len(blocks):
        return None
    triples = _reference_lines_from_blocks(blocks, num_points(n))
    if triples is None or len(triples) != num_lines(n):
        return None
    perm = _reference_search(n, sorted(triples))
    if perm is None:
        return None
    image = {frozenset(perm[p - 1] for p in h) for h in hyperplanes(n)}
    return perm if image == set(blocks) else None


def _relabelled(rng, n, sets, sigma):
    """The point sets under p -> sigma[p - 1], each in a random order, listed in a random order."""
    out = [tuple(int(sigma[p - 1]) for p in rng.permutation(s)) for s in sets]
    return [out[i] for i in rng.permutation(len(out))]


def _random_collineation(rng, n):
    """p -> M p for a uniformly random invertible M: rows are drawn until M is invertible."""
    while True:
        rows = tuple(int(x) for x in rng.integers(0, 2**n, size=n))
        try:
            return Collineation.from_matrix(rows, n)
        except InvalidParameterError:
            pass


def _search_targets(n, count):
    """count relabellings of the canonical space: half by random collineations
    (the image is the canonical set, reordered), half by random point permutations."""
    rng = np.random.default_rng(100 + n)
    for i in range(count):
        if i % 2:
            sigma = rng.permutation(num_points(n)) + 1
        else:
            sigma = _random_collineation(rng, n).perm
        yield rng, sigma


def _perm(coll):
    return None if coll is None else coll.perm


@pytest.mark.parametrize("n", [2, 3, 4])
def test_line_search_matches_reference(n):
    canonical = lines(n)
    for rng, sigma in _search_targets(n, 200):
        target = _relabelled(rng, n, canonical, sigma)
        expected = _reference_search(n, sorted(tuple(sorted(t)) for t in target))
        assert expected is not None
        assert _perm(find_collineation(n, target)) == expected


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hyperplane_search_matches_reference(n):
    canonical = hyperplanes(n)
    for rng, sigma in _search_targets(n, 200):
        target = _relabelled(rng, n, canonical, sigma)
        blocks = [frozenset(b) for b in target]
        assert _rule_lines(_block_rule(blocks, num_points(n)), num_points(n)) == (
            _reference_lines_from_blocks(blocks, num_points(n))
        )
        expected = _reference_hyperplane_search(n, target)
        assert expected is not None
        assert _perm(find_hyperplane_collineation(n, target)) == expected


def test_pasch_trade_is_not_projective():
    # Lines {1,2,3}, {1,4,5}, {2,4,6}, {3,5,6} form a Pasch configuration;
    # trading them for {1,2,4}, {1,3,5}, {2,3,6}, {4,5,6} covers the same
    # pairs, so the result is still a Steiner triple system on 15 points,
    # but no longer the projective space PG(3, 2).
    pasch = {(1, 2, 3), (1, 4, 5), (2, 4, 6), (3, 5, 6)}
    traded = {(1, 2, 4), (1, 3, 5), (2, 3, 6), (4, 5, 6)}
    assert pasch <= set(lines(4))
    sts = sorted((set(lines(4)) - pasch) | traded)
    for p, q in itertools.combinations(range(1, 16), 2):
        assert sum(1 for t in sts if p in t and q in t) == 1
    assert find_collineation(4, sts) is None
    assert _reference_search(4, sts) is None
    # The search fails wherever the labels put the traded lines.
    for rng, sigma in _search_targets(4, 50):
        assert find_collineation(4, _relabelled(rng, 4, sts, sigma)) is None


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_search_beyond_n4(n):
    rng = np.random.default_rng(n)
    sigma = rng.permutation(num_points(n)) + 1
    target = _relabelled(rng, n, lines(n), sigma)
    coll = find_collineation(n, target)
    assert coll is not None
    image = {tuple(sorted(coll.perm[p - 1] for p in t)) for t in lines(n)}
    assert image == {tuple(sorted(t)) for t in target}
    blocks = _relabelled(rng, n, hyperplanes(n), sigma)
    coll = find_hyperplane_collineation(n, blocks)
    assert coll is not None
    image = {frozenset(coll.perm[p - 1] for p in h) for h in hyperplanes(n)}
    assert image == {frozenset(b) for b in blocks}


def test_from_matrix_preserves_line_set():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        line_set = set(lines(n))
        for _ in range(10):
            coll = _random_collineation(rng, n)
            assert {tuple(sorted(coll.perm[p - 1] for p in t)) for t in line_set} == line_set


@pytest.mark.parametrize("n", [2, 3])
def test_from_matrix_every_matrix(n):
    # Of all 2^(n^2) matrices, exactly the |GL(n, 2)| = prod(2^n - 2^i)
    # invertible ones are accepted, each as p -> M p with distinct images,
    # and each maps the line set onto itself.
    line_set = set(lines(n))
    perms = []
    for rows in itertools.product(range(2**n), repeat=n):
        try:
            coll = Collineation.from_matrix(rows, n)
        except InvalidParameterError as exc:
            assert str(exc) == "rows must form an invertible n x n GF(2) matrix"
            continue
        for p in range(1, num_points(n) + 1):
            assert coll.perm[p - 1] == sum(_dot(r, p) << (n - 1 - i) for i, r in enumerate(rows))
        assert {tuple(sorted(coll.perm[p - 1] for p in t)) for t in line_set} == line_set
        perms.append(coll.perm)
    assert len(perms) == len(set(perms)) == math.prod(2**n - 2**i for i in range(n))


def test_from_matrix_rejects_singular():
    with pytest.raises(InvalidParameterError):
        Collineation.from_matrix((1, 1, 0), 3)


@pytest.mark.parametrize("rows", [(9, 2, 4), (-7, 2, 4)])
def test_from_matrix_rejects_rows_outside_n_bits(rows):
    # Both agree with (1, 2, 4) in their low three bits.
    with pytest.raises(InvalidParameterError, match="row bitmasks must lie in 0..7"):
        Collineation.from_matrix(rows, 3)


def test_classic_planes_15_shape():
    blocks = classic_planes_15()
    assert len(blocks) == 15
    assert blocks[0] == (1, 2, 3, 4, 5, 6, 7)
    assert blocks[7] == (1, 4, 13, 11, 10, 12, 5)
    for b in blocks:
        assert len(set(b)) == 7
        assert all(1 <= p <= 15 for p in b)


def test_hyperplane_collineation_classic_15():
    coll = find_hyperplane_collineation(4, classic_planes_15())
    assert coll is not None
    image = {frozenset(coll.perm[p - 1] for p in h) for h in hyperplanes(4)}
    assert image == {frozenset(b) for b in classic_planes_15()}


def test_hyperplane_collineation_n2_all_orderings():
    # The hyperplanes of the 3-point line are singletons, so every ordering of
    # the blocks is the same block set, found through the general search.
    for ordering in itertools.permutations((1, 2, 3)):
        coll = find_hyperplane_collineation(2, [(p,) for p in ordering])
        assert coll is not None
        assert coll.perm == (1, 2, 3)


def test_hyperplane_collineation_rejects_garbage():
    blocks = [tuple(range(1 + i, 8 + i)) for i in range(15)]
    blocks = [tuple(((x - 1) % 15) + 1 for x in b) for b in blocks]
    assert find_hyperplane_collineation(4, blocks) is None
    # No block holds both 1 and 2, so the pair spans no line.
    uncovered = [(1, 3, 4), (2, 3, 4), (3, 4, 5), (3, 4, 6), (3, 4, 7), (5, 6, 7), (1, 5, 6)]
    assert find_hyperplane_collineation(3, uncovered) is None
    # A repeated block: the image of the d distinct hyperplanes cannot match.
    repeated = hyperplanes(3)[:-1] + hyperplanes(3)[:1]
    assert find_hyperplane_collineation(3, repeated) is None
    # Point 1 lies in every block: the parity rule gives {1, 2} the third
    # point 2, and the intersection rule of the reference finds no line either.
    through_1 = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (1, 2, 4), (1, 3, 5), (1, 2, 5), (1, 3, 6)]
    assert _block_rule(through_1, 7)(1, 2) == 2
    assert _rule_lines(_block_rule(through_1, 7), 7) is None
    assert _reference_lines_from_blocks([frozenset(b) for b in through_1], 7) is None
    assert find_hyperplane_collineation(3, through_1) is None


def test_hyperplane_collineation_wrong_shape_raises():
    with pytest.raises(InvalidParameterError):
        find_hyperplane_collineation(4, [(1, 2, 3)])


def test_classic_line_set_n4_consistent_with_planes():
    # Pairwise plane intersections must reproduce the classical 35 lines,
    # and they agree with the classical 15-variable equation terms.
    derived = set(classic_line_set(4))
    assert len(derived) == num_lines(4)
    assert derived == pairs_to_lines(CLASSIC_15_PAIRS)


def test_geometry_json_schema():
    doc = json.loads(geometry_json(3))
    assert doc["schema_version"] == 1
    assert doc["n"] == 3
    assert len(doc["points"]) == 7
    assert doc["points"][0] == "001"
    assert len(doc["lines"]) == 7
    assert len(doc["hyperplanes"]) == 7
    assert all(set(h) == {"normal", "points"} for h in doc["hyperplanes"])


def _reference_geometry_json(n):
    """geometry_json as it was, a dict literal built from lines() and hyperplanes()."""
    return {
        "schema_version": 1,
        "n": n,
        "points": [format(p, f"0{n}b") for p in range(1, num_points(n) + 1)],
        "lines": [list(line) for line in lines(n)],
        "hyperplanes": [
            {"normal": v, "points": list(h)} for v, h in enumerate(hyperplanes(n), start=1)
        ],
    }


@pytest.mark.parametrize("n", range(2, 11))
def test_geometry_json_cli_matches_reference(n, capsys, tmp_path):
    reference = json.dumps(_reference_geometry_json(n), sort_keys=True, indent=1) + "\n"
    assert main(["geometry", "--n", str(n)]) == 0
    assert capsys.readouterr().out == reference
    path = tmp_path / "g.json"
    assert main(["geometry", "--n", str(n), "--out", str(path)]) == 0
    assert path.read_bytes() == reference.encode()


def test_incidence_dot():
    dot = incidence_dot(2)
    assert dot.startswith("graph")
    assert "p1 -- L1;" in dot
    assert "p3 -- L1;" in dot


def _reference_incidence_dot(n):
    """incidence_dot as it was, one int-formatting f-string per statement."""
    out = [f"graph incidence_{n} {{"]
    for p in range(1, num_points(n) + 1):
        out.append(f'  p{p} [shape=circle, label="{p}"];')
    for i, line in enumerate(lines(n), start=1):
        out.append(f'  L{i} [shape=box, label="L{i}"];')
        for p in line:
            out.append(f"  p{p} -- L{i};")
    out.append("}")
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("n", range(2, 11))
def test_incidence_dot_matches_reference(n):
    text, reference = incidence_dot(n), _reference_incidence_dot(n)
    if text != reference:  # name the first differing line, not a diff of megabytes
        pairs = zip(text.split("\n"), reference.split("\n"))
        diffs = (f"line {i}: {a!r} != {b!r}" for i, (a, b) in enumerate(pairs) if a != b)
        pytest.fail(next(diffs, "one text is a prefix of the other"))
