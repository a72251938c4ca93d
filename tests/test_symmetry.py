"""Circuit automorphisms: extension search, symmetry checks, orbits, supports."""

from __future__ import annotations

import itertools
from collections import Counter

import pytest

from extension_oracle import Witness, all_transpositions, verify_automorphism
from extension_oracle import bad_pairs as oracle_bad_pairs
from orbit_bounds import orbit_ratios
from symcirc import (
    ADD,
    GF,
    MUL,
    QQ,
    Circuit,
    CircuitBuilder,
    CircuitError,
    Matrix,
    Partition,
    Square,
    Transpose,
    check_symmetric,
    const,
    find_extension,
    group_generators,
    input_label,
    leverrier_det_circuit,
    minimal_support,
    orbits,
    ryser_perm_circuit,
)
from symcirc.symmetry import (
    _gate_index,
    _moved_gates,
    _stars,
    bad_pairs,
    col_sigma,
    diagonal_sigma,
    matrix_var,
    matrix_variables,
    row_sigma,
    transpose_sigma,
)


def perm2_circuit():
    """x11*x22 + x12*x21 over a 2x2 variable matrix."""
    b = CircuitBuilder(QQ, matrix_variables(2))
    for i in (1, 2):
        for j in (1, 2):
            b.add(input_label(matrix_var(i, j)), name=("x", i, j))
    m1 = b.add(MUL, [b.names[("x", 1, 1)], b.names[("x", 2, 2)]], name="m1")
    m2 = b.add(MUL, [b.names[("x", 1, 2)], b.names[("x", 2, 1)]], name="m2")
    out = b.add(ADD, [m1, m2], name="out")
    return b.build(out), dict(b.names)


def det2_circuit():
    """x11*x22 - x12*x21."""
    b = CircuitBuilder(QQ, matrix_variables(2))
    for i in (1, 2):
        for j in (1, 2):
            b.add(input_label(matrix_var(i, j)), name=("x", i, j))
    m1 = b.add(MUL, [b.names[("x", 1, 1)], b.names[("x", 2, 2)]], name="m1")
    m2 = b.add(MUL, [b.names[("x", 1, 2)], b.names[("x", 2, 1)]], name="m2")
    neg = b.add(MUL, [b.add(const(QQ.of(-1))), m2], name="neg")
    out = b.add(ADD, [m1, neg], name="out")
    return b.build(out), dict(b.names)


def test_sigma_builders():
    # fixed points are omitted from sigma dicts
    s = diagonal_sigma(2, {1: 2, 2: 1})
    assert s["x_1_2"] == "x_2_1"
    r = row_sigma(2, 2, {1: 2, 2: 1})
    assert r["x_1_2"] == "x_2_2"
    assert r["x_2_1"] == "x_1_1"
    c = col_sigma(2, 2, {1: 2, 2: 1})
    assert c["x_1_2"] == "x_1_1"
    t = transpose_sigma(2)
    assert t["x_1_2"] == "x_2_1"
    assert "x_1_1" not in t


def test_generator_counts():
    # (1 2) and, from three points on, the cycle (2 3 ... n) per factor,
    # plus the transpose
    assert len(group_generators(Square(3))) == 2
    assert len(group_generators(Matrix(2, 3))) == 1 + 2
    assert len(group_generators(Transpose(2))) == 1 + 1
    assert len(group_generators(Partition((("u", "v"), ("w",))))) == 1
    assert len(group_generators(Partition((("u", "v", "w"),)))) == 2
    assert len(group_generators(Square(6))) == 2
    assert len(group_generators(Matrix(4, 6))) == 2 + 2
    assert len(group_generators(Transpose(16))) == 2 + 1
    assert len(group_generators(Partition((("a", "b", "c", "d"), ("y", "z"))))) == 2 + 1


def test_generators_are_the_pair_and_the_cycle():
    assert group_generators(Square(5)) == [diagonal_sigma(5, {1: 2, 2: 1}),
                                           diagonal_sigma(5, {2: 3, 3: 4, 4: 5, 5: 2})]
    assert group_generators(Matrix(2, 4)) == [row_sigma(2, 4, {1: 2, 2: 1}),
                                              col_sigma(2, 4, {1: 2, 2: 1}),
                                              col_sigma(2, 4, {2: 3, 3: 4, 4: 2})]
    assert group_generators(Partition((("a", "b", "c", "d"),))) == [
        {"a": "b", "b": "a"}, {"b": "c", "c": "d", "d": "b"}]


def adjacent_transpositions(spec) -> list:
    """Another generating set of the group: the swaps (i i+1) of each
    factor, plus the transpose map; for a Partition, the swaps of
    consecutive ids of each block.  Up to three points per factor it is
    group_generators(spec) itself."""
    if isinstance(spec, Partition):
        return [{a: b, b: a} for block in spec.parts for a, b in zip(block, block[1:])]
    if isinstance(spec, Matrix):
        gens = ([row_sigma(spec.m, spec.n, {i: i + 1, i + 1: i}) for i in range(1, spec.m)]
                + [col_sigma(spec.m, spec.n, {j: j + 1, j + 1: j}) for j in range(1, spec.n)])
    else:
        gens = [diagonal_sigma(spec.n, {i: i + 1, i + 1: i}) for i in range(1, spec.n)]
    if isinstance(spec, Transpose):
        gens.append(transpose_sigma(spec.n))
    return gens


SMALL_SPECS = ([cls(n) for cls in (Square, Transpose) for n in (1, 2, 3)]
               + [Matrix(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
               + [Partition((("u",), ("v", "w"), ("x", "y", "z")))])


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=str)
def test_generators_up_to_three_points_are_adjacent_transpositions(spec):
    # so lowering, whose groups have n <= 3, extends the same witnesses
    assert group_generators(spec) == adjacent_transpositions(spec)


BAD_SPECS = [
    pytest.param(Square, (0,), id="Square(0)"),
    pytest.param(Square, (-1,), id="Square(-1)"),
    pytest.param(Square, (True,), id="Square(True)"),
    pytest.param(Square, (2.5,), id="Square(2.5)"),
    pytest.param(Transpose, (0,), id="Transpose(0)"),
    pytest.param(Matrix, (0, 3), id="Matrix(0,3)"),
    pytest.param(Partition, ((("x_1_1", "x_1_2"), ("x_1_2", "x_2_1")),), id="overlapping-blocks"),
    pytest.param(Partition, ((("x_1_1", "x_1_1"),),), id="repeated-variable"),
    pytest.param(Partition, ([["x_1_1", "x_2_2"]],), id="list-blocks"),
    pytest.param(Partition, (((1, 2),),), id="int-variables"),
]


@pytest.mark.parametrize("cls, args", BAD_SPECS)
def test_bad_spec_is_refused_where_it_is_made(cls, args):
    # sizes are ints >= 1 and not bool; parts are tuples of str, no
    # variable in two places; anything else would be answered as a group
    with pytest.raises(CircuitError, match="bad group spec"):
        cls(*args)


def test_spec_factors_and_text():
    assert [(tag, size) for tag, size, _make in Matrix(2, 3).factors()] == [("r", 2), ("c", 3)]
    assert [(tag, size) for tag, size, _make in Transpose(4).factors()] == [(None, 4)]
    assert Square(4).factors()[0][2]({1: 2, 2: 1}) == diagonal_sigma(4, {1: 2, 2: 1})
    assert [Square(2).text(), Transpose(3).text(), Matrix(2, 5).text()] == [
        "square:2", "transpose:3", "matrix:2,5"]
    assert Partition((("u", "v"),)).text() == "partition"
    with pytest.raises(CircuitError, match="no index points"):
        Partition((("u", "v"),)).factors()


def test_find_extension_on_symmetric_circuit():
    c, names = perm2_circuit()
    sigma = row_sigma(2, 2, {1: 2, 2: 1})
    pi = find_extension(c, sigma)
    assert pi is not None
    # row swap exchanges the two product gates and fixes the output
    assert pi[names["m1"]] == names["m2"]
    assert pi[names["out"]] == names["out"]
    assert verify_automorphism(c, Witness(sigma, pi)) == []


def test_find_extension_respects_fix():
    # the row swap's extension fixes the output and moves the product gates
    c, names = perm2_circuit()
    pi = find_extension(c, row_sigma(2, 2, {1: 2, 2: 1}))
    assert pi[names["out"]] == names["out"]
    assert pi[names["m1"]] != names["m1"]


def test_find_extension_missing_input_target():
    b = CircuitBuilder(QQ, matrix_variables(2))
    x = b.add(input_label(matrix_var(1, 1)))
    c = b.build(x)
    sigma = diagonal_sigma(2, {1: 2, 2: 1})
    assert find_extension(c, sigma) is None


def test_find_extension_requires_fixed_output():
    # x + 1 is the output and y + 1 hangs beside it: swapping x and y maps
    # every gate onto a gate but moves the output
    b = CircuitBuilder(QQ, ["x", "y"])
    one = b.add(const(QQ.of(1)))
    out = b.add(ADD, [b.add(input_label("x")), one])
    b.add(ADD, [b.add(input_label("y")), one])
    c = b.build(out)
    assert find_extension(c, {"x": "y", "y": "x"}) is None
    assert not check_symmetric(c, Partition((("x", "y"),))).symmetric


def test_verify_automorphism_flags_bad_witness():
    c, names = perm2_circuit()
    sigma = row_sigma(2, 2, {1: 2, 2: 1})
    ident = {g: g for g in c.gates}
    assert verify_automorphism(c, Witness(sigma, ident)) != []


def test_verify_automorphism_counts_wire_multiplicities():
    # x + x + y and x + y + y: swapping x and y must swap the two sums; a map
    # fixing them matches every wire set but not the multiplicities
    b = CircuitBuilder(QQ, ["x", "y"])
    x = b.add(input_label("x"))
    y = b.add(input_label("y"))
    g1 = b.add(ADD, [x, x, y])
    g2 = b.add(ADD, [x, y, y])
    c = b.build(b.add(MUL, [g1, g2]))
    sigma = {"x": "y", "y": "x"}
    swap = {x: y, y: x}
    fixed = {g: swap.get(g, g) for g in c.gates}
    assert verify_automorphism(c, Witness(sigma, fixed)) != []
    pi = find_extension(c, sigma)
    assert (pi[g1], pi[g2]) == (g2, g1)
    assert verify_automorphism(c, Witness(sigma, pi)) == []


def test_non_rigid_circuit_rejected():
    # two copies of x*y: the search would need to pick one, so it refuses
    c = Circuit(QQ, ["x", "y"],
                {0: input_label("x"), 1: input_label("y"), 2: MUL, 3: MUL, 4: ADD},
                {2: [0, 1], 3: [0, 1], 4: [2, 3]}, 4)
    with pytest.raises(CircuitError, match="gates 2 and 3 share a label and children"):
        find_extension(c, {"x": "y", "y": "x"})
    with pytest.raises(CircuitError, match="not rigid"):
        check_symmetric(c, Partition((("x", "y"),)))
    # the identity is an automorphism, but orbits needs the unique extension
    identity = Witness({}, {g: g for g in c.gates})
    assert verify_automorphism(c, identity) == []
    with pytest.raises(CircuitError, match="not rigid"):
        orbits(c, [{}])


def test_builder_index_is_the_gate_index():
    # the handed-over table indexes a built circuit as its own gates would
    c = leverrier_det_circuit(3, QQ).circuit
    rebuilt = Circuit(c.field, c.variables, c.gates, c.wires, c.output)
    assert c._gate_index is not None and rebuilt._gate_index is None
    assert _gate_index(c) == _gate_index(rebuilt)


def test_check_symmetric_permanent():
    c, _ = perm2_circuit()
    rep = check_symmetric(c, Matrix(2, 2))
    assert rep.symmetric
    assert len(rep.witnesses) == 2
    for sigma in rep.witnesses:
        assert verify_automorphism(c, Witness(sigma, find_extension(c, sigma))) == []


def test_check_symmetric_determinant_fails_row_swap():
    c, _ = det2_circuit()
    rep = check_symmetric(c, Matrix(2, 2))
    assert not rep.symmetric
    assert rep.failed


def test_check_symmetric_determinant_transpose():
    c, _ = det2_circuit()
    rep = check_symmetric(c, Transpose(2))
    assert rep.symmetric


@pytest.mark.parametrize("build, n, fld",
                         [(b, n, QQ) for b in (leverrier_det_circuit, ryser_perm_circuit)
                          for n in (2, 3, 4)] + [(ryser_perm_circuit, 3, GF(2))])
def test_generator_witnesses_follow_group_generators_order(build, n, fld):
    # one witness per group generator, in group_generators order
    gen = build(n, fld)
    assert gen.witnesses == group_generators(gen.group)


def test_partition_spec_on_plain_variables():
    b = CircuitBuilder(QQ, ["u", "v", "w"])
    u = b.add(input_label("u"))
    v = b.add(input_label("v"))
    w = b.add(input_label("w"))
    c = b.build(b.add(ADD, [u, v, w]))
    assert check_symmetric(c, Partition((("u", "v", "w"),))).symmetric

    b = CircuitBuilder(QQ, ["u", "v"])
    u = b.add(input_label("u"))
    v = b.add(input_label("v"))
    sq = b.add(MUL, [v, v])
    c = b.build(b.add(ADD, [u, sq]))
    assert not check_symmetric(c, Partition((("u", "v"),))).symmetric


def test_orbits_of_permanent():
    c, names = perm2_circuit()
    rep = check_symmetric(c, Matrix(2, 2))
    orb = orbits(c, rep.witnesses)
    assert orb.max_orbit == 4
    assert sorted(len(o) for o in orb.orbits) == [1, 2, 4]
    assert set(orb.orbit_of(names["m1"])) == {names["m1"], names["m2"]}


def test_orbits_rejects_invalid_witness():
    # (1 2) maps x_1_1 to x_2_2, which labels no gate
    c, _ = corners3_circuit()
    swap = diagonal_sigma(3, {1: 2, 2: 1})
    with pytest.raises(CircuitError, match="^permutation 1 has no extension$"):
        orbits(c, [diagonal_sigma(3, {1: 3, 3: 1}), swap])
    # x_1_1 and x_2_2 both go to x_3_3
    not_a_perm = {matrix_var(1, 1): matrix_var(3, 3), matrix_var(2, 2): matrix_var(3, 3)}
    with pytest.raises(CircuitError, match="map is not a permutation of the variables"):
        orbits(c, [not_a_perm])


def test_check_symmetric_names_only_unknown_variables():
    det2 = leverrier_det_circuit(2).circuit
    with pytest.raises(CircuitError, match="^permutation mentions unknown variable 'zz'$"):
        check_symmetric(det2, Partition((("x_1_1", "zz"),)))
    with pytest.raises(CircuitError, match="^permutation mentions unknown variable 'yy' and 'zz'$"):
        check_symmetric(det2, Partition((("yy", "zz"),)))


def test_orbits_rejects_a_failed_generator():
    # x*x + y: swapping x and y has no extension, so check_symmetric reports
    # None for generator 0, and orbits names it instead of reading it
    b = CircuitBuilder(QQ, ["x", "y"])
    x = b.add(input_label("x"))
    c = b.build(b.add(ADD, [b.add(MUL, [x, x]), b.add(input_label("y"))]))
    rep = check_symmetric(c, Partition((("x", "y"),)))
    assert rep.witnesses == [None] and rep.failed == [0]
    with pytest.raises(CircuitError, match="^permutation 0 has no extension$"):
        orbits(c, rep.witnesses)


def full_matrix_sum(n):
    b = CircuitBuilder(QQ, matrix_variables(n))
    ins = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            ins.append(b.add(input_label(matrix_var(i, j)), name=("x", i, j)))
    out = b.add(ADD, ins, name="out")
    return b.build(out), dict(b.names)


def test_support_of_input_gate():
    # x_ij is moved exactly by the transpositions touching i or j, so on
    # four points its minimum support is {i, j}, one point on the diagonal
    c, names = full_matrix_sum(4)
    spec = Square(4)
    assert minimal_support(c, names[("x", 1, 2)], spec) == {1, 2}
    assert minimal_support(c, names[("x", 4, 3)], spec) == {3, 4}
    assert minimal_support(c, names[("x", 2, 2)], spec) == {2}


def test_bad_pairs_and_minimal_support():
    c, names = full_matrix_sum(3)
    g = names[("x", 1, 2)]
    spec = Square(3)
    bad = bad_pairs(c, g, spec)
    assert set(bad) == {(1, 2), (1, 3), (2, 3)}
    assert minimal_support(c, g, spec) == {1, 2}
    # the symmetric sum itself needs no points at all
    assert minimal_support(c, names["out"], spec) == set()


def test_support_points_for_matrix_spec():
    # 3x3 makes the cover unique: only row 1 and column 2 hit every bad pair
    c, names = full_matrix_sum(3)
    g = names[("x", 1, 2)]
    spec = Matrix(3, 3)
    assert minimal_support(c, g, spec) == {("r", 1), ("c", 2)}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_transpose_supports_are_square_supports(n):
    # supports are taken in the index-point action, which the transpose map
    # fixes pointwise, so Transpose(n) and Square(n) give the same supports
    c = leverrier_det_circuit(n, QQ).circuit
    for g in sorted(c.gates):
        assert minimal_support(c, g, Transpose(n)) == minimal_support(c, g, Square(n)), g


def test_transpose_support_of_gate_the_transpose_moves():
    gen = leverrier_det_circuit(4, QQ)
    c, g = gen.circuit, gen.names[("pow", 2, 1, 2)]
    assert g == 29   # the gate of README's support example
    assert find_extension(c, transpose_sigma(4))[g] != g
    assert minimal_support(c, g, Transpose(4)) == minimal_support(c, g, Square(4)) == {1, 2}


def test_support_rejects_partition_spec():
    c, names = full_matrix_sum(2)
    with pytest.raises(CircuitError, match="no index points"):
        bad_pairs(c, names["out"], Partition((("x_1_1",),)))


@pytest.mark.parametrize("spec", [Square(1), Square(3), Matrix(2, 2)])
def test_support_rejects_missing_gate(spec):
    c, _ = full_matrix_sum(spec.n)
    with pytest.raises(CircuitError, match="gate 999 does not exist"):
        bad_pairs(c, 999, spec)
    with pytest.raises(CircuitError, match="gate 999 does not exist"):
        minimal_support(c, 999, spec)


def corners3_circuit():
    """x_1_1 + x_3_3 over the 3x3 variables: (1 3) extends, (1 2) and (2 3)
    do not, as x_2_2 labels no gate."""
    b = CircuitBuilder(QQ, matrix_variables(3))
    x11 = b.add(input_label(matrix_var(1, 1)), name="x11")
    x33 = b.add(input_label(matrix_var(3, 3)), name="x33")
    return b.build(b.add(ADD, [x11, x33], name="out")), dict(b.names)


def test_bad_pairs_fall_back_past_a_missing_step():
    # neither generator, (1 2) nor (2 3), extends, so the star (1 3) is
    # not derived but judged by its own extension, which fixes the output
    c, names = corners3_circuit()
    spec = Square(3)
    assert check_symmetric(c, spec).failed == [0, 1]
    assert find_extension(c, diagonal_sigma(3, {1: 3, 3: 1}))[names["out"]] == names["out"]
    assert bad_pairs(c, names["out"], spec) == [(1, 2), (2, 3)]
    assert minimal_support(c, names["out"], spec) == {2}
    for g in sorted(c.gates):
        assert bad_pairs(c, g, spec) == oracle_bad_pairs(c, g, spec), g


def diagonal4_circuit():
    """x_1_1 + x_2_2 over the 4x4 variables: (1 2) extends, the cycle
    (2 3 4) does not, as x_3_3 labels no gate."""
    b = CircuitBuilder(QQ, matrix_variables(4))
    x11 = b.add(input_label(matrix_var(1, 1)), name="x11")
    x22 = b.add(input_label(matrix_var(2, 2)), name="x22")
    return b.build(b.add(ADD, [x11, x22], name="out")), dict(b.names)


def test_bad_pairs_fall_back_past_a_missing_cycle():
    # the stars (1 3) and (1 4) cannot be derived from the cycle, so each
    # is extended on its own: neither extends, yet (3 4) does
    c, names = diagonal4_circuit()
    spec = Square(4)
    assert check_symmetric(c, spec).failed == [1]
    (_tag, size, make), = spec.factors()
    assert _stars(c, size, make) == {2: _moved_gates(c, make({1: 2, 2: 1})), 3: None, 4: None}
    assert bad_pairs(c, names["out"], spec) == [(1, 3), (1, 4), (2, 3), (2, 4)]
    assert minimal_support(c, names["out"], spec) == {1, 2}
    for g in sorted(c.gates):
        assert bad_pairs(c, g, spec) == oracle_bad_pairs(c, g, spec), g


STAR_CASES = ([pytest.param("det", n, spec, id=f"det-{spec}")
               for n in range(3, 9) for spec in (Square(n), Transpose(n))]
              + [pytest.param("perm", n, Matrix(n, n), id=f"perm-{n}") for n in range(3, 9)])


@pytest.mark.parametrize("kind, n, spec", STAR_CASES)
def test_derived_stars_are_the_star_extensions(kind, n, spec):
    # t_(k+1) is t_k conjugated by the cycle; it must equal the extension
    # of the star (1 k+1) computed by its own pass
    gen = leverrier_det_circuit(n, QQ) if kind == "det" else ryser_perm_circuit(n, QQ)
    c = gen.circuit
    for _tag, size, make in spec.factors():
        stars = _stars(c, size, make)
        assert sorted(stars) == list(range(2, size + 1))
        for k, star in stars.items():
            assert star == _moved_gates(c, make({1: k, k: 1})), k


def three_block_circuit():
    """(u + v + w) * y * z, symmetric under Sym({u, v, w}) x Sym({y, z})."""
    b = CircuitBuilder(QQ, ["u", "v", "w", "y", "z"])
    u, v, w, y, z = (b.add(input_label(x)) for x in "uvwyz")
    return b.build(b.add(MUL, [b.add(ADD, [u, v, w]), y, z]))


def four_block_circuit():
    """(ab + ac + ad + bc + bd + cd) * (y + z), symmetric under
    Sym({a, b, c, d}) x Sym({y, z}); its six products form one orbit."""
    b = CircuitBuilder(QQ, ["a", "b", "c", "d", "y", "z"])
    xs = {v: b.add(input_label(v)) for v in "abcdyz"}
    e2 = b.add(ADD, [b.add(MUL, [xs[u], xs[v]]) for u, v in itertools.combinations("abcd", 2)])
    return b.build(b.add(MUL, [e2, b.add(ADD, [xs["y"], xs["z"]])]))


SAME_GROUP_CASES = (
    [(f"det{n}", lambda n=n: leverrier_det_circuit(n, QQ).circuit, spec)
     for n in (3, 4, 5, 6) for spec in (Transpose(n), Square(n))]
    + [(f"perm{n}", lambda n=n: ryser_perm_circuit(n, QQ).circuit, Matrix(n, n))
       for n in (3, 4, 5, 6)]
    + [("three-block", three_block_circuit, Partition((("u", "v", "w"), ("y", "z")))),
       ("four-block", four_block_circuit, Partition((("a", "b", "c", "d"), ("y", "z")))),
       ("corners3", lambda: corners3_circuit()[0], Square(3)),
       ("diagonal4", lambda: diagonal4_circuit()[0], Square(4))])


@pytest.mark.parametrize("name, build, spec", SAME_GROUP_CASES,
                         ids=[f"{name}-{spec}" for name, _b, spec in SAME_GROUP_CASES])
def test_generators_generate_the_group_of_all_transpositions(name, build, spec):
    # the pair (1 2), (2 3 ... n) and all transpositions generate one group,
    # so they give one verdict and, on a symmetric circuit, one orbit partition
    c = build()
    rep = check_symmetric(c, spec)
    every = all_transpositions(spec)
    assert rep.symmetric == all(find_extension(c, sigma) is not None for sigma in every)
    if rep.symmetric:
        assert orbits(c, rep.witnesses).orbits == orbits(c, every).orbits
    assert len(rep.witnesses) < len(every)


def test_det16_is_symmetric_under_three_generators():
    # the frontier of the determinant family: 44,286 gates, yet the
    # transpose group still needs only (1 2), (2 3 ... 16) and the transpose
    c = leverrier_det_circuit(16, QQ).circuit
    rep = check_symmetric(c, Transpose(16))
    assert rep.symmetric
    assert len(rep.witnesses) == 3
    assert orbits(c, rep.witnesses).max_orbit == 6720


def test_det12_orbits_equal_the_adjacent_transposition_orbits():
    c = leverrier_det_circuit(12, QQ).circuit
    spec = Transpose(12)
    rep = check_symmetric(c, spec)
    adjacent = adjacent_transpositions(spec)
    assert len(adjacent) == 11 + 1
    assert orbits(c, rep.witnesses).orbits == orbits(c, adjacent).orbits


CENSUS = [
    ("det", 4, {0: 22, 1: 20, 2: 72, 3: 24}),
    ("det", 5, {0: 30, 1: 40, 2: 260, 3: 180}),
    ("det", 6, {0: 40, 1: 54, 2: 405, 3: 360}),
    ("det", 7, {0: 50, 1: 77, 2: 735, 3: 840}),
    ("det", 8, {0: 62, 1: 96, 2: 1008, 3: 1344}),
    ("perm", 4, {0: 6, 1: 40, 2: 76, 3: 48}),
    ("perm", 5, {0: 6, 1: 40, 2: 160, 3: 200}),
    ("perm", 6, {0: 6, 1: 60, 2: 204, 3: 440, 4: 240}),
    ("perm", 7, {0: 6, 1: 56, 2: 322, 3: 798, 4: 980}),
    ("perm", 8, {0: 6, 1: 80, 2: 368, 3: 1344, 4: 1932, 5: 1120}),
    # the group of the paper's permanent lower bound: one permutation of [n]
    # acting on rows and columns at once
    ("perm-square", 4, {0: 6, 1: 56, 2: 108}),
    ("perm-square", 5, {0: 6, 1: 60, 2: 220, 3: 120}),
    ("perm-square", 6, {0: 6, 1: 84, 2: 300, 3: 560}),
    ("perm-square", 7, {0: 6, 1: 84, 2: 462, 3: 1050, 4: 560}),
    ("perm-square", 8, {0: 6, 1: 112, 2: 560, 3: 1792, 4: 2380}),
]


@pytest.mark.parametrize("kind, n, histogram", CENSUS, ids=[f"{k}{n}" for k, n, _h in CENSUS])
def test_support_census(kind, n, histogram):
    # minimal support size over every gate: Le Verrier gates are indexed by
    # at most three points under Square, Ryser gates need up to n/2 + 1
    # under Matrix and ceil(n/2) under Square
    if kind == "det":
        c, spec = leverrier_det_circuit(n, QQ).circuit, Square(n)
    elif kind == "perm":
        c, spec = ryser_perm_circuit(n, QQ).circuit, Matrix(n, n)
    else:
        c, spec = ryser_perm_circuit(n, QQ).circuit, Square(n)
    sizes = Counter(len(minimal_support(c, g, spec)) for g in c.gates)
    assert dict(sizes) == histogram
    if kind == "det":
        assert max(sizes) <= 3
    elif kind == "perm":
        assert max(sizes) == n // 2 + 1
    else:
        assert max(sizes) == (n + 1) // 2


YOUNG_CASES = ([pytest.param("det", spec, id=f"det-{spec}")
                for n in range(3, 8) for spec in (Square(n), Transpose(n))]
               + [pytest.param("perm", spec, id=f"perm-{spec}")
                  for n in range(3, 8) for spec in (Matrix(n, n), Square(n))])
TRANSPOSE_DOUBLED = {3: 12, 4: 24, 5: 240, 6: 420, 7: 756}   # det gates at twice the upper end


@pytest.mark.parametrize("kind, spec", YOUNG_CASES)
def test_orbits_within_the_young_bounds(kind, spec):
    # every gate's orbit lies between the Young bounds of its point classes
    # (orbit_ratios asserts it) and, as measured, sits at the upper end,
    # except under Transpose, where some det gates sit at twice it
    n = spec.n
    c = (leverrier_det_circuit if kind == "det" else ryser_perm_circuit)(n, QQ).circuit
    rep = check_symmetric(c, spec)
    assert rep.symmetric
    ratios = orbit_ratios(c, spec, rep.witnesses)
    assert set(ratios) <= {1, 2}
    assert ratios[2] == (TRANSPOSE_DOUBLED[n] if isinstance(spec, Transpose) else 0)


EQUIVALENCE_CASES = ([pytest.param("det", n, Square(n), id=f"det-{n}") for n in range(2, 7)]
                     + [pytest.param("perm", n, Matrix(n, n), id=f"perm-{n}") for n in range(2, 7)]
                     + [pytest.param("det", n, Matrix(n, n), id=f"det-matrix-{n}")
                        for n in range(2, 7)])


@pytest.mark.parametrize("kind, n, spec", EQUIVALENCE_CASES)
def test_good_pairs_are_an_equivalence(kind, n, spec):
    # a ~ b iff (a b)'s own extension fixes the gate: the relation is
    # transitive, since (a c) = (a b)(b c)(a b), and bad_pairs, which reads
    # (1 a)(1 b)(1 a) off the stars or falls back past a missing one, lists
    # exactly its complement; det under Matrix has no generator that extends
    if kind == "det":
        c = leverrier_det_circuit(n, QQ).circuit
    else:
        c = ryser_perm_circuit(n, QQ).circuit
    if isinstance(spec, Square):
        factors = [(None, lambda p: diagonal_sigma(n, p))]
    else:
        factors = [("r", lambda p: row_sigma(n, n, p)), ("c", lambda p: col_sigma(n, n, p))]
    extensions = {}
    for tag, make in factors:
        for a, b in itertools.combinations(range(1, n + 1), 2):
            pair = (a, b) if tag is None else ((tag, a), (tag, b))
            extensions[pair] = find_extension(c, make({a: b, b: a}))
    for g in c.gates:
        good = {pair for pair, pi in extensions.items() if pi is not None and pi[g] == g}
        good |= {(b, a) for a, b in good}
        for a, b, d in itertools.permutations({p for pair in extensions for p in pair}, 3):
            if (a, b) in good and (b, d) in good:
                assert (a, d) in good, (g, a, b, d)
        assert bad_pairs(c, g, spec) == [pair for pair in extensions if pair not in good], g
