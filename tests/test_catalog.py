import hashlib
import json
import random
from types import SimpleNamespace

import pytest

import darbouxops
from darbouxops import catalog, invariants as inv, lie, linalg
from darbouxops import operators as ops
from darbouxops.errors import UnknownEntryError
from darbouxops.scalars import Scalar

TABLE_NAMES = [
    "A_{2,1}", "A_{3,1}", "A_{3,2}", "A_{3,3}",
    "A_{4,1}", "A_{4,2}", "A_{4,3}", "A_{4,4}", "A_{4,5}",
    "A_{5,1}", "A_{5,2}", "A_{5,3}", "A_{5,4}", "A_{5,5}", "A_{5,6}",
    "A_{6,1}", "A_{6,2}", "A_{6,3}", "A_{6,4}", "A_{6,5}", "A_{6,6}",
    "A_{6,7}", "A_{6,8}", "A_{6,9}", "A_{6,10}", "A_{6,11}", "A_{6,12}",
    "A_{6,13}", "A_{6,14}", "A_{6,15}", "A_{6,16}", "A_{6,17}", "A_{6,18}",
]


def test_catalog_list_contents():
    names = catalog.catalog_list()
    assert names == TABLE_NAMES + ["sl3", "g2"]
    assert len(names) == 35


def test_catalog_get_unknown():
    with pytest.raises(UnknownEntryError):
        catalog.catalog_get("bogus")


def test_catalog_get_a56():
    entry = catalog.catalog_get("A_{5,6}")
    assert entry.algebra_name == "n_{5,2}"
    assert entry.structure == "3-Step Nilpotent"
    tags = lie.structure_tags(entry.algebra)
    assert tags.nilpotency_class == 3


def test_split_check_needs_closed_summands():
    """[e1, e2] = e3 decouples nothing from e3 across the split, but e1 + e2 is not closed."""
    heisenberg = lie.LieAlgebra.from_brackets(3, {(0, 1): {2: 1}})
    ok, problems = catalog._tags_match(
        SimpleNamespace(algebra=heisenberg, expected_tags={"split": [2, 1]}))
    assert not ok
    assert problems == ["summands do not decouple at the catalogued split"]
    split = lie.direct_sum(lie.heisenberg3(), lie.abelian(1))
    assert catalog._tags_match(SimpleNamespace(algebra=split, expected_tags={"split": [3, 1]}))[0]
    for wrong in ([2, 2], [3, 2]):
        assert not catalog._tags_match(
            SimpleNamespace(algebra=split, expected_tags={"split": wrong}))[0]


def test_verify_a33_entry():
    rep = catalog.verify_entry("A_{3,3}")
    assert rep.passed
    entry = catalog.catalog_get("A_{3,3}")
    assert inv.compatible_metric_space(entry.algebra).dim == 1 == len(entry.eta_params)


def test_verify_a65_is_so3_plus_so3():
    entry = catalog.catalog_get("A_{6,5}")
    flipped = ops.change_basis(lie.so3(), [[-1, 0, 0], [0, -1, 0], [0, 0, -1]])
    assert entry.algebra == lie.direct_sum(flipped, flipped)
    assert inv.quadratic_casimir_space(entry.algebra).dim == 2


def test_a610_is_flagged_duplicate():
    rep = catalog.verify_entry("A_{6,10}")
    assert rep.passed  # the stored operator verifies; only the tag is flagged
    assert any("structure tags differ" in f for f in rep.flags)
    e9 = catalog.catalog_get("A_{6,9}")
    e10 = catalog.catalog_get("A_{6,10}")
    assert e9.algebra == e10.algebra


def test_structure_tags_match_table_everywhere_else():
    for name in catalog.catalog_list():
        entry = catalog.catalog_get(name)
        ok, problems = catalog._tags_match(entry)
        if name == "A_{6,10}":
            assert not ok
        else:
            assert ok, f"{name}: {problems}"


def test_every_entry_operator_verifies_identically():
    for name in catalog.catalog_list():
        entry = catalog.catalog_get(name)
        rep = ops.verify_darboux(entry.operator())
        assert rep.passed, f"{name}: {rep.failed_names()}"


def test_every_entry_passes_the_general_verifier_too():
    # the triple criterion and the general one must agree on the whole
    # catalog, identically in every parameter and modulus
    for name in catalog.catalog_list():
        entry = catalog.catalog_get(name)
        rep = ops.verify_hamiltonian(entry.operator().to_poly_operator())
        assert rep.passed, f"{name}: {rep.failed_names()}"


def test_phi_symmetry_fails_exactly_when_metric_fails_on_mutations():
    """Mutating the metric of a catalog family breaks the general verifier's
    cyclic-symmetry condition if and only if the metric condition breaks."""
    for name in ("A_{3,2}", "A_{3,3}", "A_{4,2}", "A_{5,6}", "A_{6,7}"):
        entry = catalog.catalog_get(name)
        ring = entry.ring
        ones = {p: ring.one for p in entry.eta_params + entry.f_params}
        ones.update({m: ring.const(Scalar(v)) for m, v in entry.moduli.items()})
        eta = [[e.subs(ones) for e in row] for row in entry.eta]
        fmat = [[e.subs(ones) for e in row] for row in entry.fmat]
        c = [[[e.subs(ones) for e in row] for row in plane] for plane in entry.c]
        n = entry.dim
        for bump_i in range(n):
            for bump_j in range(bump_i, n):
                eta2 = [row[:] for row in eta]
                eta2[bump_i][bump_j] = eta2[bump_i][bump_j] + ring.one
                eta2[bump_j][bump_i] = eta2[bump_i][bump_j]
                op = ops.DarbouxOperator(ring, c, eta2, fmat, _checked=True)
                dar = ops.verify_darboux(op)
                thm = ops.verify_hamiltonian(op.to_poly_operator())
                metric_ok = "metric-compatibility" not in dar.failed_names()
                phi_ok = "phi-cyclic-symmetry" not in thm.failed_names()
                assert metric_ok == phi_ok, (name, bump_i, bump_j)


def test_param_counts_match_computed_dims_except_g2():
    for name in catalog.catalog_list():
        entry = catalog.catalog_get(name)
        met = inv.compatible_metric_space(entry.algebra)
        coc = inv.two_cocycle_space(entry.algebra)
        assert len(entry.eta_params) == met.dim, name
        if name == "g2":
            assert len(entry.f_params) == 10 and coc.dim == 14
        else:
            assert len(entry.f_params) == coc.dim, name


def test_verify_all_summary():
    reports = catalog.verify_all()
    assert [r.name for r in reports] == catalog.catalog_list()
    assert all(r.passed for r in reports)
    flagged = {r.name for r in reports if r.flags}
    assert "A_{6,10}" in flagged and "g2" in flagged


def test_g2_entry_details():
    entry = catalog.catalog_get("g2")
    assert entry.dim == 14
    assert lie.jacobi_defect(entry.algebra.c) == {}
    # displayed metric at alpha = 1 inverts into the Casimir space
    eta1 = [
        [entry.eta[i][j].subs({"alpha": entry.ring.one}).constant_value() for j in range(14)]
        for i in range(14)
    ]
    inv_eta = linalg.inverse(eta1)
    assert inv.casimir_residual(entry.algebra.c, inv_eta) is None
    # each displayed cocycle direction solves the cocycle equations
    for p in entry.f_params:
        direction = [
            [entry.fmat[i][j].coefficient_of_power(p, 1).constant_value() for j in range(14)]
            for i in range(14)
        ]
        assert inv.cocycle_residual(entry.algebra.c, direction) is None


def test_sl3_matches_matrix_construction():
    entry = catalog.catalog_get("sl3")
    assert entry.dim == 8
    tags = lie.structure_tags(entry.algebra)
    assert tags.semisimple
    # displayed leading block is proportional to the computed Killing form
    k = lie.killing_form(entry.algebra)
    eta1 = [
        [entry.eta[i][j].subs({"alpha": entry.ring.one}).constant_value() for j in range(8)]
        for i in range(8)
    ]
    ratio = None
    for i in range(8):
        for j in range(8):
            if eta1[i][j]:
                r = k[i][j] / eta1[i][j]
                assert ratio is None or r == ratio
                ratio = r
            else:
                assert not k[i][j]
    assert ratio is not None


def test_semisimple_entries_have_vanishing_h2():
    for name in ("A_{3,2}", "A_{3,3}", "A_{6,4}", "A_{6,5}", "A_{6,6}", "A_{6,17}", "sl3"):
        entry = catalog.catalog_get(name)
        z = inv.two_cocycle_space(entry.algebra)
        assert z.h2_dim == 0, name
        assert len(z.coboundary_basis) == z.dim


def test_duality_on_all_entries():
    for name in catalog.catalog_list():
        if name == "g2":
            continue  # covered separately, the 14-dim solve is slow
        entry = catalog.catalog_get(name)
        rep = inv.casimir_metric_duality(entry.algebra)
        assert rep.passed, name
        assert rep.casimir_witness is not None, name
        assert [c.name for c in rep.conditions] == [
            "casimir-metric-dims-equal", "inverse-casimir-is-metric", "inverse-metric-is-casimir",
        ], name


def test_table_casimir_residual_matches_the_scalar_checker():
    """The eta-inverse check reads the support table; on every entry's
    witness inverse, and on that inverse with one entry moved by 1 + sqrt(2)
    or by 1, it finds the first violation `casimir_residual` finds."""
    moved = 0
    for k, name in enumerate(catalog.catalog_list()):
        entry = catalog.catalog_get(name)
        g = entry.algebra
        a = linalg.inverse(inv.nondegenerate_witness(catalog._eta_directions(entry))[1])
        assert catalog._casimir_residual(g, a) == inv.casimir_residual(g.c, a) is None, name
        i, j = k % g.dim, (3 * k + 1) % g.dim
        perturbed = [row[:] for row in a]
        perturbed[i][j] = perturbed[i][j] + (Scalar(1, 1, 2) if k % 2 else Scalar(1))
        got = catalog._casimir_residual(g, perturbed)
        assert got == inv.casimir_residual(g.c, perturbed), name
        moved += got is not None
    assert moved > 20, moved


# SHA-256 of each entry's eta directions, witness point and witness matrix
# (`_witness_text`).  `catalog verify` prints none of them, so these pins are
# what keeps the direction order, and with it the canonical witness, fixed.
WITNESS_DIGESTS = {
    "A_{2,1}": "067a014d9eeb164d01a5fa3802961ab358046db95ab41159e46cf3c799965044",
    "A_{3,1}": "e68ea568c0fd2b913b2596b06ea9becbda183f97bcbc11a59c8d855fe769d85f",
    "A_{3,2}": "88349cd912cd763bbe4681e5da01e2f745e5f25cd083601146f6a7befa80fdc3",
    "A_{3,3}": "fcfa7236eb4cf921250df1b19d0c37e31d0972aa3ba1755320fb89f1a6a2d974",
    "A_{4,1}": "115e28b7b15d0bd8832f0ead0866f6a018f45338ec649a1f0695735081c4363f",
    "A_{4,2}": "5da2751a9f49a049993e6b277952814133c756b203ced7ecfb2f15a95e6f0eff",
    "A_{4,3}": "8cbcdf15c7d4d8eeea82458cd29e054f9c76148068cefeb7df6bbc1d5ac38255",
    "A_{4,4}": "df793679d29cbd87867c689916968aa69bd4e42f46a77979f6f0ead7b774db9a",
    "A_{4,5}": "7b869cbfea7ec3542ba2ec3366570a3f2cc425089a7681ea50fdc2a85bbb3d91",
    "A_{5,1}": "0594c9aeed2f814598fc984473b797f61436da022aa4451781bb0a4a5a1264ae",
    "A_{5,2}": "f2383073b26b9d3234884c9b3a522d40671b566a333f84f01caa4b51390e8d91",
    "A_{5,3}": "57dce6aa85c8a924ac294560a734d6bf596a5ee066900de5dffac31e01b377ce",
    "A_{5,4}": "78878aa3e10f277583f99cf2804b9cadb045ccbe5e95a5822f8d3a486f568580",
    "A_{5,5}": "cccd29dc9d16cff2645b3816fdef6c66482dcc8f6294bd98ff78b1eb25c14d7d",
    "A_{5,6}": "93d9cbc7b0fbeba8b274bb2c434c3e4f1af36864d38c2f493005e4336550037a",
    "A_{6,1}": "323e4c33291fbb3ad2721ed85aa599218d41c4358b01ab9f8a4f3c3a526d395b",
    "A_{6,2}": "61d775b95b062adb593f124b3930c4f28cd5615ad129483724af58d8bd342cbe",
    "A_{6,3}": "bc22c9074d0020f8249092506d9dc01076cb042feb5cc8f2051ea3b0ba101a20",
    "A_{6,4}": "70596a070dfabaa281a18a5b33022b040d8f0b92e545efe8a74da4668de78214",
    "A_{6,5}": "196564487f9fac3dc0c39e46a49684e84d72de8d97d610345e202f86efe3d882",
    "A_{6,6}": "f986f18e4ac263e25904db72aa2ca7f77195e76bee7a4637988aea5e4b8f5aae",
    "A_{6,7}": "c8440cf057bdc25fe08615be97b4c18bf8284a0a7e60486be2af354d74824681",
    "A_{6,8}": "7d3dd8b3b34b7b93764cb77c8caae213a8522308d0da627e7ddb0118502d329d",
    "A_{6,9}": "db6b9f4527ce93f66d62bb9a00c9692774dc8d556989e17755001c1cd94eeb38",
    "A_{6,10}": "db6b9f4527ce93f66d62bb9a00c9692774dc8d556989e17755001c1cd94eeb38",
    "A_{6,11}": "efe726da2b7b7507adfdc03699e876d706dce3d946a8c2b13863ff64591a244c",
    "A_{6,12}": "7d079e30c5ee5b4dc53a666de436e8529fc8f0ebb3b750c488cdd28f741c91ad",
    "A_{6,13}": "90ed6f11539b7afcd7fc31bddc9fbaa2342bafb5278e0b959c6eb6e55a403dca",
    "A_{6,14}": "f2020cb4580762626417b037cf2ae9998bd87457881c4d1f1a54f34c0bcea53c",
    "A_{6,15}": "6f6f5b1c877b34fd39558bba902c81dbde3577bc0763ed286cf3b44ad6f4ab18",
    "A_{6,16}": "75343940f8b10d023afffb145dd8d1ec990830194e3f6438bb6a596a19e24f3d",
    "A_{6,17}": "a18304ed7478e0ccf630bfef5c5150bd1b3de62880c09963b9a5a87573335d93",
    "A_{6,18}": "c17db59941156a5c50abe7fa7f18df8bfce90d7c805cd0cb8ce523df3a58c54a",
    "sl3": "212b6133343fdb05001b5d936071e96302a9d76658ab904ecfc7ec853112ead6",
    "g2": "926c04c7a23aef488181f0f3d9975452d89ac6158da14bbce2172d677240b072",
}


def _witness_text(entry) -> str:
    def strings(x):
        return [strings(y) for y in x] if isinstance(x, (list, tuple)) else str(x)

    directions = catalog._eta_directions(entry)
    point, witness = inv.nondegenerate_witness(directions)
    return json.dumps({"directions": strings(directions), "point": list(point),
                       "witness": strings(witness)}, sort_keys=True)


def test_eta_directions_and_witnesses_are_pinned():
    got = {name: hashlib.sha256(_witness_text(catalog.catalog_get(name)).encode()).hexdigest()
           for name in catalog.catalog_list()}
    assert got == WITNESS_DIGESTS


def _seeded_invertible(n: int, d: int, seed: int):
    """An invertible n x n matrix of entries a + b*sqrt(d), small integers drawn
    from `random.Random(seed)`, redrawn until the determinant is nonzero."""
    rng = random.Random(seed)
    while True:
        a = [[Scalar(rng.randint(-2, 2) + 3 * (i == j), rng.randint(-1, 1) if d else 0, d)
              for j in range(n)] for i in range(n)]
        if linalg.det(a):
            return a


def _moved_text(d: int) -> str:
    """Every catalog algebra moved by one seeded matrix of its dimension over Q(sqrt(d))."""
    moved = {name: darbouxops.change_basis(entry.algebra,
                                           _seeded_invertible(entry.dim, d, 1000 + entry.dim))
             for name, entry in ((name, catalog.catalog_get(name))
                                 for name in catalog.catalog_list())}
    return json.dumps({name: [[[str(x) for x in row] for row in plane] for plane in g.c]
                       for name, g in moved.items()}, sort_keys=True)


CHANGE_BASIS_DIGESTS = {
    0: "5ee6a0efc9ef88d777f40d365cb106d714123580fd8f21952b5358aef1de1067",
    2: "cff8738b6541b0c2a4d718471086aa6b441ef3f6edd347cd5b11434516ab27a0",
}


def test_change_basis_of_the_catalog_algebras_is_pinned():
    got = {d: hashlib.sha256(_moved_text(d).encode()).hexdigest() for d in (0, 2)}
    assert got == CHANGE_BASIS_DIGESTS
