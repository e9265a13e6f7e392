"""I_S, the T_S and L_S trimmings and the lift S~, each built once and
kept on its presentation object, shared by every invariant of that object
and by nothing else."""

import pytest

from monofact import apery, cli, closed_forms, ideal, intlinalg, monoid, ratlp, same_length
from monofact.apery import apery_set
from monofact.catenary import ceq
from monofact.errors import EmptyLSet, InfiniteWithoutLimit, NotReduced
from monofact.ideal import lattice_ideal, minimal_generators, saturated_generators
from monofact.monoid import (
    numerical,
    presentation,
    presentation_from_data,
    uncovered_rays,
    validate_reduced,
)
from monofact.orders import GREVLEX, LEX, wgrevlex
from monofact.same_length import (
    f2l,
    integers_outside_l_set,
    l_set,
    l_set_complement,
    l_set_complement_is_finite,
    t_set,
)


def _counting_saturations(monkeypatch):
    # the passes run once per presentation, in ideal._saturated, whatever
    # orders its bases are later asked for
    calls = []
    real = ideal._saturated

    def counting(gens, passes, weights):
        calls.append(gens)
        return real(gens, passes, weights)

    monkeypatch.setattr(ideal, "_saturated", counting)
    return calls


def test_invariants_of_one_presentation_saturate_the_lifted_ideal_once(monkeypatch):
    p = numerical([4, 7, 9])
    calls = _counting_saturations(monkeypatch)
    assert [g.free[0] for g in l_set(p).generators] == [35]
    assert ceq(p) == 5
    assert l_set_complement(p).finite
    assert l_set(p).is_principal
    # kernel binomials of S~ preserve length; I_S has (7, -4, 0), which does not
    lifted = [g for g in calls if all(sum(plus) == sum(minus) for plus, minus in g)]
    assert len(lifted) == 1
    assert len(calls) == 2  # the other one is I_S, for the Apery set


def test_f2l_reads_only_the_lifted_ideal(monkeypatch):
    # F_2l comes from the L_S generators and the residue table of the gaps:
    # no Apery staircase, no I_S
    def refuse(*args, **kwargs):
        raise AssertionError("apery_set called")

    p = numerical([4, 7, 9])
    monkeypatch.setattr(same_length, "apery_set", refuse)
    calls = _counting_saturations(monkeypatch)
    assert f2l(p) == 45
    assert len(calls) == 1
    assert all(sum(plus) == sum(minus) for plus, minus in calls[0])


def test_t_and_l_sets_need_no_minimal_generators(monkeypatch):
    # T_S and L_S are read off the saturated generators; minimal binomial
    # generators only serve the --minimal payloads and the c_eq witness
    def refuse(*args, **kwargs):
        raise AssertionError("minimal_generators called")

    monkeypatch.setattr(ideal, "minimal_generators", refuse)
    assert not hasattr(same_length, "minimal_generators")
    p = numerical([4, 7, 9])
    assert [g.free[0] for g in t_set(p).generators] == [16, 18, 21]
    assert [g.free[0] for g in l_set(p).generators] == [35]
    assert l_set_complement(p).finite
    assert l_set(p).is_principal
    assert f2l(p) == 45


def test_invariants_of_one_presentation_validate_the_lift_once(monkeypatch):
    p = validate_reduced(numerical([4, 7, 9]))
    calls = []
    real = monoid.positive_functional

    def counting(vectors):
        calls.append(vectors)
        return real(vectors)

    monkeypatch.setattr(monoid, "positive_functional", counting)
    l_set(p)
    l_set_complement(p)
    ceq(p)
    assert l_set(p).is_principal
    # S~ is built with its known pointing (0, ..., 0, 1): no LP at all
    assert calls == []


def test_entries_are_keyed_by_order():
    p = numerical([4, 7, 9])
    assert lattice_ideal(p, LEX).order == LEX
    assert lattice_ideal(p).order == GREVLEX
    assert lattice_ideal(p, order=GREVLEX) is lattice_ideal(p)
    # the --minimal payloads keep the order of the basis they trim
    assert minimal_generators(lattice_ideal(p.lift, LEX), p.lift).order == LEX
    assert minimal_generators(lattice_ideal(p.lift), p.lift).order == GREVLEX


def test_validated_and_unvalidated_presentations_share_an_entry():
    # one object read before and after it is proved reduced; an equal but
    # distinct object builds its own entries
    p = numerical([4, 7, 9])
    basis = lattice_ideal(p)
    assert validate_reduced(p) is p
    assert lattice_ideal(p) is basis


def test_one_presentation_proves_itself_reduced_once(monkeypatch):
    # reducedness is cached on the object itself: five invariants of one
    # presentation, never validated by the caller, solve one pointing LP
    p = numerical([3, 5, 7])
    calls = []
    real = monoid.positive_functional

    def counting(vectors):
        calls.append(vectors)
        return real(vectors)

    monkeypatch.setattr(monoid, "positive_functional", counting)
    t_set(p)
    l_set(p)
    ceq(p)
    f2l(p)
    l_set_complement(p)
    assert calls == [[(3,), (5,), (7,)]]


def test_not_reduced_raises_on_every_call():
    p = presentation(1, (), [(2,), (-3,)])
    for _ in range(2):
        with pytest.raises(NotReduced):
            lattice_ideal(p)
        with pytest.raises(NotReduced):
            ceq(p)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_covered_passes_and_certified_absorptions_are_skipped(monkeypatch):
    # rank 2 with torsion 4: every lattice ideal needs one Buchberger pass
    # per uncovered variable plus the final one, and no degree is trimmed
    # by a member search: one truncated run over I_S decides every one
    p = validate_reduced(
        presentation_from_data(
            {"rank": 2, "torsion": [4], "generators": [[-6, -6, 3], [-4, -5, 0], [0, -1, 1], [2, -4, 1]]}
        )
    )
    engine = _counting(monkeypatch, ideal, "_buchberger")
    searches = _counting(monkeypatch, monoid, "_search")
    assert [g.to_data() for g in t_set(p).generators] == [
        [0, -18, 2],
        [-16, -22, 2],
        [-12, -28, 2],
        [-30, -44, 1],
        [-48, -60, 0],
    ]
    assert [g.to_data() for g in l_set(p).generators] == [[-112, -140, 0]]
    assert len(engine) <= 5  # 10 with every variable swept
    assert searches == []



def test_t_s_and_a_finite_apery_set_build_no_ordered_basis_of_i_s(monkeypatch):
    # T_S is trimmed off the saturated generators, and the J of a finite
    # Apery set starts from them: neither waits for a reduced basis of I_S
    p = numerical([4, 7, 9])
    built = _counting(monkeypatch, ideal, "_lattice_ideal")
    saturations = _counting_saturations(monkeypatch)
    assert [g.free[0] for g in t_set(p).generators] == [16, 18, 21]
    assert [e.free[0] for e in apery_set(p, [4]).elements] == [0, 7, 9, 14]
    assert built == [] and len(saturations) == 1

def test_one_integer_kernel_per_presentation(monkeypatch):
    # the lift S~ reads its kernel off that of S: the full stacked matrix
    # (n + k columns) is echelonized once, for S, whichever module calls it,
    # validate_reduced included
    calls = []
    real = intlinalg.kernel_basis

    def counting(rows):
        calls.append([list(r) for r in rows])
        return real(rows)

    for module in (ideal, monoid, same_length):
        if hasattr(module, "kernel_basis"):
            monkeypatch.setattr(module, "kernel_basis", counting)
    p = validate_reduced(
        presentation_from_data(
            {"rank": 2, "torsion": [4], "generators": [[-6, -6, 3], [-4, -5, 0], [0, -1, 1], [2, -4, 1]]}
        )
    )
    t_set(p)
    l_set(p)
    ceq(p)
    l_set_complement(p, limit=2)
    stacked = [r for r in calls if len(r[0]) == p.n + len(p.torsion)]
    assert stacked == [
        [[-6, -4, 0, 2, 0], [-6, -5, -1, -4, 0], [3, 0, 1, 1, 4]]
    ]  # rank rows of S, then its torsion row with the modulus


def test_saturation_runs_no_pass_it_can_prove_idle(monkeypatch):
    # <3, 5>: the lattice has rank 1, and the one binomial x1^5 - x2^3 is
    # saturated as it is; only the final Buchberger run is left.  In the
    # second, no relation involves x4, and x1 x2 - x3 covers x1 and x2, so
    # x3 is the one variable with a pass
    engine = _counting(monkeypatch, ideal, "_buchberger")
    assert [(b.plus, b.minus) for b in lattice_ideal(numerical([3, 5])).elements] == [
        ((5, 0), (0, 3))
    ]
    assert len(engine) == 1
    engine.clear()
    assert len(lattice_ideal(presentation(2, (), [(1, 0), (2, 0), (3, 0), (0, 1)])).elements) == 3
    assert len(engine) == 2


def test_the_cone_of_a_presentation_is_computed_once(monkeypatch):
    # the Apery cone test and cross-check, the ray criterion and the cone
    # (the rays no element covers) read one extremality memo: at most one LP per distinct generator
    # direction of a presentation object, and none for a covered direction
    lps = _counting(monkeypatch, monoid, "_is_extremal")
    p = validate_reduced(numerical([4, 7, 9]))
    assert apery_set(p, [4]).count == 4
    assert apery_set(p, [16]).finite
    assert l_set_complement_is_finite(p)
    assert lps == []  # B covers (1,), and three generators lie on it
    assert uncovered_rays(p, ()) == ((1,),)
    assert len(lps) == 1
    lps.clear()
    q = validate_reduced(presentation(2, (), [(0, 2), (1, 2), (1, 1), (3, 2), (4, 2)]))
    b = [[3, 6], [4, 4], [9, 6]]  # covers (1, 2), (1, 1) and (3, 2) only
    assert not apery_set(q, b, limit=2).finite
    assert apery_set(q, b + [[0, 2], [4, 2]]).finite
    assert not l_set_complement_is_finite(q)
    assert uncovered_rays(q, ()) == ((0, 1), (2, 1))
    asked = [direction for _, direction in lps]
    assert len(asked) == len(set(asked)) == len(q.directions)


@pytest.mark.parametrize(
    "data, pointing",
    [
        ({"numerical": [3, 5]}, (1,)),  # rank(ker S) = 1
        ({"rank": 2, "torsion": [3], "generators": [[-6, 1, 1]]}, (0, 1)),  # ker S = 0
        ({"rank": 2, "torsion": [5], "generators": [[1, 0, 1], [0, 1, 2], [1, 1, 0]]}, (1, 1)),
    ],
)
def test_a_kernel_of_rank_at_most_one_proves_the_session_reduced_with_no_lp(monkeypatch, data, pointing):
    # ker S, with one row of both signs or none, proves S reduced; no
    # invariant of these sessions reads the pointing vertex, so the LP is
    # solved only when pointing itself is read, and then once
    lps = _counting(monkeypatch, ratlp, "solve_nonneg")
    p = presentation_from_data(data)
    t_set(p)
    l_set(p)
    ceq(p)
    try:
        l_set_complement(p, limit=2)
    except EmptyLSet:
        pass
    assert apery_set(p, p.generators).finite
    assert lps == []
    assert p.pointing == pointing
    assert len(lps) == 1


def test_an_apery_set_over_every_generator_solves_no_lp(monkeypatch):
    # B covers every generator direction, so no extremality is asked;
    # the pointing LP is solved before the count starts
    p = validate_reduced(
        presentation_from_data(
            {"rank": 2, "torsion": [5], "generators": [[-5, -3, 3], [2, -3, 3], [5, -5, 3], [6, -4, 0]]}
        )
    )
    lps = _counting(monkeypatch, ratlp, "solve_nonneg")
    assert apery_set(p, p.generators).finite
    assert lps == []


@pytest.fixture
def no_groebner(monkeypatch):
    # an infinite Ap_S(B) is read off the cached I_S staircase, cut by
    # membership: no basis of I_S + <x^beta> is built
    def refuse(*args, **kwargs):
        raise AssertionError("Buchberger called")

    monkeypatch.setattr(apery, "_buchberger", refuse)


def test_a_truncated_complement_builds_no_groebner_basis(no_groebner):
    # with the witness x3^300 the basis of I_S + <x^beta> has 241 elements,
    # up to degree 250; the truncation is the 15 standard monomials of
    # total degree <= 2
    p = validate_reduced(
        presentation_from_data(
            {"rank": 2, "torsion": [5], "generators": [[-5, -4, 2], [-5, 6, 1], [-4, -3, 4], [1, 1, 4]]}
        )
    )
    res = l_set_complement(p, limit=2)
    assert not res.finite and res.limit == 2
    assert [e.to_data() for e in res.elements] == [
        [-10, -8, 4], [-10, 2, 3], [-10, 12, 2], [-9, -7, 1], [-9, 3, 0],
        [-8, -6, 3], [-5, -4, 2], [-5, 6, 1], [-4, -3, 1], [-4, -3, 4],
        [-4, 7, 0], [-3, -2, 3], [0, 0, 0], [1, 1, 4], [2, 2, 3],
    ]  # fmt: skip


RANK2 = presentation(2, (), [(0, 2), (1, 2), (1, 1), (3, 2), (4, 2)])
B3 = [[3, 6], [4, 4], [9, 6]]


def test_an_infinite_apery_set_without_limit_builds_no_groebner_basis(no_groebner):
    with pytest.raises(InfiniteWithoutLimit):
        apery_set(RANK2, B3, order=wgrevlex((2, 2, 1, 2, 2)))


def test_an_apery_set_of_every_generator_runs_no_buchberger(no_groebner):
    # x_i is in J for every i: J = <x_1, ..., x_n>, I_S drops out, and the
    # set is {0}, the staircase of the x_i
    for p in (
        presentation_from_data(
            {"rank": 1, "torsion": [3], "generators": [[-4, 2], [-3, 2], [-2, 1], [-1, 1]]}
        ),
        numerical([4, 7, 9]),
        RANK2,
    ):
        res = apery_set(p, p.generators)
        assert res.finite and res.elements == (p.zero(),)


def test_an_apery_set_of_every_generator_reads_no_lattice_ideal(monkeypatch):
    # J = <x_1, ..., x_n> whatever I_S is, so a fresh presentation never
    # has its I_S built, and neither the cone test nor the walk runs
    def refuse(*args, **kwargs):
        raise AssertionError("cone test or staircase walk")

    monkeypatch.setattr(apery, "uncovered_rays", refuse)
    monkeypatch.setattr(apery, "_standard_monomials", refuse)
    built = _counting(monkeypatch, ideal, "_lattice_ideal")
    for data in (
        {"rank": 2, "torsion": [5], "generators": [[-5, -3, 3], [2, -3, 3], [5, -5, 3], [6, -4, 0]]},
        {"numerical": [4, 7, 9]},
    ):
        p = presentation_from_data(data)
        res = apery_set(p, p.generators)
        assert res.finite and res.elements == (p.zero(),)
    assert built == []


def test_a_generator_in_b_leaves_buchberger_its_variable(monkeypatch):
    # Ap_S(4) in <4, 7, 9>: x1 is in J, and J is one Buchberger run over
    # all three variables, the monomial x1 first, then the saturated
    # generators of I_S
    p = numerical([4, 7, 9])
    calls = []
    real = apery._buchberger

    def recording(pairs, order, n):
        calls.append(pairs)
        return real(pairs, order, n)

    monkeypatch.setattr(apery, "_buchberger", recording)
    assert [e.free[0] for e in apery_set(p, [4]).elements] == [0, 7, 9, 14]
    assert calls == [[((1, 0, 0), None), *saturated_generators(p)]]


def test_finite_sets_under_lex_reach_only_grevlex_bases(monkeypatch):
    # Ap_S(35) in <4, 7, 9> is S \ L_S, and Ap_S(4) has the generator 4 in
    # B: both are the same sets under every order, so J is built under GREVLEX
    # however they are asked for.  J starts from the saturated generators
    # of I_S, and L_S is trimmed off those of S~, so neither S nor S~ gets
    # an ordered basis
    p = numerical([4, 7, 9])
    built = _counting(monkeypatch, ideal, "_lattice_ideal")
    orders = []
    real = apery._buchberger

    def recording(pairs, order, n):
        orders.append(order)
        return real(pairs, order, n)

    monkeypatch.setattr(apery, "_buchberger", recording)
    assert [e.free[0] for e in apery_set(p, [4], order=LEX).elements] == [0, 7, 9, 14]
    comp = l_set_complement(p, order=LEX)
    assert comp.finite and comp == l_set_complement(p)
    assert built == []
    assert set(orders) == {GREVLEX}


def test_every_reader_of_l_s_shares_one_trimming(monkeypatch):
    p = numerical([4, 7, 9])
    trims = _counting(monkeypatch, same_length, "_minimalize_degrees")
    assert [g.free[0] for g in l_set(p).generators] == [35]
    assert l_set(p).is_principal
    for order in (GREVLEX, LEX):
        assert l_set_complement(p, order=order).finite
    assert integers_outside_l_set(p)[-3:] == (40, 41, 45)
    assert f2l(p) == 45
    assert len(trims) == 1


def test_f2l_and_the_integers_outside_l_s_share_one_apery_table(monkeypatch):
    # CLI f2l asks for both on one presentation
    p = numerical([4, 7, 9])
    tables = _counting(monkeypatch, same_length, "_apery_residues")
    assert f2l(p) == 45
    assert integers_outside_l_set(p)[-3:] == (40, 41, 45)
    assert f2l(p) == 45
    assert len(tables) == 1


def test_interleaved_presentations_keep_their_lifted_ideals(monkeypatch):
    # each object keeps its own entries, so a session that goes back to a
    # presentation after eight others builds nothing again
    ps = [numerical([a, a + 1, a + 3]) for a in range(4, 13)]
    calls = _counting_saturations(monkeypatch)
    first = [l_set(p) for p in ps]
    assert [l_set(p) for p in ps] == first
    assert len(calls) == len(ps) == 9


def test_a_verified_closed_form_saturates_once(monkeypatch, capsys):
    # the family hands out one presentation, so the verified L_S and the
    # engine c_eq read one lifted ideal, and the L_S trim of its two
    # degrees reads one I_S; a second verified run on the same family
    # saturates nothing
    calls = _counting_saturations(monkeypatch)
    params = '{"m1":5,"e":3,"n":3,"b":7}'
    assert cli.main(["closed-form", "--family", "almost", "--params", params, "--verified"]) == 0
    assert capsys.readouterr().out == (
        '{"ceq":3,"ceq_forms":{"engine":3,"engine_matches_printed":true,'
        '"engine_matches_proof":true,"forms_agree":true,"printed_form":3,"proof_form":3},'
        '"family":"almost","generators":[5,7,8,11],"lset":{"generators":[16,21],"principal":false}}\n'
    )
    # kernel binomials of S~ preserve length, those of I_S here do not
    lifted = [all(sum(plus) == sum(minus) for plus, minus in g) for g in calls]
    assert sorted(lifted) == [False, True]
    fam = closed_forms.AlmostArithmeticFamily(5, 3, 3, 7)
    for _ in range(2):
        calls.clear()
        closed_forms.lset_almost_arithmetic(fam, verified=True)
        assert closed_forms.ceq_almost_arithmetic_report(fam)["engine"] == 3
    assert calls == []


@pytest.mark.parametrize(
    "data",
    [
        {"rank": 2, "generators": [[1, 0], [0, 1]]},
        {"numerical": [3, 5]},
        {"rank": 1, "torsion": [2], "generators": [[2, 0], [3, 1]]},
    ],
    ids=["independent-free-parts", "numerical", "torsion"],
)
def test_a_zero_lifted_kernel_builds_no_lift(data):
    # ker S~ = 0 is read off the kernel of S (no row, or one of nonzero
    # sum), so L_S, c_eq and the complement are answered with no S~
    p = presentation_from_data(data)
    assert l_set(p) is None and ceq(p) == 0
    with pytest.raises(EmptyLSet):
        l_set_complement(p, limit=2)
    assert "lift" not in p.__dict__
    assert minimal_generators(lattice_ideal(p.lift, LEX), p.lift).elements == ()


def test_independent_free_parts_echelon_nothing(monkeypatch):
    # a free rank of n leaves no integer relation, torsion or not: the
    # kernel is () with no kernel_basis call
    def refuse(rows):
        raise AssertionError("kernel_basis called")

    monkeypatch.setattr(monoid, "kernel_basis", refuse)
    for data in (
        {"rank": 2, "generators": [[1, 0], [0, 1]]},
        {"rank": 2, "torsion": [3], "generators": [[1, 2, 1], [0, 1, 2]]},
    ):
        p = presentation_from_data(data)
        assert p.kernel == ()
        assert t_set(p) is None and l_set(p) is None and ceq(p) == 0


def test_a_corank_one_kernel_is_read_off_minors_with_no_echelon(monkeypatch):
    # free rows of rank n - 1 leave a kernel of rank 1: the maximal minors
    # and the order of their torsion image give it with no kernel_basis
    # call; corank two still takes the stacked echelon
    calls = []
    real = intlinalg.kernel_basis

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(monoid, "kernel_basis", counting)
    p = presentation_from_data({"rank": 2, "torsion": [6], "generators": [[3, 5, 1], [4, -2, 3], [-1, 7, 2]]})
    assert p.kernel == ((3, -3, -3),) and calls == []
    q = presentation_from_data({"rank": 2, "torsion": [4, 6], "generators": [[1, 2, 1, 5], [2, 4, 3, 1]]})
    assert q.kernel == ((8, -4),) and calls == []
    r = presentation_from_data({"rank": 1, "torsion": [6], "generators": [[2, 1], [3, 0], [5, 4]]})
    assert len(r.kernel) == 2 and len(calls) == 1
