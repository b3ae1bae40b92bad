"""Syzygies and compatibility complexes over the polynomial ring."""

import hashlib
import json
from copy import deepcopy
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cxkit import syzygy
from cxkit.complexes import Complex, de_rham_complex
from cxkit.diffop import OperatorMatrix, spatial_signature
from cxkit.fixtures import planar_flow_complex, symmetric_gradient_complex
from cxkit.poly import (_WIDTH, GaussianRational, Poly, _check_product, _key_divides,
                        _key_lcm, _poly_nonzero, _quotient)
from _helpers import stored
from cxkit.syzygy import (
    BudgetExceeded,
    _by_tag,
    _packed,
    _record,
    _reduce,
    compatibility_operator,
    extend_to_complex,
    groebner_basis,
    interreduce,
    module_equivalent,
    syzygies,
)

SIG3 = spatial_signature(3)


def _grad(sig=SIG3):
    return OperatorMatrix.from_entries(
        sig, [[Poly.variable(sig.vars, "d1")],
              [Poly.variable(sig.vars, "d2")],
              [Poly.variable(sig.vars, "d3")]])


# ---------------------------------------------------------------------------
# Groebner machinery


def test_groebner_basis_membership():
    vars = ("x", "y")
    x = Poly.variable(vars, "x")
    y = Poly.variable(vars, "y")
    gens = [(x * x - y,), (x * y - Poly.one(vars),)]
    gb = _by_tag([_record(*_packed(g, 2), 2) for g in groebner_basis(gens)], 2)
    # x (xy - 1) - y (x^2 - y) = y^2 - x is in the ideal
    member = (y * y - x,)
    assert not _reduce(*_packed(member, 2), gb, 2)[0]
    non_member = (x + Poly.one(vars),)
    assert _reduce(*_packed(non_member, 2), gb, 2)[0]


def test_interreduce_deterministic():
    vars = ("x", "y")
    x = Poly.variable(vars, "x")
    y = Poly.variable(vars, "y")
    gens = [(x,), (x + y,), (y,)]
    r1 = interreduce(gens)
    r2 = interreduce(list(reversed(gens)))
    assert r1 == r2
    assert len(r1) == 2


@pytest.mark.parametrize("budget", [-1, -5])
def test_negative_budget_is_a_value_error(budget):
    """A negative S-pair budget is an argument error, raised before any
    work, also where the module has no S-pair to process."""
    x = Poly.variable(("x",), "x")
    d1 = OperatorMatrix.scalar(spatial_signature(1), Poly.variable(("d1",), "d1"))
    runs = (lambda: groebner_basis([(x,)], budget=budget),
            lambda: groebner_basis([], budget=budget),
            lambda: compatibility_operator(_grad(), budget=budget),
            lambda: compatibility_operator(d1, budget=budget),
            lambda: extend_to_complex(_grad(), budget=budget))
    for run in runs:
        with pytest.raises(ValueError, match=f"^S-pair budget must be non-negative, got {budget}$"):
            run()


def test_zero_budget_covers_modules_without_pairs():
    sig = spatial_signature(1)
    d1 = OperatorMatrix.scalar(sig, Poly.variable(sig.vars, "d1"))
    assert compatibility_operator(d1, budget=0).rows == 0
    assert extend_to_complex(d1, budget=0) == [d1]
    assert len(groebner_basis([(Poly.variable(("x",), "x"),)], budget=0)) == 1
    with pytest.raises(BudgetExceeded, match="S-pair budget of 0 exceeded"):
        compatibility_operator(_grad(), budget=0)


def test_budget_exceeded():
    vars = tuple(f"x{k}" for k in range(4))
    gens = []
    for a in range(4):
        for b in range(4):
            if a != b:
                p = (Poly.variable(vars, vars[a]) ** 3
                     - Poly.variable(vars, vars[b]) ** 2)
                gens.append((p,))
    with pytest.raises(BudgetExceeded):
        groebner_basis(gens, budget=3)


# ---------------------------------------------------------------------------
# Syzygies of classical operators


def test_syzygy_rows_annihilate():
    rows = [(Poly.variable(SIG3.vars, f"d{k}"),) for k in (1, 2, 3)]
    syz = syzygies(rows, SIG3.vars)
    for b in syz:
        total = Poly.zero(SIG3.vars)
        for coeff, (row,) in zip(b, rows):
            total = total + coeff * row
        assert total.is_zero


def test_compatibility_of_gradient_is_curl():
    b = compatibility_operator(_grad())
    assert (b @ _grad()).is_zero
    curl = de_rham_complex(3).op(1)
    assert module_equivalent(b, curl)


def test_extend_gradient_resolution():
    ops = extend_to_complex(_grad())
    assert [ops[0].cols] + [o.rows for o in ops] == [1, 3, 3, 1]
    assert Complex(ops).is_complex()


@pytest.mark.parametrize("steps", [0, -1])
def test_extend_rejects_max_steps_below_one(steps):
    with pytest.raises(ValueError, match=f"max_steps must be at least 1, got {steps}"):
        extend_to_complex(_grad(), max_steps=steps)


def test_extend_step_limit_is_budget_exceeded():
    # grad, curl, div: the third step finds the trivial kernel
    with pytest.raises(BudgetExceeded, match="no resolution within 2 steps"):
        extend_to_complex(_grad(), max_steps=2)
    assert len(extend_to_complex(_grad(), max_steps=3)) == 3


def test_trivial_kernel_gives_empty_operator():
    sig = spatial_signature(1)
    op = OperatorMatrix.scalar(sig, Poly.variable(sig.vars, "d1"))
    b = compatibility_operator(op)
    assert b.rows == 0


def test_symmetric_gradient_compatibility():
    sg = symmetric_gradient_complex()
    b = compatibility_operator(sg.op(0))
    assert (b @ sg.op(0)).is_zero
    assert module_equivalent(b, sg.op(1))


def test_planar_flow_compatibility():
    pf = planar_flow_complex()
    b = compatibility_operator(pf.op(0))
    assert module_equivalent(b, pf.op(1))


def test_module_equivalent_rejects_different_modules():
    curl = de_rham_complex(3).op(1)
    grad_rows = OperatorMatrix.from_entries(
        SIG3, [[Poly.variable(SIG3.vars, "d1"),
                Poly.variable(SIG3.vars, "d2"),
                Poly.variable(SIG3.vars, "d3")]])
    assert not module_equivalent(curl, grad_rows)


def test_module_equivalent_shape_mismatch():
    grad = _grad()
    curl = de_rham_complex(3).op(1)
    assert not module_equivalent(grad, curl)


# ---------------------------------------------------------------------------
# Reference: first-in, first-out Buchberger without pair criteria, on
# elements stored as one Poly per position.  The leading term, the scaling,
# the zero test and the per-component reduction step are the library's
# earlier tuple-of-Poly code, kept here as an independent reference.


def _leading(elem):
    """(position, key, numerator, denominator) of the POT+grlex leading
    term; None if zero.  Lower position dominates (reference)."""
    for pos, p in enumerate(elem):
        if not p.is_zero:
            key = max(p._num)
            return pos, key, p._num[key], p._den
    return None


def _is_zero(elem) -> bool:
    return all(p.is_zero for p in elem)


def _normalize(elem):
    """Scale so the leading coefficient is one (reference)."""
    lead = _leading(elem)
    if lead is None:
        return elem
    _, _, num, den = lead
    c = _quotient((1, 0), 1, num, den)
    return tuple(p if p.is_zero else _scaled(p, *c) for p in elem)


def _scaled(p, cr, ci, cd, shift=0):
    """``((cr + ci*i)/cd) * x^shift * p`` on the numerators, for ints with
    ``cd > 0`` and the key ``shift`` (reference)."""
    if shift and p._num:
        _check_product(max(p._num), shift, _WIDTH * len(p.vars))
    out = {k + shift: (re * cr - im * ci, re * ci + im * cr)
           for k, (re, im) in p._num.items()}
    return _poly_nonzero(p.vars, out, p._den * cd)


def _sub_scaled(p, g, cr, ci, cd, shift=0):
    """``p - ((cr + ci*i)/cd) * x^shift * g`` in one pass over the numerators
    of both, over ``lcm(den, g.den * cd)``: one component of a reduction step
    (reference)."""
    p._check_vars(g)
    if not g._num or not (cr or ci):
        return p
    if shift:
        _check_product(max(g._num), shift, _WIDTH * len(p.vars))
    gd = g._den * cd
    den = lcm(p._den, gd)
    fa, fg = den // p._den, den // gd
    cr, ci = -cr * fg, -ci * fg  # negated, so the loop adds
    if fa == 1:
        out = dict(p._num)
    else:
        out = {k: (re * fa, im * fa) for k, (re, im) in p._num.items()}
    get = out.get
    for k, (re, im) in g._num.items():
        k += shift
        pr, pi = re * cr - im * ci, re * ci + im * cr
        c = get(k)
        if c is None:
            out[k] = (pr, pi)
        else:
            pr += c[0]
            pi += c[1]
            if pr or pi:
                out[k] = (pr, pi)
            else:
                del out[k]  # cancelled: out keeps no zero numerator
    return _poly_nonzero(p.vars, out, den)


def _fifo_reduce(elem, basis, leads):
    """Leading-term reduction, a step on every component (reference)."""
    result = elem
    while True:
        lead = _leading(result)
        if lead is None:
            return result
        pos, exp, num, den = lead
        for g, (gpos, gexp, gnum, gden) in zip(basis, leads):
            if gpos == pos and _key_divides(gexp, exp):
                c = _quotient(num, den, gnum, gden)
                shift = exp - gexp
                result = tuple(_sub_scaled(p, q, *c, shift) for p, q in zip(result, g))
                break
        else:
            return result


def _fifo_groebner_basis(gens, *, budget=syzygy.DEFAULT_PAIR_BUDGET):
    """Buchberger with POT+grlex; S-pairs only between elements sharing the
    leading position, taken first in, first out, every one processed
    (reference)."""
    basis = [_normalize(g) for g in gens if not _is_zero(g)]
    leads = [_leading(g) for g in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    processed = 0
    cursor = 0
    while cursor < len(pairs):
        i, j = pairs[cursor]
        cursor += 1
        (pi, ei, ni, di), (pj, ej, nj, dj) = leads[i], leads[j]
        if pi != pj:
            continue
        processed += 1
        if processed > budget:
            raise BudgetExceeded(f"S-pair budget of {budget} exceeded")
        lcm_ = _key_lcm(ei, ej, len(basis[i][0].vars))
        ci, cj = _quotient((1, 0), 1, ni, di), _quotient((1, 0), 1, nj, dj)
        si, sj = lcm_ - ei, lcm_ - ej
        s = tuple(_sub_scaled(_scaled(p, *ci, si), q, *cj, sj)
                  for p, q in zip(basis[i], basis[j]))
        s = _fifo_reduce(s, basis, leads)
        if not _is_zero(s):
            s = _normalize(s)
            k = len(basis)
            basis.append(s)
            leads.append(_leading(s))
            pairs.extend((idx, k) for idx in range(k))
    return basis


def _fifo_packed(vecs, n, budget):
    """The reference Buchberger in place of the library's packed one: the
    vectors unpacked to one Poly per position (over as many positions as
    their highest tag names, which keeps the order of positions), the
    reference run, its basis packed back into records and cut to the
    minimal leads as ``_groebner``'s are (of two equal ones the earlier
    stays)."""
    vecs = list(vecs)
    shift = _WIDTH * (n + 1)
    npos = max((k >> shift for num, _ in vecs for k in num), default=0)
    vars = tuple(f"x{i}" for i in range(n))
    gb = _fifo_groebner_basis([syzygy._unpacked(v, vars, npos) for v in vecs], budget=budget)
    records = [_record(*_packed(g, n), n) for g in gb]
    return [b for i, b in enumerate(records) if not any(
        j != i and o[0] >> shift == b[0] >> shift and _key_divides(o[0], b[0])
        and (o[0] != b[0] or j < i) for j, o in enumerate(records))]


def _with_fifo(run):
    """``run()`` with the syzygies computed by the reference Buchberger; the
    library's full reduction (``interreduce``) still follows it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(syzygy, "_groebner", _fifo_packed)
        return run()


def _counting_pairs(run):
    """``run()`` and the S-pairs processed by each Buchberger run in it (the
    packed ``_groebner``), in call order.  The library reduces each processed
    pair once with a leading-term ``_reduce``, and on the way to a
    compatibility operator calls ``_reduce`` elsewhere only for the full
    reductions of ``interreduce``; ``test_budget_exceeded_at_pinned_pair_count``
    checks the counts against the budget."""
    counts = []
    real_gb, real_reduce = syzygy._groebner, syzygy._reduce

    def gb(*args, **kwargs):
        counts.append(0)
        return real_gb(*args, **kwargs)

    def reduce(*args, full=False):
        counts[-1] += not full
        return real_reduce(*args, full=full)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(syzygy, "_groebner", gb)
        mp.setattr(syzygy, "_reduce", reduce)
        return run(), counts


def _assert_reduced(op: OperatorMatrix) -> None:
    """The rows of ``op`` are a reduced basis under POT+grlex: each leading
    coefficient is one, and no term of any row is divisible by another
    row's leading term (nor, below its own leading term, by its own)."""
    rows = [tuple(op[i, j] for j in range(op.cols)) for i in range(op.rows)]
    leads = [_leading(r) for r in rows]
    for r, (pos, exp, _, _) in zip(rows, leads):
        assert r[pos].leading_term()[1] == GaussianRational.one()
        for k, p in enumerate(r):
            for e in p._num:
                if (k, e) == (pos, exp):
                    continue
                assert not any(lpos == k and _key_divides(lexp, e)
                               for lpos, lexp, _, _ in leads), (k, e)


# ---------------------------------------------------------------------------
# Pinned Buchberger output: a compatibility operator is the reduced Groebner
# basis of the syzygy module, unique for the module and the order, so these
# bytes change only with the module's coordinates (the row order and scale
# of the input) or with the order.  The pair counts pin how much work the
# pair criteria and the selection leave.  Regenerate the data file with
# ``PYTHONPATH=src python tests/test_syzygy.py`` only for a deliberate change.

PINNED = Path(__file__).parent / "data" / "syzygy_pinned.json"
# Each generator of the four-generator module once in each position.
LATIN_ORDERS = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
RESCALE = ("2", "-1/2", "3/4", "-3")
MODULES = ("four-generator", "symgrad3", "symgrad4", "grad5")


def _module(name: str):
    """The signature and operator rows of a pinned module."""
    n = {"four-generator": 3, "symgrad3": 3, "symgrad4": 4, "grad5": 5}[name]
    sig = spatial_signature(n)
    d = [Poly.variable(sig.vars, v) for v in sig.spatial]
    if name == "four-generator":
        d1, d2, d3 = d
        return sig, [[d1 * d1 + d2 * d3, d1], [d1 * d2, d2 + d3],
                     [d3 * d3 - d1 * d2, d1 + d2], [d2 * d2, d3]]
    if name == "grad5":
        return sig, [[x] for x in d]
    z = Poly.zero(sig.vars)
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [z] * n
            row[i], row[j] = d[j], d[i]
            rows.append(row)
    return sig, rows


def _operator(name: str, order, scales=None) -> OperatorMatrix:
    """Rows ``order`` of a pinned module, row ``k`` scaled by ``scales[k]``."""
    sig, rows = _module(name)
    return OperatorMatrix.from_entries(
        sig, [[p.scale(GaussianRational.of(scales[k])) if scales else p for p in rows[k]]
              for k in order])


def _pinned_cases():
    """(key, operator) for every pinned input."""
    for scales in (None, RESCALE):
        for order in LATIN_ORDERS:
            key = "four-generator " + "".join(map(str, order))
            yield (key + (" rescaled" if scales else ""),
                   _operator("four-generator", order, scales))
    for name in MODULES[1:]:
        sig, rows = _module(name)
        yield name, _operator(name, range(len(rows)))


def _resolution(op: OperatorMatrix) -> dict:
    ops = extend_to_complex(op)
    # the compatibility operator of ``op``, then each one's own
    return {"operators": [str(o.body) for o in ops[1:]],
            "ranks": [op.cols] + [o.rows for o in ops]}


def _pinned_outputs() -> dict:
    out = {}
    for key, op in _pinned_cases():
        out[key], pairs = _counting_pairs(lambda: _resolution(op))
        out[key]["pairs"] = pairs  # S-pairs processed at each step
    return out


def _pinned_json() -> str:
    return json.dumps(_pinned_outputs(), indent=1, sort_keys=True) + "\n"


def test_buchberger_output_is_pinned():
    assert _pinned_json().encode() == PINNED.read_bytes()


def test_fifo_reference_gives_the_pinned_operators():
    """First-in, first-out Buchberger without criteria, plus the full
    reduction, gives byte for byte the pinned operators and ranks."""
    pinned = json.loads(PINNED.read_text())
    for key, op in _pinned_cases():
        want = {k: pinned[key][k] for k in ("operators", "ranks")}
        assert _with_fifo(lambda: _resolution(op)) == want, key


def test_syzygy_records_reach_interreduce_minimal(monkeypatch):
    """``syzygies`` hands Buchberger's records to ``_interreduce`` without the
    filter of non-minimal leads that ``interreduce`` runs: among them no
    leading term divides another's, so that filter would drop nothing."""
    inner, sizes = syzygy._interreduce, []

    def checked(items, n):
        shift = _WIDTH * (n + 1)
        sizes.append(len(items))
        assert not any(i != j and a[0] >> shift == b[0] >> shift and _key_divides(a[0], b[0])
                       for i, a in enumerate(items) for j, b in enumerate(items))
        return inner(items, n)

    monkeypatch.setattr(syzygy, "_interreduce", checked)
    for _, op in _pinned_cases():
        extend_to_complex(op)
    assert sum(sizes) > 100


def test_pinned_operators_are_reduced():
    for key, op in _pinned_cases():
        for b in extend_to_complex(op)[1:]:
            _assert_reduced(b)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(MODULES).flatmap(lambda name: st.tuples(
    st.just(name),
    st.permutations(range(len(_module(name)[1]))),
    st.lists(st.sampled_from(RESCALE + ("1", "1/3", "5")),
             min_size=len(_module(name)[1]), max_size=len(_module(name)[1])))))
def test_criteria_match_fifo_reference(case):
    """On any row order and rescaling of the four benchmark modules, the
    compatibility operator equals the reference's plus full reduction in
    every stored term and denominator, and is reduced.  The order in which
    an entry stores its terms follows the reduction path, and the reference
    takes other S-pairs, so that order is compared with the pinned one in
    ``test_pinned_operators_store_their_terms_in_order`` instead."""
    name, order, scales = case
    op = _operator(name, order, scales)
    got = compatibility_operator(op)
    want = _with_fifo(lambda: compatibility_operator(op))
    assert _terms(got) == _terms(want)
    assert str(got.body) == str(want.body)
    assert (got @ op).is_zero
    _assert_reduced(got)


def _terms(op: OperatorMatrix) -> list:
    """Each entry's variables, numerator terms by key and denominator."""
    return [[(p.vars, sorted(p._num.items()), p._den) for p in row] for row in op.body.entries]


# sha256 of the stored terms, in storage order, of each pinned resolution
STORED_SHA256 = "5c093770c54c6b2984dd46758cea0c95923ac7fc468ebc9c059c97b24a0f066a"


def test_pinned_operators_store_their_terms_in_order():
    """The pinned bytes print each entry's terms sorted; this pins the order
    the reductions store them in too, which a numeric evaluation of the
    entries follows."""
    digest = hashlib.sha256()
    for key, op in _pinned_cases():
        digest.update(repr((key, [stored(o.body) for o in extend_to_complex(op)[1:]])).encode())
    assert digest.hexdigest() == STORED_SHA256


def test_symmetric_gradient_3d_resolution():
    sig, rows = _module("symgrad3")
    ops = extend_to_complex(OperatorMatrix.from_entries(sig, rows))
    assert [ops[0].cols] + [o.rows for o in ops] == [3, 6, 6, 3]
    assert [o.order() for o in ops] == [1, 2, 1]


@pytest.mark.parametrize("key, pairs", [("four-generator 3210", 22),
                                        ("four-generator 2301 rescaled", 16),
                                        ("symgrad3", 14)])
def test_budget_exceeded_at_pinned_pair_count(key, pairs):
    """Buchberger processes exactly ``pairs`` S-pairs on these inputs, the
    first count the data file pins for them."""
    op = dict(_pinned_cases())[key]
    compatibility_operator(op, budget=pairs)
    with pytest.raises(BudgetExceeded):
        compatibility_operator(op, budget=pairs - 1)
    assert json.loads(PINNED.read_text())[key]["pairs"][0] == pairs


# ---------------------------------------------------------------------------
# Kept bases: for ``module_equivalent`` an operator keeps its packed rows and
# their Groebner basis.


def _frozen(x):
    """``x`` with every dict as its items in storage order, so ``==``
    compares term order too."""
    if isinstance(x, dict):
        return [(k, _frozen(v)) for k, v in x.items()]
    if isinstance(x, (list, tuple)):
        return [_frozen(v) for v in x]
    return x


def _buchberger_runs(run):
    """``run()`` and the number of Buchberger runs (``_groebner`` calls) in it."""
    runs = []
    real = syzygy._groebner
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(syzygy, "_groebner", lambda *args: runs.append(1) or real(*args))
        return run(), len(runs)


def _mapped_back(order, scales, b: OperatorMatrix) -> OperatorMatrix:
    """``b``, a compatibility operator of ``_operator(name, order, scales)``,
    over the module's own rows: column j is scales[j] times the column of
    the position that holds row j."""
    where = {src: pos for pos, src in enumerate(order)}
    return OperatorMatrix.from_entries(b.signature, [
        [b[i, where[j]].scale(GaussianRational.of(scales[j])) for j in range(len(order))]
        for i in range(b.rows)])


@pytest.mark.parametrize("name", MODULES)
def test_equivalence_against_a_kept_reference(name):
    """The compatibility operators of permuted, rescaled inputs, mapped back
    to the module's rows, are equivalent to one long-lived reference, as to
    a fresh copy of it.  Buchberger runs for the reference once, then once
    per mapped operator, and not at all for a repeated call."""
    rows = len(_module(name)[1])
    reference = compatibility_operator(_operator(name, range(rows)))
    if name == "four-generator":
        cases = [(o, s) for s in ("1111", RESCALE) for o in LATIN_ORDERS]
    else:
        cases = [(tuple(reversed(range(rows))), (RESCALE * 3)[:rows]),
                 (tuple(range(1, rows)) + (0,), ("5",) + ("1",) * (rows - 1))]
    runs = []
    for order, scales in cases:
        back = _mapped_back(order, scales, compatibility_operator(_operator(name, order, scales)))
        got, n = _buchberger_runs(lambda: module_equivalent(back, reference))
        assert got
        runs.append(n)
        assert module_equivalent(back, OperatorMatrix(reference.signature, reference.body))
        assert _buchberger_runs(lambda: module_equivalent(back, reference)) == (True, 0)
    assert runs == [2] + [1] * (len(cases) - 1)
    # a smaller module, the reference's rows times d1: the kept bases say so
    sig = reference.signature
    other = OperatorMatrix(sig, reference.body.scale(Poly.variable(sig.vars, sig.spatial[0])))
    assert not module_equivalent(other, reference)
    assert not module_equivalent(reference, other)


@pytest.mark.parametrize("key", ["four-generator 3210", "four-generator 2301 rescaled",
                                 "symgrad3"])
def test_kept_basis_is_reused(key):
    """An operator compared with itself runs Buchberger once, for its rows;
    later calls reuse the basis it keeps, which stays the same object."""
    op = dict(_pinned_cases())[key]
    assert _buchberger_runs(lambda: module_equivalent(op, op)) == (True, 1)
    basis = op._derived[("groebner", op.signature.vars)]
    assert _buchberger_runs(lambda: module_equivalent(op, op)) == (True, 0)
    assert op._derived[("groebner", op.signature.vars)] is basis


def test_a_call_out_of_budget_keeps_nothing():
    """A call that runs out of budget keeps no basis, so a later call with
    enough budget computes it."""
    op = dict(_pinned_cases())["symgrad3"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(syzygy, "DEFAULT_PAIR_BUDGET", 0)
        with pytest.raises(BudgetExceeded, match="S-pair budget of 0 exceeded"):
            module_equivalent(op, op)
    assert ("groebner", op.signature.vars) not in op._derived
    assert module_equivalent(op, op)


def test_kept_rows_and_bases_are_never_mutated():
    """Rows and Groebner records that operators keep equal, term order
    included, a deep copy taken before they served as reducers and as
    reduced rows in further calls, equivalent or not."""
    ops = dict(_pinned_cases())
    a, b = ops["four-generator 0123"], ops["four-generator 1032 rescaled"]
    assert module_equivalent(a, b)
    before = [deepcopy(m._derived) for m in (a, b)]
    for key in ("four-generator 2301", "four-generator 3210 rescaled"):
        assert module_equivalent(ops[key], a) and module_equivalent(a, ops[key])
        assert module_equivalent(b, ops[key])
    # three of a's rows: reductions that leave a remainder
    part = OperatorMatrix(a.signature, a.body.block(0, 3, 0, 2))
    assert not module_equivalent(a, part) and not module_equivalent(part, b)
    for m, kept in zip((a, b), before):
        assert _frozen({k: m._derived[k] for k in kept}) == _frozen(kept)


if __name__ == "__main__":
    PINNED.write_text(_pinned_json())
