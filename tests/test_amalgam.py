import random

import pytest

from leftorder.amalgam import (
    AmalgamOracles, amalgam_normal_form, free_product_amalgam,
    malnormality_check, square_amalgam,
)
from leftorder.errors import InvalidOracleError

SQ = square_amalgam()
FREE = free_product_amalgam()
CTX = SQ.ctx


def w(*pairs):
    return CTX.word(list(pairs))


# -- normal forms ---------------------------------------------------------------

def test_a_squared_b_inverse_is_b():
    # a^2 b^-1 = b^2 b^-1 = b under the relation a^2 = b^2
    f = amalgam_normal_form(w(("a", 2), ("b", -1)), SQ)
    assert f.core_exp == 0
    assert f.letters == ((1, 1),)
    assert f.in_factor(1)


def test_single_factor_element():
    f = amalgam_normal_form(w(("a", 1)), SQ)
    assert f.factor_length() == 1 and f.in_factor(0)


def test_alternating_two_letters():
    f = amalgam_normal_form(w(("a", 1), ("b", 1)), SQ)
    assert f.letters == ((0, 1), (1, 1))
    assert f.factor_length() == 2
    assert not f.in_factor(0) and not f.in_factor(1)


def test_core_commutes_to_prefix():
    # b a^2 b = a^2 b^2 = z^2, a pure core element
    f = amalgam_normal_form(w(("b", 1), ("a", 2), ("b", 1)), SQ)
    assert f.letters == () and f.core_exp == 2


def test_negative_exponent_decomposition():
    # b^-1 = z^-1 b
    f = amalgam_normal_form(w(("b", -1)), SQ)
    assert f.core_exp == -1 and f.letters == ((1, 1),)


def test_normal_form_idempotent_and_sound():
    rng = random.Random(0)
    for oracles in (SQ, FREE):
        for _ in range(400):
            word = oracles.ctx.word(
                [(rng.randrange(2), rng.choice([-3, -2, -1, 1, 2, 3]))
                 for _ in range(rng.randint(0, 6))])
            f = amalgam_normal_form(word, oracles)
            again = amalgam_normal_form(f.to_word(), oracles)
            assert again == f
            # in the trivial-core case the form is just free-product syntax
            if oracles is FREE:
                assert f.to_word() == word


def test_free_product_forms_have_no_core():
    f = amalgam_normal_form(FREE.ctx.word([("a", 3), ("b", -2)]), FREE)
    assert f.core_exp == 0
    assert f.letters == ((0, 3), (1, -2))


def test_square_relation_holds_in_forms():
    lhs = amalgam_normal_form(w(("a", 2)), SQ)
    rhs = amalgam_normal_form(w(("b", 2)), SQ)
    assert lhs == rhs


def test_broken_oracle_rejected():
    class Broken(AmalgamOracles):
        def decompose(self, side, p):
            if p == 2:
                return (0, 1)  # wrong: 2 != 0*2 + 1
            return super().decompose(side, p)

    bad = Broken(CTX, (2, 2))
    with pytest.raises(InvalidOracleError):
        amalgam_normal_form(w(("a", 2)), bad)


# -- malnormality ------------------------------------------------------------------

def test_free_factor_malnormal():
    rep = malnormality_check(FREE, 0, 4)
    assert rep.passed


def test_square_amalgam_witness():
    rep = malnormality_check(SQ, 0, 4)
    assert not rep.passed
    aa, ww = rep.witness
    assert aa == w(("a", 2))   # the central element a^2 = b^2
    assert ww == w(("b", 1))
    assert rep.certify(SQ)


def test_witness_reverifies_under_conjugation():
    rep = malnormality_check(SQ, 0, 4)
    aa, ww = rep.witness
    conj = CTX.mul(CTX.mul(CTX.inv(ww), aa), ww)
    f = amalgam_normal_form(conj, SQ)
    assert f.in_factor(0)
