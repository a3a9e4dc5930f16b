import random

import pytest

from leftorder.amalgam import (
    AmalgamCtx, amalgam_normal_form, free_product_amalgam, in_factor,
    malnormality_check, square_amalgam,
)
from leftorder.errors import InvalidOracleError
from leftorder.words import FreeProductCtx, Word, ZPowCtx

SQ = square_amalgam()
FREE = free_product_amalgam()
ZZ = FreeProductCtx((ZPowCtx(1, ("a",)), ZPowCtx(1, ("b",))))


def w(*pairs):
    """A word as spelled in Z * Z, the syntax both instances read."""
    return FREE.word(list(pairs))


def nf(word, ctx=SQ):
    return amalgam_normal_form(ctx, word.syllables)


# -- normal forms ---------------------------------------------------------------

def test_a_squared_b_inverse_is_b():
    # a^2 b^-1 = b^2 b^-1 = b under the relation a^2 = b^2
    core, letters = nf(w(("a", 2), ("b", -1)))
    assert core == 0
    assert letters == ((1, 1),)
    assert in_factor(SQ.word([("a", 2), ("b", -1)]), 1)


def test_single_factor_element():
    _, letters = nf(w(("a", 1)))
    assert len(letters) == 1 and in_factor(SQ.word([("a", 1)]), 0)


def test_alternating_two_letters():
    _, letters = nf(w(("a", 1), ("b", 1)))
    assert letters == ((0, 1), (1, 1))
    assert len(letters) == 2
    ab = SQ.word(letters)
    assert not in_factor(ab, 0) and not in_factor(ab, 1)


def test_core_commutes_to_prefix():
    # b a^2 b = a^2 b^2 = z^2, a pure core element
    core, letters = nf(w(("b", 1), ("a", 2), ("b", 1)))
    assert letters == () and core == 2


def test_negative_exponent_decomposition():
    # b^-1 = z^-1 b
    core, letters = nf(w(("b", -1)))
    assert core == -1 and letters == ((1, 1),)
    assert SQ.word([("b", -1)]).syllables == ((0, -2), (1, 1))


def test_normal_form_idempotent_and_sound():
    rng = random.Random(0)
    for ctx in (SQ, FREE):
        for _ in range(400):
            word = ZZ.word(
                [(rng.randrange(2), rng.choice([-3, -2, -1, 1, 2, 3]))
                 for _ in range(rng.randint(0, 6))])
            form = nf(word, ctx)
            spelled = ctx.word(word.syllables)
            again = nf(spelled, ctx)
            assert again == form
            # in the trivial-core case the form is just free-product syntax
            if ctx is FREE:
                assert spelled.syllables == word.syllables


def test_free_product_forms_have_no_core():
    core, letters = nf(FREE.word([("a", 3), ("b", -2)]), FREE)
    assert core == 0
    assert letters == ((0, 3), (1, -2))


def test_square_relation_holds_in_forms():
    lhs = nf(w(("a", 2)))
    rhs = nf(w(("b", 2)))
    assert lhs == rhs
    assert SQ.word([("a", 2)]) == SQ.word([("b", 2)])


def test_invalid_weights_rejected():
    # one weight zero, negative, not an int, or not a pair
    for weights in [(0, 2), (3, 0), (-2, 2), (2, -1), (2.0, 2), (True, True),
                    (2, 2, 2), [2, 2]]:
        with pytest.raises(InvalidOracleError):
            AmalgamCtx(weights)


def test_trefoil_relations_normalize_to_identity():
    trefoil = AmalgamCtx((2, 3))
    assert trefoil.word([("a", 2), ("b", -3)]).is_identity()
    assert trefoil.word([("b", 3), ("a", 1), ("b", -3), ("a", -1)]).is_identity()
    assert not trefoil.word([("a", 1), ("b", 1), ("a", -1), ("b", -1)]).is_identity()


@pytest.mark.parametrize("ctx", [SQ, FREE], ids=["square", "free"])
def test_ball_is_normal_forms_of_free_product_ball(ctx):
    # the amalgam is a quotient of Z * Z on the same generators, so its B_r
    # is the image of the free product's B_r
    for r in range(6):
        forms = {ctx.word(u.syllables) for u in ZZ.ball(r)}
        assert sorted(forms, key=Word.shortlex_key) == ctx.ball(r)


# -- malnormality ------------------------------------------------------------------

def test_free_factor_malnormal():
    rep = malnormality_check(FREE, 0, 4)
    assert rep.passed


def test_square_amalgam_witness():
    rep = malnormality_check(SQ, 0, 4)
    assert not rep.passed
    aa, ww = rep.witness
    assert aa == SQ.word([("a", 2)])   # the central element a^2 = b^2
    assert ww == SQ.word([("b", 1)])
    assert rep.certify(SQ)


def test_witness_reverifies_under_conjugation():
    rep = malnormality_check(SQ, 0, 4)
    aa, ww = rep.witness
    conj = SQ.mul(SQ.mul(SQ.inv(ww), aa), ww)
    assert in_factor(conj, 0)
