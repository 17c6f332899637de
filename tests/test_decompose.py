"""Structure decomposition: peeling, round-trips, error paths."""

import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import nhmf.series
from nhmf.decompose import (
    character_split,
    decompose,
    leading_column_factor,
    shared_level1_basis,
)
from nhmf.errors import DecompositionError, InsufficientTruncationError
from nhmf.generators import eisenstein, eisenstein2, level1_basis
from nhmf.operators import infinitesimal_character, iterate_raise, raise_weight
from nhmf.series import NearlyHolomorphicForm
from nhmf.verify import random_decomposable

from conftest import oracle_raise


class TestIterateRaise:
    def test_zero_steps_is_identity(self):
        f = eisenstein(4, 6)
        assert iterate_raise(f, 0) == f

    def test_kills_weight_zero_constants(self):
        assert iterate_raise(NearlyHolomorphicForm.constant(1, 5), 1).is_zero

    def test_two_fold_matches_differentiation_oracle(self):
        f = eisenstein(4, 6)
        assert iterate_raise(f, 2) == oracle_raise(oracle_raise(f))

    def test_leading_column_factor(self):
        # c(w, l) from the monomial rule: the X^l column of the l-fold image.
        for w in (4, 6, 8):
            for ell in (1, 2, 3):
                g = eisenstein(w, 8)
                img = iterate_raise(g, ell)
                col = img.x_column(ell)
                c = leading_column_factor(w, ell)
                assert col == {n: c * v for n, v in g.x_column(0).items()}

    def test_factor_degenerates_only_at_weight_zero(self):
        assert leading_column_factor(0, 1) == 0
        assert leading_column_factor(0, 3) == 0
        assert leading_column_factor(1, 3) == -6
        assert leading_column_factor(4, 2) == 20


class TestDecomposeExamples:
    def test_weight_two_series_is_pure_seed(self):
        dec = decompose(eisenstein2(12))
        assert dec.terms == ()
        assert dec.e2_term == (0, Fraction(1))
        assert dec.reassemble() == eisenstein2(12)

    def test_raised_e4_plus_e6(self):
        trunc = 12
        e4, e6 = eisenstein(4, trunc), eisenstein(6, trunc)
        f = iterate_raise(e4, 1) + e6
        dec = decompose(f)
        assert dec.e2_term is None
        assert dec.terms == ((0, e6), (1, e4))
        assert dec.reassemble() == f

    def test_holomorphic_passthrough(self):
        e4 = eisenstein(4, 8)
        dec = decompose(e4)
        assert dec.terms == ((0, e4),)
        assert dec.e2_term is None

    def test_constant_summand(self):
        f = NearlyHolomorphicForm.constant(Fraction(7, 2), 6)
        dec = decompose(f)
        assert dec.terms == ((0, f),)

    def test_raised_weight_two_seed(self):
        trunc = 14
        f = iterate_raise(eisenstein2(trunc), 2) * Fraction(-3, 5)
        dec = decompose(f)
        assert dec.terms == ()
        assert dec.e2_term == (2, Fraction(-3, 5))
        assert dec.reassemble() == f

    def test_mixed_seed_and_basis(self):
        trunc = 16
        e4 = eisenstein(4, trunc)
        f = iterate_raise(eisenstein2(trunc), 1) + iterate_raise(e4, 0) * 2
        dec = decompose(f)
        assert dec.e2_term == (1, Fraction(1))
        assert dec.terms == ((0, e4 * 2),)
        assert dec.reassemble() == f


class TestDecomposeErrors:
    def test_weight_two_residual_not_decomposable(self):
        # A depth-0 weight-2 q-series is not spanned at level 1.
        f = NearlyHolomorphicForm(2, 8, {(0, 1): 1})
        with pytest.raises(DecompositionError) as err:
            decompose(f)
        assert not err.value.data["residual"].is_zero

    def test_non_modular_input_rejected_with_residual(self):
        # Top column q-series outside the weight-8 span.
        f = NearlyHolomorphicForm(8, 8, {(0, 1): 1, (0, 2): Fraction(1, 3)})
        with pytest.raises(DecompositionError) as err:
            decompose(f)
        assert err.value.data["residual"] == f

    def test_insufficient_truncation(self):
        # Weight 12 needs q-precision past the Sturm-type bound 12/12 + 1 = 2.
        f = NearlyHolomorphicForm(12, 1, {(0, 0): 1, (0, 1): 5})
        with pytest.raises(InsufficientTruncationError):
            decompose(f)

    def test_zero_decomposes_to_nothing(self):
        dec = decompose(NearlyHolomorphicForm.zero(5))
        assert dec.terms == () and dec.e2_term is None
        assert dec.reassemble().is_zero


def test_roundtrip_random_sample():
    rng = random.Random(421)
    done = 0
    while done < 30:
        f = random_decomposable(rng, 30)
        if f.is_zero:
            continue
        done += 1
        dec = decompose(f)
        assert dec.reassemble() == f
        assert len({ell for ell, _ in dec.terms}) == len(dec.terms)
        for ell, g in dec.terms:
            assert g.depth == 0 and g.weight == f.weight - 2 * ell


def test_uniqueness_term_by_term():
    rng = random.Random(99)
    for _ in range(12):
        f = random_decomposable(rng, 26)
        if f.is_zero:
            continue
        d1 = decompose(f)
        d2 = decompose(NearlyHolomorphicForm(f.weight, f.truncation, dict(f.terms())))
        assert d1.terms == d2.terms and d1.e2_term == d2.e2_term


def test_is_holomorphic():
    assert eisenstein(4, 5).is_holomorphic
    assert not eisenstein2(5).is_holomorphic
    assert not raise_weight(eisenstein(4, 5)).is_holomorphic


def test_character_stratification_of_eigenforms():
    trunc = 20
    for f in (
        iterate_raise(eisenstein(4, trunc), 2),
        iterate_raise(eisenstein2(trunc), 1),
        eisenstein(6, trunc),
    ):
        char = infinitesimal_character(f)
        parts = character_split(f)
        assert set(parts) == {char}
        dec = decompose(f)
        for ell, g in dec.terms:
            assert infinitesimal_character(g) == char


def test_character_split_of_mixed_form():
    trunc = 18
    e4, e6 = eisenstein(4, trunc), eisenstein(6, trunc)
    mixed = iterate_raise(e4, 1) + e6
    parts = character_split(mixed)
    assert len(parts) == 2
    assert sum(parts.values(), NearlyHolomorphicForm.zero(trunc)) == mixed
    for char, piece in parts.items():
        assert infinitesimal_character(piece) == char


def test_user_supplied_basis_provider():
    # A weight-2 "higher level" basis makes weight-2 residuals decomposable.
    trunc = 10
    g2 = NearlyHolomorphicForm(2, trunc, {(0, n): Fraction(n + 1) for n in range(4)})

    class Provider:
        @staticmethod
        def sturm_bound(w):
            return 4

        def __call__(self, w):
            if w == 2:
                return [g2]
            return level1_basis(w, trunc)

    f = iterate_raise(g2, 1) * 3
    dec = decompose(f, Provider())
    assert dec.terms == ((1, g2 * 3),)
    assert dec.reassemble() == f


def test_basis_above_input_truncation():
    # A provider may hand out forms computed to a higher precision; the
    # solve must use only the coefficients up to the input's truncation.
    trunc = 12
    e4, e6 = eisenstein(4, trunc), eisenstein(6, trunc)
    f = iterate_raise(e4, 2) + iterate_raise(e6, 1) + e4 * e4
    dec = decompose(f, lambda w: level1_basis(w, trunc + 10))
    assert dec.terms == decompose(f).terms
    assert dec.reassemble() == f


def test_shared_basis_does_not_leak_between_calls():
    rng = random.Random(7)
    forms = [f for f in (random_decomposable(rng, 30) for _ in range(6)) if not f.is_zero]
    before = [decompose(f).to_json() for f in forms]
    provider = shared_level1_basis(30)
    for w in range(0, 31, 2):
        provider(w).clear()
        provider(w).append(NearlyHolomorphicForm.zero(30))
        level1_basis(w, 30).clear()
    assert [decompose(f).to_json() for f in forms] == before
    assert [decompose(f).reassemble() for f in forms] == forms


_FRESH_DECOMPOSE = """
import json, sys
from nhmf.decompose import decompose
from nhmf.series import NearlyHolomorphicForm
docs = json.load(sys.stdin)
print(json.dumps([decompose(NearlyHolomorphicForm.from_doc(d)).to_json() for d in docs]))
"""


def test_decompose_across_truncations_matches_fresh_processes():
    # Decomposing at trunc 30 and then at trunc 12 in one process gives what
    # a fresh process gives for each truncation alone.
    rng = random.Random(12)
    forms = [f for f in (random_decomposable(rng, 30) for _ in range(5)) if not f.is_zero]
    in_process = {}
    for trunc in (30, 12):
        in_process[trunc] = [decompose(f.truncate(trunc)).to_json() for f in forms]
    src = str(Path(nhmf.series.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for trunc in (30, 12):
        docs = [f.truncate(trunc).to_doc() for f in forms]
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_DECOMPOSE],
            input=json.dumps(docs),
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            check=True,
        )
        assert json.loads(proc.stdout) == in_process[trunc]
