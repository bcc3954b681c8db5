"""Log derivatives: the jet of ln|f| against closed forms (the mpmath
oracle is in test_jets.py)."""

import math
import random

from opident.jets import Jet, jet_exp, jet_ln_abs


class TestLogDeriv:
    def test_k1_single_term(self):
        # (ln|f|)' = f'/f
        assert jet_ln_abs(Jet(0.0, [2.0, 6.0])).derivs[1] == 3.0

    def test_k2_exp_square(self):
        # f = exp(x^2) at 1: jet [e, 2e, 6e]; (ln f)'' = (x^2)'' = 2
        fjet = jet_exp(Jet(1.0, [1.0, 2.0, 2.0]))
        got = jet_ln_abs(fjet).derivs[2]
        assert math.isclose(got, 2.0, rel_tol=1e-12)

    def test_k3_exp_cube(self):
        # f = exp(x^3) at 1: inner jet of x^3 at 1 is [1, 3, 6, 6]
        fjet = jet_exp(Jet(1.0, [1.0, 3.0, 6.0, 6.0]))
        got = jet_ln_abs(fjet).derivs[3]
        assert math.isclose(got, 6.0, rel_tol=1e-12)

    def test_exp_conjugation_recovers_inner_jet(self):
        rng = random.Random(88)
        for _ in range(30):
            k = rng.randint(1, 8)
            g = [rng.uniform(-2.0, 2.0) for _ in range(k + 1)]
            fjet = jet_exp(Jet(0.0, g))
            got = jet_ln_abs(fjet).derivs[k]
            assert math.isclose(got, g[k], rel_tol=1e-8, abs_tol=1e-8)
