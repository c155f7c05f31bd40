"""The verification suites: pinned records, and the cross-checks that run
only here (not inside the primitives) must fail when their route is off."""

import dataclasses
import functools
import math
from fractions import Fraction

import pytest

from siegeljacobi import diffops, fockoracle, gj1, jacobi, numdiff, symplectic, verify

# (check, anchor, n, k, samples, tolerance, residual) of every record the
# suites produced before the moved cross-checks were added (gj1 and algebra:
# before the acceptance criteria shared their residual functions; action-order:
# since it became a residual of the left-action law); all passed
PINNED = {
    "algebra": [
        ("jacobi-algebra-closure-n1", "generator-bracket-table", 1, None, 10, 0.0, 0.0),
        ("sp-algebra-closure-n1", "quadratic-sector-bracket-table", 1, None, 3, 0.0, 0.0),
        ("jacobi-algebra-closure-n2", "generator-bracket-table", 2, None, 91, 0.0, 0.0),
        ("sp-algebra-closure-n2", "quadratic-sector-bracket-table", 2, None, 45, 0.0, 0.0),
        ("table-jacobi-identity-n2", "structure-constant-consistency", 2, None, None, 0.0, 0.0),
    ],
    "gj1": [
        ("pn-golden-table", "heat-polynomial-table", None, None, 6, 0.0, 0.0),
        ("hermite-closed-form", "hermite-identity-exact", None, None, 9, 0.0, 0.0),
        ("kernel-series", "basis-resummation", 1, 4.0, 41, 1e-06, 0.0),
        ("cayley-roundtrip", "halfplane-disk-biholomorphism", None, None, 100, 1e-12, 9.930136612989092e-16),
        ("form-pullback", "two-presentations-of-the-form", None, 16.0, 100, 1e-08, 2.8421739702845704e-13),
        ("real-metric", "metric-vs-complex-form", None, 16.0, 100, 1e-08, 7.105427357601002e-15),
        ("halfplane-action-property", "affine-action-composition", None, None, 25, 1e-08, 1.2270882403660136e-15),
        ("cayley-intertwines-action", "picture-change-equivariance", None, None, 25, 1e-08, 1.0530777776727806e-15),
    ],
    "symplectic": [
        ("gauss-roundtrip", "triangular-factorization", 2, None, 50, 1e-09, 3.3946514284745463e-15),
        ("cartan-roundtrip", "polar-factorization", 2, None, 50, 1e-09, 6.0995459728315454e-15),
        ("generator-domain-roundtrip", "tanh-coordinate-map", 2, None, 50, 1e-11, 2.8634352711803666e-15),
        ("moebius-left-action", "linear-fractional-action", 2, None, 50, 1e-10, 6.353541660708338e-16),
        ("ball-composition", "two-point-composition-law", 2, None, 50, 1e-09, 1.153381099566346e-15),
        ("ball-composition-unitary", "unimodular-correction", 2, None, 50, 1e-09, 1.1157603309187458e-15),
        ("kernel-transformation", "multiplier-placement", 2, 4.0, 50, 1e-09, 9.154763804969693e-15),
        ("jn-closed-forms", "weighted-volume-constant", None, None, 200, 0.0, 0.0),
        ("lambda1-routes", "group-normalization-constant", 2, 8.0, None, 1e-12, 1.0327164683510074e-15),
        ("two-form-hessian", "invariant-form-vs-finite-differences", 2, 4.0, None, 1e-05, 1.170151762153182e-07),
        ("two-form-positive", "invariant-form-positivity", 2, 4.0, None, 0.5, 0.0),
        ("volume-invariance", "group-invariant-volume", 2, None, None, 1e-06, 2.764876146944587e-10),
    ],
    "jacobi": [
        ("kernel-hermitian", "overlap-symmetry", 2, 4.0, 400, 1e-12, 2.2591401799415137e-16),
        ("kernel-positive", "overlap-positivity", 2, 4.0, 20, 1e-09, 0.0),
        ("cocycle-unitarity", "multiplier-norm-consistency", 2, 4.0, 100, 1e-09, 5.7867099250484484e-15),
        ("cocycle-multiplicative", "multiplier-composition", 2, 4.0, 100, 1e-09, 1.9613309815320855e-15),
        ("potential-log-kernel", "potential-diagonal-consistency", 2, 4.0, None, 1e-11, 2.4070557770636683e-16),
        ("kahler-hessian-fd", "form-vs-finite-differences", 2, 4.0, None, 1e-05, 3.242844010675883e-10),
        ("kahler-positive", "form-positivity", 2, 4.0, None, 0.5, 0.0),
        ("form-invariance", "group-invariant-form", 2, 4.0, None, 1e-05, 4.693236910213822e-10),
        ("density-invariance", "group-invariant-volume", 2, None, None, 1e-05, 4.240891043588252e-10),
        ("action-order", "left-action-convention", 2, None, 100, 1e-10, 4.1093545105807474e-16),
    ],
    "jacobi-n1": [
        ("kernel-hermitian", "overlap-symmetry", 1, 4.0, 400, 1e-12, 2.227212004505268e-16),
        ("kernel-positive", "overlap-positivity", 1, 4.0, 20, 1e-09, 0.0),
        ("cocycle-unitarity", "multiplier-norm-consistency", 1, 4.0, 100, 1e-09, 2.3200454394600755e-15),
        ("cocycle-multiplicative", "multiplier-composition", 1, 4.0, 100, 1e-09, 1.1667522359910967e-15),
        ("cocycle-route-agreement", "multiplier-closed-forms", 1, 4.0, 100, 1e-09, 4.1998790131842775e-16),
        ("potential-log-kernel", "potential-diagonal-consistency", 1, 4.0, None, 1e-11, 1.577514160966409e-17),
        ("kahler-hessian-fd", "form-vs-finite-differences", 1, 4.0, None, 1e-05, 1.9517409910463357e-10),
        ("kahler-positive", "form-positivity", 1, 4.0, None, 0.5, 0.0),
        ("form-invariance", "group-invariant-form", 1, 4.0, None, 1e-05, 5.456923801716726e-11),
        ("density-invariance", "group-invariant-volume", 1, None, None, 1e-05, 2.931599389145234e-11),
        ("action-order", "left-action-convention", 1, None, 100, 1e-10, 5.35510008047711e-16),
    ],
    "oracle": [
        ("displacement-composition", "translation-phase-law", None, None, 1, 1e-09, 5.904586930367774e-16),
        ("squeeze-disentangling", "ordered-exponential-forms", None, None, 1, 1e-08, 5.531275437675731e-10),
        ("squeezed-vector-relation", "displaced-squeezed-vacuum", None, None, 1, 1e-07, 3.5368970166278e-16),
        ("conjugation-equations", "ladder-conjugation", None, None, 1, 1e-07, 3.552713678800501e-15),
        ("vacuum-orbit-convention", "orbit-argument-convention", None, None, 1, 1e-08, 3.136305940344811e-17),
        ("kernel-oracle", "overlap-vs-closed-form", 1, 1.0, 20, 1e-07, 4.449557262054371e-16),
        ("orbit-map-end-to-end", "operator-orbit-vs-closed-form", 1, 1.0, 20, 1e-06, 6.010888066437883e-15),
        ("composition-operator-order", "two-point-law-operator-check", 1, 1.0, 1, 1e-08, 1.350368408273399e-16),
    ],
}

RUNS = {
    "algebra": (verify.suite_algebra, set()),
    "gj1": (lambda: verify.suite_gj1(seed=7), set()),
    "symplectic": (lambda: verify.suite_symplectic(seed=7), {"moebius-closed-forms", "compose-closure"}),
    "jacobi": (lambda: verify.suite_jacobi(seed=7),
               {"cocycle-route-agreement", "cocycle-literal-route"}),
    "jacobi-n1": (lambda: verify.suite_jacobi(n=1, seed=7), {"cocycle-literal-route"}),
    "oracle": (lambda: verify.suite_oracle(seed=7),
               {"displacement-normal-order", "squeeze-reverse-order"}),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_suite_records_are_pinned(name):
    run, added = RUNS[name]
    checks = run()
    assert {c["check"] for c in checks if c["check"] in added} == added
    assert all(c["pass"] for c in checks if c["check"] in added)
    kept = [c for c in checks if c["check"] not in added]
    assert len(kept) == len(PINNED[name])
    for rec, (*fields, residual) in zip(kept, PINNED[name]):
        got = [rec[f] for f in ("check", "anchor", "n", "k", "samples", "tolerance")]
        assert got == fields and rec["pass"] is True
        assert abs(rec["residual"] - residual) <= 1e-14, rec["check"]


def _scaled(fn, factor=1 + 1e-6):
    return lambda *args, **kwargs: fn(*args, **kwargs) * factor


def _scaled_index(fn):
    # a uniform scale of the kernel cancels out of its transformation law
    return lambda x, y, k: fn(x, y, k * (1 + 1e-6))


def _scaled_part(key, factor=1 + 1e-6):
    # scale one field (a name) or one item (an index) of the result
    def perturb(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(key, int):
                return tuple(v * factor if i == key else v for i, v in enumerate(out))
            return dataclasses.replace(out, **{key: getattr(out, key) * factor})

        return wrapped

    return perturb


def _doubled_commutator(fn):
    return lambda d1, d2: fn(d1, d2) + fn(d1, d2)


def _swapped(fn):
    # for op_commutator, [B, A]: an anti-homomorphism, which closes only at
    # the opposite sign
    return lambda a, b: fn(b, a)


def _bare_partial(fn):
    # d/dw_ij as the bare independent partial off the diagonal too, in place
    # of the symmetric projector's half: the tables close at n = 1 only
    return lambda i, j: (Fraction(1), diffops._wname(i, j))


_algebra_n1 = functools.partial(verify.suite_algebra, n=1)
_symplectic = functools.partial(verify.suite_symplectic, samples=3)
_jacobi = functools.partial(verify.suite_jacobi, samples=3)
_jacobi_n1 = functools.partial(verify.suite_jacobi, n=1, samples=3)
_oracle = functools.partial(verify.suite_oracle, samples=1)
_measure = functools.partial(verify.suite_measure, samples=1000)
_gj1 = functools.partial(verify.suite_gj1, samples=4)

# bite id -> (module, attribute, perturbation, suite run that records the
# check); the id is the check, or "check:variant" where one check has more
# than one bite
BITES = {
    "moebius-closed-forms": (symplectic, "moebius", _scaled, _symplectic),
    "compose-closure": (symplectic, "sp_compose", _scaled_part("a"), _symplectic),
    "jn-closed-forms": (symplectic, "jn", _scaled, _symplectic),
    "cocycle-literal-route": (jacobi, "lambda_cocycle_ez", _scaled, _jacobi_n1),
    "cocycle-route-agreement": (jacobi, "lambda_cocycle_ez", _scaled, _jacobi),
    "normalization-routes": (symplectic, "jn", _scaled, _measure),
    # the Monte-Carlo records at the suite's default seed and sample count,
    # against their 1e-2 (mass, volume) and 3e-2 (reproducing) bounds; the
    # x0 = 0 target reads the weight only, its kernel being 1
    "normalization-mc": (jacobi, "_sample_chunk_n1", _scaled_part(3, 1.05), verify.suite_measure),
    "reproducing-one": (jacobi, "_sample_chunk_n1", _scaled_part(3, 1.05), verify.suite_measure),
    "reproducing-z": (jacobi, "_kernel_n1", lambda fn: _scaled(fn, 1.05), verify.suite_measure),
    "reproducing-w": (jacobi, "_kernel_n1", lambda fn: _scaled(fn, 1.05), verify.suite_measure),
    "jn-mc": (verify, "_jn_mc_chunk", _scaled_part(0, 1.05), verify.suite_measure),
    "displacement-normal-order": (fockoracle, "displacement", _scaled, _oracle),
    "squeeze-reverse-order": (fockoracle, "squeeze", _scaled, _oracle),
    # the orbit record applies S(g) D(alpha) to a vector, one action each
    "orbit-map-end-to-end": (fockoracle, "_expm_apply", _scaled, _oracle),
    "kernel-transformation": (jacobi, "kernel", _scaled_index, _symplectic),
    # at 1 + 1e-6 the relative residual is 9.99999e-7, under its 1e-6 bound
    "kernel-series": (jacobi, "kernel", lambda fn: _scaled(fn, 1 + 1e-5), _gj1),
    "form-pullback": (jacobi, "kahler_form", _scaled, _gj1),
    # the records whose residual function the acceptance criteria share
    "jacobi-algebra-closure-n1": (diffops, "op_commutator", _doubled_commutator, _algebra_n1),
    "jacobi-algebra-closure-n2": (diffops, "op_commutator", _doubled_commutator, verify.suite_algebra),
    "jacobi-algebra-closure-n1:reversed": (diffops, "op_commutator", _swapped,
                                           _algebra_n1),
    "jacobi-algebra-closure-n2:reversed": (diffops, "op_commutator", _swapped,
                                           verify.suite_algebra),
    "sp-algebra-closure-n1": (diffops, "op_commutator", _doubled_commutator, _algebra_n1),
    "sp-algebra-closure-n2": (diffops, "op_commutator", _doubled_commutator, verify.suite_algebra),
    "jacobi-algebra-closure-n2:bare-partial": (diffops, "_dw_terms", _bare_partial,
                                               verify.suite_algebra),
    "sp-algebra-closure-n2:bare-partial": (diffops, "_dw_terms", _bare_partial,
                                           verify.suite_algebra),
    "gauss-roundtrip": (symplectic, "gauss_reassemble", _scaled_part("a"), _symplectic),
    "cartan-roundtrip": (symplectic, "cartan_synthesize", _scaled_part("a"), _symplectic),
    "generator-domain-roundtrip": (symplectic, "z_of_w", _scaled, _symplectic),
    "ball-composition": (symplectic, "ball_compose", _scaled_part(0), _symplectic),
    "ball-composition-unitary": (symplectic, "ball_compose", _scaled_part(2), _symplectic),
    "lambda1-routes": (symplectic, "lambda1", _scaled, _symplectic),
    "cocycle-unitarity": (jacobi, "lambda_cocycle", _scaled_part("lam"), _jacobi),
    "cocycle-multiplicative": (jacobi, "jacobi_compose", _scaled_part("alpha"), _jacobi),
    # lambda_full carries exp(i c t): the constant of the conventions block
    "cocycle-multiplicative:central-charge": (jacobi, "CENTRAL_CHARGE", lambda c: -c, _jacobi),
    "action-order": (jacobi, "jacobi_compose", _swapped, _jacobi),
    # the form is about 4 in size, so 1 + 1e-6 would stay under the 1e-5 bound
    "kahler-hessian-fd": (jacobi, "kahler_form", lambda fn: _scaled(fn, 1 + 1e-4), _jacobi),
    "kahler-positive": (jacobi, "kahler_form", lambda fn: _scaled(fn, -1.0), _jacobi),
    "form-invariance": (numdiff, "holomorphic_jacobian", lambda fn: _scaled(fn, 1 + 1e-4), _jacobi),
    "density-invariance": (numdiff, "holomorphic_jacobian", lambda fn: _scaled(fn, 1 + 1e-4), _jacobi),
    "real-metric": (gj1, "ez_metric", _scaled, _gj1),
    "pn-golden-table": (gj1, "pn_poly", lambda fn: lambda i: fn(i + 1), _gj1),
    "hermite-closed-form": (gj1, "_hermite_coeffs", lambda fn: lambda i: [2 * c for c in fn(i)], _gj1),
}


@functools.cache
def _clean_run(run):
    """The records of ``run`` with nothing perturbed, once per run callable:
    the suites are deterministic, so the bites that share a run share them."""
    return run()


@pytest.mark.parametrize("check", sorted(BITES))
def test_moved_cross_check_fails_when_the_route_is_off(monkeypatch, check):
    module, name, perturb, run = BITES[check]
    check = check.partition(":")[0]

    def record(checks):
        return next(c for c in checks if c["check"] == check)

    assert record(_clean_run(run))["pass"]
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    assert not record(run())["pass"]


def test_resolved_conventions_are_pinned():
    # every report prints the same constants; kernel_transform is the
    # placement the kernel-transformation record tests
    assert verify.run_suite("algebra")["conventions"] == {
        "action_order": "left",
        "sign_sigma": 1,
        "central_phase_c": 1.0,
        "kernel_transform": "J(g,Y) K(X,Y) conj(J(g,X))",
    }
    record = next(c for c in _clean_run(_symplectic) if c["check"] == "kernel-transformation")
    assert record["anchor"] == "multiplier-placement" and record["pass"]


def test_worst_keeps_a_nan_from_any_sample():
    assert verify._worst(0.0, 2.0, 1.0) == 2.0
    for residuals in ((0.0, math.nan), (math.nan, 1.0), (0.0, 1.0, math.nan, 0.5)):
        assert math.isnan(verify._worst(*residuals))


def test_a_nan_sample_fails_its_record(monkeypatch):
    # NaN on the 5th of 100 samples of the one stacked call: both records it
    # feeds read NaN and fail
    calls = []
    cocycle_residuals = verify._cocycle_residuals

    def nan_on_fifth(*args):
        calls.append(args)
        uni, mult, lam = cocycle_residuals(*args)
        uni, mult = uni.copy(), mult.copy()
        uni[4] = mult[4] = math.nan
        return uni, mult, lam

    monkeypatch.setattr(verify, "_cocycle_residuals", nan_on_fifth)
    checks = {c["check"]: c for c in verify.suite_jacobi(seed=7)}
    assert len(calls) == 1 and calls[0][2].z.shape == (100, 2)
    for name in ("cocycle-unitarity", "cocycle-multiplicative"):
        assert checks[name]["pass"] is False and math.isnan(checks[name]["residual"])
    assert checks["cocycle-route-agreement"]["pass"] is True
