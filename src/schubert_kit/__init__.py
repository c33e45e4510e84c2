"""Exact Schubert calculus for Kac-Moody flag varieties.

Arbitrary-precision integer, rational and prime-field arithmetic
throughout; nothing here ever touches floating point.

``import schubert_kit`` loads only ``errors``; every other public name is
imported from its home module on first access.
"""

from . import errors  # loaded with the package: every other module imports it

__version__ = "0.1.0"

# home module of every public name; PEP 562 imports it on first access
_HOMES = {
    "errors": ("DiagonalNotTwo", "GCMValidationError", "NotHomogeneous",
               "NotHyperbolicOrAffine", "NotInGroup", "NotReduced", "NotSpherical",
               "OddPrimeRequired", "PositiveOffDiagonal", "SchubertKitError",
               "TheoremViolation", "UnderdeterminedSystem", "ZeroAsymmetry", "ZeroElement"),
    "gcm": ("GeneralizedCartanMatrix", "Realization", "SphericalPoset", "coxeter_exponent",
            "derived_realization", "gcm_from_dict", "gcm_from_file", "is_finite_type",
            "parse_gcm", "rank_two", "spherical_poset", "standard_realization",
            "validate_gcm"),
    "poincare": ("PoincareSeries",),
    "polyring": ("GradedPolynomial", "InvariantsReport", "WeightRing"),
    "rings": ("GF", "QQ", "ZZ", "parse_ring"),
    "schubert": ("SchubertVector", "TensorVector", "l_functional", "nil_a", "nil_aw",
                 "parabolic_basis", "peterson_coproduct"),
    "weyl": ("WeylElement", "bruhat_leq", "enumerate_by_length", "from_word",
             "identity_element", "length_and_word", "longest_element", "min_coset_reps",
             "multiply", "simple_reflection"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME_OF)


def __getattr__(name):
    module = _HOME_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})

