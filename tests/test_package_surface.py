"""The public surface of ``import schubert_kit``: names, objects and star-import."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import schubert_kit

# home module of every public name, written out so that the check does not
# read the package's own table
HOMES = {
    "errors": (
        "DiagonalNotTwo", "GCMValidationError", "NotHomogeneous",
        "NotHyperbolicOrAffine", "NotInGroup", "NotReduced", "NotSpherical",
        "OddPrimeRequired", "PositiveOffDiagonal", "SchubertKitError",
        "TheoremViolation", "UnderdeterminedSystem", "ZeroAsymmetry", "ZeroElement",
    ),
    "gcm": (
        "GeneralizedCartanMatrix", "Realization", "SphericalPoset", "coxeter_exponent",
        "derived_realization", "gcm_from_dict", "gcm_from_file", "is_finite_type",
        "parse_gcm", "rank_two", "spherical_poset", "standard_realization", "validate_gcm",
    ),
    "poincare": ("PoincareSeries",),
    "polyring": ("GradedPolynomial", "InvariantsReport", "WeightRing"),
    "rings": ("GF", "QQ", "ZZ", "parse_ring"),
    "schubert": (
        "SchubertVector", "TensorVector", "l_functional", "nil_a", "nil_aw",
        "parabolic_basis", "peterson_coproduct",
    ),
    "weyl": (
        "WeylElement", "bruhat_leq", "enumerate_by_length", "from_word",
        "identity_element", "length_and_word", "longest_element", "min_coset_reps",
        "multiply", "simple_reflection",
    ),
}
HOME_OF = {name: module for module, names in HOMES.items() for name in names}


def test_every_public_name_has_a_home():
    assert sorted(schubert_kit.__all__) == sorted(HOME_OF)
    assert len(set(schubert_kit.__all__)) == len(schubert_kit.__all__)


@pytest.mark.parametrize("name", sorted(HOME_OF))
def test_public_name_is_its_home_object(name):
    home = importlib.import_module(f"schubert_kit.{HOME_OF[name]}")
    assert getattr(schubert_kit, name) is getattr(home, name)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from schubert_kit import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(schubert_kit.__all__)
    assert all(namespace[name] is getattr(schubert_kit, name) for name in namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        schubert_kit.no_such_name  # noqa: B018
    assert not hasattr(schubert_kit, "no_such_name")


def test_submodules_import_from_the_package():
    from schubert_kit import ranktwo, selftests

    assert ranktwo is importlib.import_module("schubert_kit.ranktwo")
    assert selftests is importlib.import_module("schubert_kit.selftests")


def test_bare_import_loads_only_errors():
    src = Path(schubert_kit.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import schubert_kit\n"
        "print(sorted(m for m in sys.modules if m.startswith('schubert_kit')))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['schubert_kit', 'schubert_kit.errors']"


def test_library_modules_load_neither_cli_nor_selftests():
    # so a change confined to cli or selftests leaves library imports as they were
    src = Path(schubert_kit.__file__).resolve().parents[1]
    script = (
        "import sys\n"
        f"sys.path.insert(0, {str(src)!r})\n"
        "import schubert_kit.gcm, schubert_kit.polyring, schubert_kit.ranktwo\n"
        "import schubert_kit.rings, schubert_kit.schubert, schubert_kit.weyl\n"
        "print(sorted(m for m in ('schubert_kit.cli', 'schubert_kit.selftests')"
        " if m in sys.modules))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_dir_lists_every_public_name():
    assert set(schubert_kit.__all__) <= set(dir(schubert_kit))
