"""The lazy package namespace: public names and submodules resolve on first access."""

import importlib
import os
import subprocess
import sys

import pytest

import xxchain

# the public surface, by the submodule that defines each name, in the order of __all__
PUBLIC = {
    "greens": "INFINITE LatticeSpec g0",
    "exact": "CorrelatorSample LogProduct Route correlator correlator_det log_r_table r_det r_value",
    "ed": "ed_correlator ed_ground_state ed_spectral_gap spin_sector",
    "special": "bernoulli_numbers polygamma zeta_em zeta_odd",
    "amplitude": "ConstantsReport amplitude_report asymptotic_params first_term_comparison glaisher "
                 "log_r_barnes log_r_gamma_product log_r_series lukyanov_integral",
    "asymptotics": "AsymptoticParams LuttingerParams asym_finite asym_infinite finite_size_energy "
                   "luttinger_from_lambda",
    "errors": "DomainError SizeError",
}
NAMES = [(module, name) for module, names in PUBLIC.items() for name in names.split()]


def test_all_is_the_public_surface():
    assert xxchain.__all__ == ["__version__", *(name for _, name in NAMES)]


def test_public_names_are_their_submodule_objects():
    wrong = [name for module, name in NAMES
             if getattr(xxchain, name) is not getattr(importlib.import_module(f"xxchain.{module}"), name)]
    assert wrong == []


def test_star_import_and_dir_list_every_public_name():
    namespace = {}
    exec("from xxchain import *", namespace)
    assert set(xxchain.__all__) <= set(namespace)
    assert set(xxchain.__all__) | set(PUBLIC) <= set(dir(xxchain))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        xxchain.no_such_name
    with pytest.raises(ImportError):
        from xxchain import no_such_name  # noqa: F401


def test_submodules_resolve_as_attributes_in_a_fresh_interpreter():
    src = os.path.dirname(os.path.dirname(xxchain.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import sys, xxchain; loaded = 'xxchain.ed' in sys.modules; "
             "print(loaded, xxchain.ed.MAX_ED_LENGTH, xxchain.exact.correlator_sweep.__name__)")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.stdout.split() == ["False", str(xxchain.ed.MAX_ED_LENGTH), "correlator_sweep"], done.stderr
