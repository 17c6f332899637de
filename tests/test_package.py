"""The package namespace: what importing costs, and what every name resolves to.

Each check runs in a fresh interpreter, since what a process has loaded
depends on everything it imported before.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Every public name of the package, by the module that defines it.
PUBLIC = {
    "errors": ["NhmfError"],
    "series": ["NearlyHolomorphicForm"],
    "pi_scalar": ["PiScalar"],
    "operators": [
        "InfinitesimalCharacter", "ScaledForm", "casimir", "casimir_eigenvalue",
        "infinitesimal_character", "iterate_lower", "iterate_raise", "leading_column_factor",
        "lower_analytic", "lower_weight", "raise_analytic", "raise_weight",
    ],
    "generators": [
        "BinaryForm", "bernoulli", "delta_cusp", "eisenstein",
        "eisenstein2", "level1_basis", "theta_series",
    ],
    "decompose": [
        "Decomposition", "Level1Basis", "character_split", "decompose",
    ],
    "laurent": [
        "ConstantTermReport", "LaurentScalar", "Verdict", "archimedean_factor",
        "constant_term_report", "gamma_at", "unramified_intertwining_constant", "zeta_ratio_at",
    ],
    "quadratic": [
        "CharacterDescriptor", "CoherenceResult", "Collection", "LocalInvariant", "Place",
        "QuadSpace2D", "ReducibilityVerdict", "check_coherence", "collection_of",
        "enumerate_definite_spaces", "hilbert_symbol", "is_local_square", "local_invariants",
        "reducibility", "relevant_places", "unramified_eigenvalue",
    ],
    "category_o": [
        "BlockClassification", "CharacterFamily", "DecompositionDescriptor", "ModuleClass",
        "catalog", "classify_block", "composition_factors", "identify_module",
        "integral_parallel_filter",
    ],
}
# The submodules the package exposes as attributes; `decompose` names the function.
SUBMODULES = [
    "arith", "errors", "series", "pi_scalar", "operators", "generators",
    "laurent", "quadratic", "category_o",
]


def run_fresh(code: str, *flags: str, **env: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])), **env}
    proc = subprocess.run([sys.executable, *flags, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_importing_the_package_loads_only_errors():
    out = run_fresh("""
        import sys, nhmf
        print(sorted(name for name in sys.modules if name.split(".")[0] == "nhmf"))
    """)
    assert out == "['nhmf', 'nhmf.errors']\n"


# E4 to q^3, the form file that the commands reading one get on stdin.
E4_DOC = '{"weight": 4, "truncation": 3, "terms": [[0, 0, "1"], [0, 1, "240"], [0, 2, "2160"], [0, 3, "6720"]]}'
CLI = ["arith", "cli", "errors"]
SERIES = [*CLI, "generators", "series"]
OPERATORS = [*CLI, "operators", "series"]
LOCAL = [*CLI, "quadratic"]
CATEGORY_O = [*CLI, "category_o", "decompose", "generators", "laurent", "operators", "pi_scalar", "series"]


# The nhmf modules (less the "nhmf." prefix) that each command of the cold
# mix has loaded once it is done, and its exit status; no argv only imports
# the CLI, which leaves the verify suite, the q-series core and the adelic
# side unloaded.
COMMAND_MODULES = [
    (None, CLI, 0),
    (["eis", "--k", "4", "--trunc", "3"], SERIES, 0),
    (["e2", "--trunc", "3"], SERIES, 0),
    (["theta", "--a", "1", "--b", "0", "--c", "1", "--trunc", "3"], SERIES, 0),
    (["raise"], OPERATORS, 0),
    (["raise", "--analytic"], [*OPERATORS, "pi_scalar"], 0),
    (["lower"], OPERATORS, 0),
    (["lower", "--analytic"], [*OPERATORS, "pi_scalar"], 0),
    (["casimir"], OPERATORS, 0),
    (["decompose"], [*CLI, "decompose", "generators", "operators", "series"], 0),
    (["identify"], CATEGORY_O, 0),
    (["constant-term", "--k", "4"], [*CLI, "laurent", "pi_scalar"], 0),
    (["local", "hilbert", "3", "5", "7"], LOCAL, 0),
    (["local", "invariants", "3", "5"], LOCAL, 0),
    (["local", "coherent", '{"discriminant": "-1", "epsilons": {}}'], LOCAL, 0),
    (["local", "reducible", "--q", "3"], LOCAL, 0),
    (["catalog", "--d", "1", "--k", "4"], [*CLI, "category_o", "laurent", "operators", "pi_scalar", "series"], 0),
    (["frobnicate", "--k", "3"], CLI, 1),
    (["eis", "--k", "4", "--trunc", "-1"], SERIES, 1),
]


@pytest.mark.parametrize(
    "argv, loaded, status", COMMAND_MODULES,
    ids=[" ".join(argv[:2]) + " (refused)" * status if argv else "import" for argv, _, status in COMMAND_MODULES],
)
def test_a_command_loads_only_the_modules_it_calls_and_never_dataclasses(argv, loaded, status):
    # A fresh process that compiles every module it imports, as a cold
    # `nhmf` does, and never argparse or the gettext and locale it pulls in.
    # It runs under -S, so that site has loaded nothing first: typing comes
    # only with operators, for NamedTuple, since every other module writes
    # Optional[X] as X | None, which `from __future__ import annotations`
    # keeps as text.
    out = run_fresh(f"""
        import contextlib, io, sys, nhmf.cli
        sys.stdin = io.StringIO({E4_DOC!r})
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert {argv!r} is None or nhmf.cli.main({argv!r}) == {status}
        print(sorted(name[5:] for name in sys.modules if name.startswith("nhmf.")))
        print(sorted(set(sys.modules) & {{"argparse", "dataclasses", "gettext", "locale"}}), "typing" in sys.modules)
    """, "-S", PYTHONDONTWRITEBYTECODE="1")
    assert out == f"{sorted(loaded)}\n[] {'operators' in loaded}\n"


@pytest.mark.parametrize(
    "load",
    [
        "import nhmf.decompose",
        "import nhmf.verify",
        "from nhmf import decompose",
        "import io, json, contextlib, nhmf.cli\n"
        "sys.stdin = io.StringIO(json.dumps(nhmf.eisenstein(4, 6).to_doc()))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert nhmf.cli.main(['decompose']) == 0",
    ],
    ids=["import-module", "import-verify", "from-import", "cli-decompose"],
)
def test_the_package_attribute_decompose_stays_the_function(load):
    out = run_fresh("import sys, types, nhmf\n" + load + "\n"
                    "import nhmf\n"
                    "print(isinstance(nhmf.decompose, types.FunctionType),\n"
                    "      nhmf.decompose is sys.modules['nhmf.decompose'].decompose)\n")
    assert out == "True True\n"


def test_every_public_name_resolves_to_its_defining_module_attribute():
    assert sum(map(len, PUBLIC.values())) + len(SUBMODULES) == 68
    out = run_fresh(f"""
        import importlib, sys, nhmf
        public, submodules = {PUBLIC!r}, {SUBMODULES!r}
        wrong = []
        for module, names in public.items():
            for name in names:
                if getattr(nhmf, name) is not getattr(importlib.import_module("nhmf." + module), name):
                    wrong.append(name)
        wrong += [m for m in submodules if getattr(nhmf, m) is not sys.modules["nhmf." + m]]
        print(wrong)
    """)
    assert out == "[]\n"


def test_a_lazy_name_loads_its_module_and_binds_all_its_names():
    out = run_fresh("""
        import sys, nhmf
        before = "nhmf.quadratic" in sys.modules
        nhmf.hilbert_symbol
        bound = {"Place", "check_coherence", "relevant_places", "quadratic"} <= set(vars(nhmf))
        print(before, "nhmf.quadratic" in sys.modules, bound, "nhmf.laurent" in sys.modules)
    """)
    assert out == "False True True False\n"


def test_dir_all_and_star_import_name_the_public_names():
    out = run_fresh("""
        import nhmf
        namespace = {}
        exec("from nhmf import *", namespace)
        print(sorted(nhmf.__all__))
        print(sorted(set(namespace) - {"__builtins__"}))
        print(sorted(name for name in dir(nhmf) if not name.startswith("_")))
    """)
    exported = sorted(name for names in PUBLIC.values() for name in names)
    all_names, star, listed = map(eval, out.splitlines())
    assert all_names == star == exported
    assert set(listed) == set(exported) | set(SUBMODULES)


def test_an_unknown_name_is_an_attribute_error():
    out = run_fresh("""
        import nhmf
        try:
            nhmf.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    assert out == "module 'nhmf' has no attribute 'no_such_name'\n"
