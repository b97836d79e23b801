import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from gecedit.lexicon import default_tagset_path, load_lexicon, load_patterns
from gecedit.tags import load_tagset

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def lexicon():
    return load_lexicon()


@pytest.fixture(scope="session")
def patterns():
    return load_patterns()


@pytest.fixture(scope="session")
def default_tagset():
    return load_tagset(default_tagset_path())


@pytest.fixture(scope="session")
def c_align_ops(tmp_path_factory):
    """``align_ops`` of the C kernel, built from this checkout into a temporary
    directory and loaded from there.

    Nothing is written into ``src/``, so ``gecedit.alignment`` keeps the
    backend it was installed with.  The build adds ``-Wall -Wextra -Werror``,
    so a warning in the C file fails the tests; installs stay lenient.  Skips
    only when no C compiler or no ``Python.h`` exists; a build that yields no
    module is an error.
    """
    cc = sysconfig.get_config_var("CC")
    if not cc or shutil.which(shlex.split(cc)[0]) is None:
        pytest.skip(f"no C compiler: sysconfig CC is {cc!r}")
    header = Path(sysconfig.get_paths()["include"], "Python.h")
    if not header.is_file():
        pytest.skip(f"no {header}")
    out = tmp_path_factory.mktemp("align_fast")
    env = {**os.environ, "CFLAGS": f"{os.environ.get('CFLAGS', '')} -Wall -Wextra -Werror"}
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--build-lib", str(out), "--build-temp", str(out / "temp")],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    built = list(out.glob("gecedit/_align_fast*" + sysconfig.get_config_var("EXT_SUFFIX")))
    if not built:
        pytest.fail(f"building _align_fast.c yielded no module:\n{proc.stdout}\n{proc.stderr}", pytrace=False)
    spec = importlib.util.spec_from_file_location("gecedit._align_fast", built[0])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.align_ops
