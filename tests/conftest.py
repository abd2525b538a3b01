'''Session fixtures shared by the test modules.'''

import importlib.util
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

FASTBITS_C = Path(__file__).resolve().parent.parent / 'src' / 'finspec' / '_fastbits.c'


@pytest.fixture(scope='session')
def fast(tmp_path_factory):
    '''The compiled kernel lane, built from the shipped C for this session.

    The module is loaded from a temporary directory and never registered
    in sys.modules, so finspec.kernels keeps the lane it picked at import.
    Skips only when no C compiler is on the path.
    '''
    compiler = shutil.which('gcc') or shutil.which('cc')
    if compiler is None:
        pytest.skip('no C compiler to build the compiled lane')
    target = (tmp_path_factory.mktemp('fastbits')
              / ('_fastbits' + sysconfig.get_config_var('EXT_SUFFIX')))
    built = subprocess.run(
        [compiler, '-O2', '-shared', '-fPIC',
         '-I', sysconfig.get_paths()['include'], str(FASTBITS_C), '-o', str(target)],
        capture_output=True, text=True)
    if built.returncode != 0:
        pytest.fail('compiling %s failed:\n%s' % (FASTBITS_C.name, built.stderr))
    spec = importlib.util.spec_from_file_location('finspec._fastbits', target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
