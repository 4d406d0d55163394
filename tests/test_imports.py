"""`import darbouxops` loads only the standard library and the package.

This pins the README's "pure standard library" claim and keeps the import
path short: every benchmark process pays for it at start-up.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

# -S skips `site`, so the modules that .pth files of the installation load
# at interpreter start are not counted; a third-party import then fails.
_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import darbouxops; "
    "print('\\n'.join(sorted(m for m in sys.modules if m != '__main__')))"
)


def test_import_loads_only_the_standard_library():
    proc = subprocess.run([sys.executable, "-S", "-c", _PROBE, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "darbouxops.lie" in loaded
    tops = {m.split(".")[0] for m in loaded}
    assert sorted(tops - set(sys.stdlib_module_names) - {"darbouxops"}) == []
