"""No scipy at run time: relaxkit's CLI loads no scipy module, whatever it evaluates or fits."""

import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# every eval quantity for every law, synth and fit (single and --auto) in both domains, and
# verify all, in one process; the exit codes do not matter here (kww has no spectrum, say),
# only that each command ran and no scipy module was loaded on the way
SCRIPT = textwrap.dedent(
    """
    import contextlib, io, os, sys, tempfile

    import relaxkit.cli as cli
    from relaxkit.models import KINDS

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(list(argv))

    shape = {"debye": [], "cc": ["--alpha", "0.6"], "cd": ["--beta", "0.4"],
             "mcd": ["--beta", "0.4"], "hn": ["--alpha", "0.6", "--beta", "0.5"],
             "jws": ["--alpha", "0.6", "--beta", "0.5"], "kww": ["--alpha", "0.6"]}
    assert set(shape) == set(KINDS)
    for quantity in cli.QUANTITIES:
        for kind in KINDS:
            run("eval", quantity, "--model", kind, *shape[kind], "--grid", "0.001:1e6:12")
    with tempfile.TemporaryDirectory() as tmp:
        for domain, kind in (("frequency", "cd"), ("time", "cd"), ("time", "mcd")):
            path = os.path.join(tmp, f"{kind}-{domain}.csv")
            run("synth", "--model", kind, *shape[kind], "--domain", domain,
                "--grid", "0.001:1000:30", "--noise", "1e-3", "--output", path)
            run("fit", path, "--domain", domain, "--model", kind)
            run("fit", path, "--domain", domain, "--auto")
    run("verify", "all")
    print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
    """
)


def test_no_scipy_module_after_every_subcommand():
    run = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=True,
    )
    assert run.stdout.splitlines()[-1] == "[]"
