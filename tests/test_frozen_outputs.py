"""Frozen CLI outputs over fixed generated instances.

One sha256 covers the exit code and stdout bytes of in-process `cli.run`
for `decide --json` and `clone --json`, each under both constant
readings, on fixed arbitrary and typed instances. Verdicts,
certificates, op numbering, witnesses and flags all feed it, so a
refactor that keeps every output byte-identical keeps the digest, and
one that changes any output moves it. A deliberate output change
records the new digest together with a CHANGES.md line naming the change.
"""
import contextlib
import hashlib
import io

from pargoids import cli, pargoid
from pargoids.generators import GenConfig, gen_arbitrary, gen_typed

ARB_BUDGET = 1024

FROZEN_DIGEST = "723966b5e71301a34640236ea7891f92ab1902c97bf78887451484f4a4fcd14a"


def _arbitrary_configs():
    return [GenConfig(size=2 + k % 6, seed=50_000 + k, mode="arbitrary",
                      density=(0.1, 0.3, 0.6)[k % 3])
            for k in range(150)]


def _typed_configs():
    return [GenConfig(size=3 + k % 7, seed=60_000 + k,
                      mode=("typed_strong", "typed_literal")[k % 2],
                      type_depth=1 + k % 3, ground_count=1 + k % 2)
            for k in range(100)]


def _cli_bytes(argv):
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
        stdout.flush()
    return code, stdout.buffer.getvalue()


def _instances(tmp_path):
    """(path, extra CLI flags) per instance; typed ones use the default budget."""
    out = []
    for k, cfg in enumerate(_arbitrary_configs()):
        path = tmp_path / f"arbitrary-{k}.pgd"
        path.write_bytes(pargoid.serialize(gen_arbitrary(cfg)))
        out.append((path, ["--budget", str(ARB_BUDGET)]))
    for k, cfg in enumerate(_typed_configs()):
        path = tmp_path / f"typed-{k}.pgd"
        path.write_bytes(pargoid.serialize(gen_typed(cfg)[0]))
        out.append((path, []))
    return out


def test_frozen_cli_outputs(tmp_path):
    h = hashlib.sha256()
    for path, flags in _instances(tmp_path):
        for command in ("decide", "clone"):
            for reading in ("total", "on-domain"):
                argv = [command, str(path), "--json",
                        "--constant-reading", reading] + flags
                code, out = _cli_bytes(argv)
                h.update(f"{path.name} {command} {reading} {code}\n".encode())
                h.update(out)
    assert h.hexdigest() == FROZEN_DIGEST
