"""Every code object in ``src/kgalign`` is entered by a ``kgalign`` command.

One subprocess installs a ``sys.setprofile`` hook before ``import kgalign``,
so module and class bodies count, then runs ``cli.main`` in-process on the
fixed command list below, at tiny size. The test compiles each source file
and fails on every function, method, lambda or class body that no command
entered. The command list alone decides what is reached; there is no
allow-list, so code that only tests run lives in ``tests/``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kgalign
from kgalign import autodiff as ad
from kgalign import selfcheck

SRC = Path(kgalign.__file__).resolve().parent

# expressions, not functions; from Python 3.12 on (PEP 709) the first three
# are inlined into their function and never entered as frames of their own
_COMPREHENSIONS = {"<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"}

_PROBE = r"""
import json, os, shutil, sys

src, work = sys.argv[1], sys.argv[2]
entered, taped, training = set(), set(), [False]


def profile(frame, event, arg):
    if event != "call" or not frame.f_code.co_filename.startswith(src + os.sep):
        return
    code = frame.f_code
    entered.add((code.co_filename, code.co_firstlineno, code.co_name))
    if training[0] and code.co_name == "_record":
        caller = frame.f_back.f_code
        taped.add(f"{os.path.basename(caller.co_filename)}:{caller.co_name}")


sys.path.insert(0, os.path.dirname(src))
sys.setprofile(profile)
from kgalign import cli

data, bad, run = (os.path.join(work, name) for name in ("data", "bad", "run"))
config = os.path.join(work, "train.json")
with open(config, "w", encoding="utf-8") as fh:
    json.dump({"config": {"semi": True, "margin": 2.5}}, fh)  # one bool and one numeric field

codes = {}


def command(name, *argv, trains=False):
    training[0] = trains
    codes[name] = cli.main(list(argv))
    training[0] = False


command("gen-synth", "gen-synth", "--entities", "40", "--relations", "4",
        "--avg-degree", "3", "--emb-dim", "8", "--seed", "3", "--out", data)
command("train", "train", "--data", data, "--config", config, "--semi", "--eval-every", "1",
        "--epochs", "2", "--neg-refresh", "1", "--d-r", "4", "--d-t", "4", "--out", run,
        trains=True)
command("eval", "eval", "--model", run, "--data", data, "--bidirectional",
        "--out", os.path.join(work, "metrics.tsv"), "--ranks-out", os.path.join(work, "ranks.tsv"))
command("eval --pool all", "eval", "--model", run, "--data", data, "--pool", "all")
command("ablate", "ablate", "--data", data, "--epochs", "1", "--d-r", "4", "--d-t", "4",
        trains=True)
command("check", "check", "--trials", "1")
command("usage error", "train", "--data", data)
shutil.copytree(data, bad)
with open(os.path.join(bad, "triples_1"), encoding="utf-8") as fh:
    first = fh.readline()
with open(os.path.join(bad, "triples_1"), "a", encoding="utf-8") as fh:
    fh.write(first)  # a duplicate triple
command("malformed data", "train", "--data", bad, "--out", os.path.join(work, "bad_run"))

sys.setprofile(None)
with open(os.path.join(work, "probe.json"), "w", encoding="utf-8") as fh:
    json.dump({"codes": codes, "entered": sorted(entered), "taped": sorted(taped)}, fh)
"""

EXPECTED_CODES = {"gen-synth": 0, "train": 0, "eval": 0, "eval --pool all": 0, "ablate": 0,
                  "check": 0, "usage error": 1, "malformed data": 2}


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    work = tmp_path_factory.mktemp("reach")
    done = subprocess.run([sys.executable, "-c", _PROBE, str(SRC), str(work)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads((work / "probe.json").read_text())
    assert result["codes"] == EXPECTED_CODES, done.stderr
    return result


def code_objects(code):
    """``code`` and every code object nested in it, comprehensions left out."""
    if code.co_name not in _COMPREHENSIONS:
        yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from code_objects(const)


def test_code_objects_lists_functions_lambdas_and_class_bodies():
    source = ("class A:\n    def f(self):\n        return [x for x in ()]\n"
              "g = lambda: (y for y in ())\n")
    names = [c.co_name for c in code_objects(compile(source, "m.py", "exec"))]
    assert sorted(names) == ["<lambda>", "<module>", "A", "f"]


def test_every_code_object_in_the_package_is_entered(probe):
    entered = {tuple(key) for key in probe["entered"]}
    missed = []
    for path in sorted(SRC.glob("*.py")):
        for code in code_objects(compile(path.read_text(encoding="utf-8"), str(path), "exec")):
            if (code.co_filename, code.co_firstlineno, code.co_name) not in entered:
                missed.append(f"{path.name}:{code.co_firstlineno} {code.co_name}")
    assert not missed, "no command entered:\n" + "\n".join(missed)


def test_check_has_a_gradient_case_for_each_op_training_records(probe):
    primitives = {name for name, _ in selfcheck.FD_CASES if callable(getattr(ad, name, None))}
    assert set(probe["taped"]) == {f"autodiff.py:{name}" for name in primitives}
