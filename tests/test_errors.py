"""Every concrete error class is raised somewhere in the package."""

import inspect
import re
from pathlib import Path

from jumpsl import errors

SRC = Path(errors.__file__).resolve().parent
BASES = {"JumpSLError", "ValidationError", "NumericalError"}


def test_every_error_class_is_constructed():
    names = [name for name, cls in inspect.getmembers(errors, inspect.isclass)
             if issubclass(cls, errors.JumpSLError) and name not in BASES]
    assert names
    text = "\n".join(p.read_text() for p in sorted(SRC.glob("*.py"))
                     if p.name != "errors.py")
    dead = [n for n in names if not re.search(rf"\b{n}\(", text)]
    assert dead == []
