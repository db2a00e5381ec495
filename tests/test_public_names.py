"""Every public library name has a caller in the program, or is a reference kept on purpose."""

import ast
import importlib
import inspect
from pathlib import Path

import photonmix

#: The program's modules; ``__init__`` holds only the package version.
MODULES = [path for path in Path(photonmix.__file__).parent.glob("*.py") if path.name != "__init__.py"]

#: Public names that no module of the program uses, each kept for a stated reason.
REFERENCES = {
    "g2_from_probs",  # closed form that SourceParams.from_moments is tested against
    "loss_degraded_probs",  # closed form that the oracle's source loss is tested against
    "overlap_from_visibility",  # the per-point overlap of a sweep, applied to y and to y_err
    "PowerCalibration",  # the LO calibration, pinned by test_calibration_arithmetic
    "calibrate_mu_alpha",
    "pulsed_coherent_tags",  # tag generators: the inputs of the tag pipeline's closure tests
    "displaced_fock_tags",
}


def uses(source: str) -> set[str]:
    """Names a module reads: not its imports, its annotations, nor a definition naming itself."""
    tree = ast.parse(source)
    for node in ast.walk(tree):  # an annotation names a type, it does not use it
        if isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
        elif isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)
    used = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            continue
        own = getattr(stmt, "name", None)
        for node in ast.walk(stmt):
            if isinstance(getattr(node, "ctx", None), ast.Load):  # a Name or an attribute, read
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    used.add(name)
    return used


def public_names() -> set[str]:
    """The public functions and classes defined in every module of ``photonmix``."""
    modules = [importlib.import_module(f"photonmix.{path.stem}") for path in MODULES]
    return {
        name
        for module in modules
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }


class TestEveryNameHasACaller:
    def program_uses(self) -> set[str]:
        return set().union(*(uses(path.read_text()) for path in MODULES))

    def test_every_public_name_is_used_or_a_reference(self):
        assert public_names() - self.program_uses() - REFERENCES == set()

    def test_no_reference_is_used(self):
        # a reference that gains a caller leaves the list
        assert REFERENCES & self.program_uses() == set()
        assert REFERENCES <= public_names()

    def test_only_uses_count(self):
        source = (
            "from .m import imported\n"
            "def f(x: Annotated) -> Returned:\n    return f(called(x))\n"
            "class C:\n    field: Annotated = default\n"
        )
        assert uses(source) == {"called", "x", "default"}
