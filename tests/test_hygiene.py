"""Every top-level name, method and property in src/leafnet is used by
src/leafnet.

A function, class, constant or method that nothing in the package
references is dead code kept alive only by its tests; it is deleted, not
kept. The few exceptions below are public entry points the acceptance
criteria call.
The package also imports nothing beyond the standard library and numpy,
save pillow inside the JPEG decoder; only tensor.halves reads the split
gate SPLIT_MIN, and only tensor.blockwise the block size BLOCK; and every
function the benchmark's tracer wraps still exists under its name.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "leafnet"

# (module, name or Class.method) -> why it stays without a caller in src/
ALLOWED = {
    ("layers", "lstm_cell_step"): "the single-step LSTM API acceptance criterion 3 "
                                  "checks against finite differences",
    ("layers", "lstm_cell_backward"): "the single-step LSTM API acceptance criterion 3 "
                                      "checks against finite differences",
    ("data", "synth_dataset"): "the synthetic fixture acceptance criterion 6 trains on",
    ("metrics", "aggregates"): "acceptance criterion 7 checks the macro and weighted "
                               "averages through it",
}


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _defined(tree: ast.Module) -> list[str]:
    """Top-level functions, classes and assigned constants."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("__")]


def _methods(tree: ast.Module) -> list[str]:
    """`Class.method` for each method and property of the module's classes,
    dunder methods aside."""
    return [f"{cls.name}.{node.name}" for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _attributes(trees: dict[str, ast.Module]) -> set[str]:
    """Every attribute name the package references as `obj.name`."""
    return {node.attr for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)}


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _references(module: str, trees: dict[str, ast.Module]) -> set[str]:
    """Names of `module` used anywhere in the package: bare names inside it,
    `alias.name` where alias is bound to it by `from . import module as
    alias`, and names imported from it with `from .module import name`."""
    used = set()
    for name, tree in trees.items():
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module == module:
                    used |= {a.name for a in node.names}
                elif node.module is None:
                    aliases |= {a.asname or a.name for a in node.names if a.name == module}
        for node in ast.walk(tree):
            if name == module and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                used.add(node.attr)
    return used


def test_every_top_level_name_is_used_in_src():
    """Methods and properties count as used when any attribute of that name
    is referenced anywhere in the package."""
    trees = _trees()
    exported = set().union(*(_exported(t) for t in trees.values()))
    attributes = _attributes(trees)
    unused = []
    for module, tree in trees.items():
        used = _references(module, trees)
        unused += [f"{module}.{name}" for name in _defined(tree)
                   if name not in used and name not in exported
                   and (module, name) not in ALLOWED]
        unused += [f"{module}.{name}" for name in _methods(tree)
                   if name.split(".")[1] not in attributes and (module, name) not in ALLOWED]
    assert not unused, f"no caller in src/leafnet (delete them): {unused}"


def test_allowlist_names_exist_and_are_unused():
    """An exception that gains a caller or disappears leaves the list."""
    trees = _trees()
    attributes = _attributes(trees)
    for module, name in ALLOWED:
        if "." in name:
            assert name in _methods(trees[module]), f"{module}.{name} is gone"
            assert name.split(".")[1] not in attributes, f"{module}.{name} has a caller now"
        else:
            assert name in _defined(trees[module]), f"{module}.{name} is gone"
            assert name not in _references(module, trees), f"{module}.{name} has a caller now"


@pytest.mark.parametrize("constant, reader", [("SPLIT_MIN", "tensor.halves"),
                                               ("BLOCK", "tensor.blockwise")])
def test_only_one_function_reads(constant, reader):
    """Whether a call is large enough to split is decided in one place:
    callers declare their multiply-adds to tensor.halves, and no other code,
    in tensor.py or elsewhere, reads SPLIT_MIN (comments aside). Likewise
    tensor.blockwise alone cuts arrays into BLOCK-element blocks."""
    readers = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner.split('.')[0]}.{node.name}"
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id == constant
                or isinstance(node, ast.Attribute) and node.attr == constant):
            readers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for module, tree in _trees().items():
        visit(tree, module)
    assert readers == {reader}, readers


def test_numpy_is_the_only_hard_dependency():
    """Every import is standard library, numpy or the package's own, except
    pillow, the optional JPEG decoder, which is imported inside a function."""
    hard = []
    for module, tree in _trees().items():
        in_function = {id(node) for fn in ast.walk(tree)
                       if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                       for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                lazy_pillow = top == "PIL" and id(node) in in_function
                if not (top in sys.stdlib_module_names or top == "numpy" or lazy_pillow):
                    hard.append(f"{module}: {name}")
    assert not hard, f"imports beyond the standard library and numpy: {hard}"


def _benchmark_spans():
    """perfbench/spans.py, loaded read-only from its file, and the leafnet
    modules its tracer wraps, by short name."""
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans, {mod: importlib.import_module(f"leafnet.{mod}") for mod, _ in spans.TARGETS}


def test_benchmark_tracer_installs_and_restores_every_target():
    """perfbench/spans.py wraps package functions by module attribute. A
    target renamed or removed fails its install() here, in Tier-1, instead
    of only in a traced benchmark run; remove() must put every attribute
    back, the dataset's `batches` included."""
    spans, modules = _benchmark_spans()
    before = {(mod, attr): getattr(modules[mod], attr, None) for mod, attr in spans.TARGETS}
    dataset = modules["data"].synth_dataset(2, 1, seed=0, size=4)
    tracer = spans.Tracer(modules, dataset)
    try:
        tracer.install()
        unwrapped = [f"{mod}.{attr}" for (mod, attr), fn in before.items()
                     if fn is not None and getattr(modules[mod], attr) is fn]
        assert not unwrapped, f"install() left these unwrapped: {unwrapped}"
    finally:
        tracer.remove()
    changed = [f"{mod}.{attr}" for (mod, attr), fn in before.items()
               if getattr(modules[mod], attr, None) is not fn]
    assert not changed, f"remove() did not restore: {changed}"
    assert "batches" not in vars(dataset)


def test_benchmark_tracer_attributes_a_training_step(monkeypatch):
    """One seeded training step of a reduced CNN and its validation, traced
    by the benchmark's tracer with every split forced on: no TraceError,
    every model pass attributes one call to each of its layers, in order,
    and tensor.relu, tensor.softmax and tensor.relu_backward see calls from
    the dense layer functions and from nowhere else. A change that bypasses
    a layer wrapper, drops the last caller of a wrapped function or applies
    an activation outside its layer fails here, not only in a traced
    benchmark run."""
    spans, modules = _benchmark_spans()
    M, TR, T = modules["models"], modules["training"], modules["tensor"]
    cfg = M.CnnConfig(input_size=14, channels=3, filters=(4, 6), dense_units=5,
                      classes=3, conv_dropout=0.25, dense_dropout=0.25)
    model = M.build_cnn(cfg, seed=1)
    dataset = modules["data"].synth_dataset(3, 2, seed=5, size=14)
    monkeypatch.setattr(T, "SPLIT_MIN", 0)
    tracer = spans.Tracer(modules, dataset)
    tracer.install()
    try:
        TR.train(model, dataset, dataset, TR.TrainConfig(epochs=1, batch_size=6, seed=4))
    finally:
        tracer.remove()
    names = [layer.name for layer in model.spec.layers]
    passes = {i: s[spans.NAME] for i, s in enumerate(tracer.spans)
              if s[spans.NAME] in ("models._forward", "models.backward")}
    layers = {i: [] for i in passes}
    for s in tracer.spans:
        if s[spans.LAYER] is not None:
            layers[s[spans.PARENT]].append(s[spans.LAYER])
    # two train micro-batches, each forward and backward; two validation forwards
    assert sorted(passes.values()) == ["models._forward"] * 4 + ["models.backward"] * 2
    for i, name in passes.items():
        assert layers[i] == (names if name == "models._forward" else names[::-1]), name
    # the dense layers apply their own activations: no other caller may return
    owner = {"tensor.relu": "layers.dense_forward", "tensor.softmax": "layers.dense_forward",
             "tensor.relu_backward": "layers.dense_backward"}
    parents = {name: {tracer.spans[s[spans.PARENT]][spans.NAME] for s in tracer.spans
                      if s[spans.NAME] == name} for name in owner}
    assert parents == {name: {layer} for name, layer in owner.items()}
