import importlib
import inspect
import pkgutil

import acvseg


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (inspect.isfunction(member) or isinstance(
                        member, (classmethod, staticmethod))):
                    yield "%s.%s" % (name, attr), getattr(obj, attr)


def test_defaulted_parameters_are_the_ones_callers_rely_on():
    # a default stays only when a caller outside the tests uses it
    found = []
    for info in pkgutil.iter_modules(acvseg.__path__):
        module = importlib.import_module("acvseg." + info.name)
        for qualname, fn in _public_callables(module):
            for param in inspect.signature(fn).parameters.values():
                if param.default is not inspect.Parameter.empty:
                    found.append("%s.%s %s" % (info.name, qualname, param.name))
    assert sorted(found) == [
        "cli.main argv",
        "training.load_corpus with_labels",
        "training.train log",
        "training.train start_iter",
    ]
