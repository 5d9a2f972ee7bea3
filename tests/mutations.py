"""Mutation checks: install a copy of one function with a piece of its
source text replaced, so a test can show that an oracle rejects it."""

import inspect
import textwrap


def patch_source(monkeypatch, module, path, old, new):
    """Install a copy of `module`'s function (or Class.method) `path` with
    the text `old` of its source, which must occur once, replaced by `new`."""
    *classes, name = path.split(".")
    owner = module
    for cls in classes:
        owner = getattr(owner, cls)
    source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
    assert source.count(old) == 1, path
    namespace = dict(vars(module))
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    monkeypatch.setattr(owner, name, namespace[name])
