"""The one record type: a frozen, slotted dataclass with a faster `__init__`.

A frozen dataclass's own `__init__` stores each field with
`object.__setattr__`, which looks the attribute up by name on every call.
`record` compiles, once per class, an `__init__` that calls each field's
slot descriptor directly.  Everything else (frozen assignment, eq, hash,
repr, `replace`, `fields`) is what `dataclass` generates.  Instances have
no `__dict__`.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, fields


def record(cls: type) -> type:
    """cls as a frozen, slotted dataclass whose __init__ stores each field
    through its slot descriptor."""
    slotted = dataclass(frozen=True, slots=True, init=False)(cls)
    # slots=True makes a new class; closures that still hold the old one (the
    # frozen __setattr__ and __delattr__ on CPython 3.11) get the new one
    for value in vars(slotted).values():
        for cell in getattr(value, "__closure__", None) or ():
            if cell.cell_contents is cls:
                cell.cell_contents = slotted
    env = {"__name__": slotted.__module__}
    params, body = ["self"], []
    for f in fields(slotted):
        name = f.name
        env[f"_set_{name}"] = vars(slotted)[name].__set__
        if f.default is not MISSING:
            env[f"_default_{name}"] = f.default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        body.append(f"    _set_{name}(self, {name})\n")
    if hasattr(slotted, "__post_init__"):
        body.append("    self.__post_init__()\n")
    exec(f"def __init__({', '.join(params)}):\n{''.join(body)}", env)
    init = env["__init__"]
    init.__qualname__ = f"{slotted.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in fields(slotted)} | {"return": None}
    slotted.__init__ = init
    return slotted
