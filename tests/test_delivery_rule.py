"""The string dispatch of requests and directives cannot silently miss.

A request of kind ``k`` runs its receiver's ``serve_k``, and every payload
runs what its own ``deliver`` names. These checks parse ``src/overchain/``
with ``ast``: every kind literal passed to ``send_request`` or ``cloud_call``
has a ``def serve_<kind>`` somewhere in the package, every payload dataclass
in ``messages.py`` defines ``deliver``, and only ``BaseActor`` defines
``handle``, the one place a delivery starts. A scripted directive ``a`` runs
``ScenarioDriver._do_a``, so the directives the config reader accepts and
the driver's methods must be the same names.
"""
import ast
from pathlib import Path

import pytest

import overchain
from overchain.config import _DIRECTIVES, _ROLES
from overchain.messages import BaseActor
from overchain.simnet import Engine, LinkModel
from overchain.world import ScenarioDriver

PACKAGE = Path(overchain.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
KIND_ARG = {"send_request": 2, "cloud_call": 2}  # position of ``kind`` after self


def requested_kinds(source: str) -> list[str]:
    """Kind literals of ``send_request`` and ``cloud_call`` calls, in order."""
    kinds = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in KIND_ARG):
            continue
        args = dict(enumerate(node.args))
        args.update((KIND_ARG[node.func.attr], kw.value)
                    for kw in node.keywords if kw.arg == "kind")
        kind = args.get(KIND_ARG[node.func.attr])
        if isinstance(kind, ast.Constant) and isinstance(kind.value, str):
            kinds.append(kind.value)
    return kinds


def defined_methods(source: str) -> dict[str, set[str]]:
    """Class name -> the names of the methods it defines."""
    return {node.name: {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
            for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)}


def dataclass_names(source: str) -> list[str]:
    def is_dataclass(decorator):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(target, ast.Name) and target.id == "dataclass"

    return [node.name for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and any(map(is_dataclass, node.decorator_list))]


def package_methods() -> dict[str, set[str]]:
    methods: dict[str, set[str]] = {}
    for path in MODULES:
        for cls, names in defined_methods(path.read_text()).items():
            methods.setdefault(cls, set()).update(names)
    return methods


def test_scanner_finds_kinds_by_position_and_keyword():
    source = ("def f(self, engine):\n"
              "    self.send_request(engine, 'cloud', 'cloud_auth', {}, then)\n"
              "    self.cloud_call(engine, acct, 'cloud_get', {}, then)\n"
              "    self.cloud_call(engine, acct, kind='cloud_put', data={}, then=t)\n"
              "    self.send_request(engine, 'cloud', kind, {}, then)\n")
    assert requested_kinds(source) == ["cloud_auth", "cloud_get", "cloud_put"]


def test_every_requested_kind_has_a_server():
    kinds = {kind for path in MODULES for kind in requested_kinds(path.read_text())}
    served = {name[len("serve_"):] for names in package_methods().values()
              for name in names if name.startswith("serve_")}
    assert len(kinds) >= 10  # the scan sees the package's requests at all
    assert sorted(kinds - served) == []


def test_every_directive_has_a_driver_method():
    actions = {name[len("_do_"):] for name in vars(ScenarioDriver) if name.startswith("_do_")}
    assert len(actions) == 9  # the scan sees the driver's methods at all
    assert sorted(_DIRECTIVES) == sorted(actions)
    assert set(_ROLES) <= actions


def test_every_payload_says_what_its_delivery_runs():
    source = (PACKAGE / "messages.py").read_text()
    payloads = dataclass_names(source)
    assert payloads == ["TxMessage", "BlockMessage", "DeliverTx", "UpdateNotice",
                        "Timer", "AppRequest", "AppResponse"]
    methods = defined_methods(source)
    assert [name for name in payloads if "deliver" not in methods[name]] == []


def test_only_base_actor_defines_handle():
    assert [cls for cls, names in package_methods().items() if "handle" in names] \
        == ["BaseActor"]


def test_request_without_a_server_raises_naming_node_and_kind():
    engine = Engine(1, LinkModel(default_delay=1.0))
    client, server = BaseActor("client"), BaseActor("server")
    engine.add_node(client), engine.add_node(server)
    client.send_request(engine, "server", "ping", {}, lambda eng, data: None)
    with pytest.raises(NotImplementedError, match="^server cannot serve 'ping'$"):
        engine.run()
