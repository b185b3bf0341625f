"""Payload types delivered through the simulated network, plus a small
request/response helper shared by all actors.

Each payload says what its delivery runs: ``payload.deliver(node, engine)``
calls one method of the receiving node, so an actor needs no dispatch of its
own. A ``TxMessage`` runs ``receive_transaction``, a ``BlockMessage``
``on_block``, a ``DeliverTx`` ``on_delivered`` and an ``UpdateNotice``
``handle_update_notification``. A ``Timer`` runs the action it carries and
an ``AppResponse`` the continuation its request carried. An ``AppRequest``
of kind ``k`` runs the node's ``serve_k(engine, request)``, whose returned
dict is the reply (None means the handler replies later itself).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .config import CLOUD_ID
from .ledger import Block, Transaction


@dataclass(frozen=True)
class TxMessage:
    """A transaction in flight to a block manager. ``origin_member`` is the
    submitting cluster member's id, or None when relayed by a peer manager."""

    tx: Transaction
    origin_member: Optional[str]

    def deliver(self, node, engine) -> None:
        node.receive_transaction(engine, self.tx, self.origin_member)


@dataclass(frozen=True)
class BlockMessage:
    block: Block

    def deliver(self, node, engine) -> None:
        node.on_block(engine, self.block)


@dataclass(frozen=True)
class DeliverTx:
    """Manager-to-member delivery of a transaction whose key pair matched one
    of the member's access entries. For a pending multisig this doubles as the
    countersign request."""

    tx: Transaction

    def deliver(self, node, engine) -> None:
        node.on_delivered(engine, self.tx)


@dataclass(frozen=True)
class UpdateNotice:
    """Manager-to-member announcement of a fully signed software update."""

    tx: Transaction

    def deliver(self, node, engine) -> None:
        node.handle_update_notification(engine, self.tx)


@dataclass(frozen=True)
class Timer:
    """A local timer; on delivery its node runs ``action(engine, *args)``."""

    action: Callable
    args: tuple = ()

    def deliver(self, node, engine) -> None:
        self.action(engine, *self.args)


@dataclass(frozen=True)
class AppRequest:
    """A request; the reply carries ``then``, the sender's continuation, back."""

    sender: str
    kind: str
    data: dict
    then: Callable

    def deliver(self, node, engine) -> None:
        serve = getattr(node, f"serve_{self.kind}", None)
        if serve is None:
            raise NotImplementedError(f"{node.node_id} cannot serve {self.kind!r}")
        reply = serve(engine, self)
        if reply is not None:
            node.reply(engine, self, reply)


@dataclass(frozen=True)
class AppResponse:
    """A reply; on delivery its node runs ``then(engine, data)``."""

    data: dict
    then: Callable

    def deliver(self, node, engine) -> None:
        self.then(engine, self.data)


class BaseActor:
    """Shared actor behavior: delivery, request/response, transaction
    submission and cloud calls.

    ``handle`` only delivers the payload, which runs the method the payload
    names (see the module docstring). A request of kind ``k`` is served by a
    ``serve_k`` method; a node without one raises ``NotImplementedError``.
    """

    def __init__(self, node_id: str):
        self.node_id = node_id

    def handle(self, engine, payload) -> None:
        payload.deliver(self, engine)

    def send_request(self, engine, target: str, kind: str, data: dict,
                     then: Callable) -> None:
        engine.send(self.node_id, target, AppRequest(self.node_id, kind, data, then))

    def reply(self, engine, request: AppRequest, data: dict) -> None:
        engine.send(self.node_id, request.sender, AppResponse(data, request.then))

    def submit(self, engine, tx: Transaction) -> None:
        """Send a cluster member's transaction to its manager, ``self.obm_id``."""
        engine.send(self.node_id, self.obm_id, TxMessage(tx, origin_member=self.node_id))

    def cloud_call(self, engine, account, kind: str, data: dict, then: Callable) -> None:
        """Challenge-response authentication with the cloud store followed by
        one storage operation; ``then`` receives the final response dict
        (carrying "error" on any failure, including the authentication steps)."""
        account_id, account_key = account

        def on_nonce(eng, resp):
            if "error" in resp:
                then(eng, resp)
                return
            nonce = resp["nonce"]
            self.send_request(eng, CLOUD_ID, "cloud_proof",
                              {"account": account_id, "nonce": nonce,
                               "proof": account_key.sign(nonce)},
                              on_session)

        def on_session(eng, resp):
            if "error" in resp:
                then(eng, resp)
                return
            self.send_request(eng, CLOUD_ID, kind,
                              dict(data, session=resp["session"]), then)

        self.send_request(engine, CLOUD_ID, "cloud_auth",
                          {"account": account_id}, on_nonce)
