"""Operation model: every traced action in a simulated run is an ``OpEvent``.

This is the shared vocabulary between the runtime substrate (which emits
operations), the tracer (which records them — paper Table 2), the HB
analysis (which turns them into graph vertices) and the trigger module
(which gates them).

Operations carry:

* a ``kind`` — one of the paper's HB-related operation types, a memory
  access, or a lock operation;
* an ``obj_id`` — the grouping id (thread tid, event id, RPC tag, message
  tag, (znode path, version), memory location, lock id) that lets the
  analyzer pair related records (paper Section 3.1.2);
* a global sequence number ``seq`` — the position in the executed total
  order (the scheduler serializes everything, so this is well defined and
  every HB edge points forward in ``seq``);
* the emitting node / thread / segment, and the application call stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional, Tuple

from repro.ids import CallStack, Site


class OpKind(Enum):
    # Thread rules (T-fork / T-join)
    THREAD_CREATE = "thread_create"
    THREAD_BEGIN = "thread_begin"
    THREAD_END = "thread_end"
    THREAD_JOIN = "thread_join"
    # Event rules (E-enq / E-serial)
    EVENT_CREATE = "event_create"
    EVENT_BEGIN = "event_begin"
    EVENT_END = "event_end"
    # RPC rule (M-rpc)
    RPC_CREATE = "rpc_create"
    RPC_BEGIN = "rpc_begin"
    RPC_END = "rpc_end"
    RPC_JOIN = "rpc_join"
    # Socket rule (M-soc)
    SOCK_SEND = "sock_send"
    SOCK_RECV = "sock_recv"
    # Coordination-service rule (M-push)
    ZK_UPDATE = "zk_update"
    ZK_PUSHED = "zk_pushed"
    # Memory accesses
    MEM_READ = "mem_read"
    MEM_WRITE = "mem_write"
    # Lock operations (not HB edges; used by the trigger module)
    LOCK_ACQUIRE = "lock_acquire"
    LOCK_RELEASE = "lock_release"

    # Members are singletons compared by identity; the identity hash is
    # a C slot, where Enum's default hashes the member name in Python on
    # every dict or set lookup of a kind.
    __hash__ = object.__hash__


#: Kinds that contribute happens-before edges (everything but memory/locks).
HB_KINDS = frozenset(
    k
    for k in OpKind
    if k
    not in (OpKind.MEM_READ, OpKind.MEM_WRITE, OpKind.LOCK_ACQUIRE, OpKind.LOCK_RELEASE)
)

MEM_KINDS = frozenset((OpKind.MEM_READ, OpKind.MEM_WRITE))
LOCK_KINDS = frozenset((OpKind.LOCK_ACQUIRE, OpKind.LOCK_RELEASE))

#: A memory location: (heap object uid, field).  Keyed containers use the
#: key as field; structural reads/writes use the synthetic field "#struct".
Location = Tuple[int, str]


@dataclass
class OpEvent:
    """One dynamic operation, in executed order."""

    seq: int
    kind: OpKind
    obj_id: Any
    node: str
    tid: int
    thread_name: str
    segment: int
    callstack: CallStack
    location: Optional[Location] = None
    observed_write: Optional[int] = None  # seq of the write a read saw
    in_handler: bool = False  # inside an event/RPC/message handler body
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def is_write(self) -> bool:
        return self.kind is OpKind.MEM_WRITE

    @property
    def is_mem(self) -> bool:
        return self.kind in MEM_KINDS

    @property
    def site(self) -> Optional[Site]:
        return self.callstack.site

    def __repr__(self) -> str:
        loc = f" loc={self.location}" if self.location else ""
        return (
            f"<Op {self.seq} {self.kind.value} {self.obj_id!r} "
            f"{self.node}/{self.thread_name}{loc}>"
        )


class Interceptor:
    """Hook interface for observing/gating operations.

    ``before`` runs before the operation takes effect and may block the
    current simulated thread (the trigger module's request API).
    ``after`` runs once the operation has executed with its final record
    (the tracer's append).  ``on_node_crash`` fires when a node is
    marked crashed (fault injection): the tracer uses it to abandon the
    node's durable trace streams mid-write, the way a real crash would.
    """

    def before(self, event: OpEvent) -> None:  # pragma: no cover - default
        pass

    def after(self, event: OpEvent) -> None:  # pragma: no cover - default
        pass

    def on_node_crash(self, node: "object") -> None:  # pragma: no cover
        pass
