"""The client session every harness and the fleet exercise a bundled
application with; they differ only in start times and the details passed
to :func:`open_session`."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..net.ftpclient import browse_script
from ..net.httpclient import HttpConnectionClient
from ..net.loadgen import ScriptedSession
from ..net.popclient import stat_script
from ..net.smtpclient import send_mail_script
from .javaemail.versions import POP3_PORT
from .registry import APPS

if TYPE_CHECKING:  # pragma: no cover
    from ..vm.vm import VM


def open_session(
    vm: "VM",
    app: str,
    index: int,
    at_ms: float,
    text: str = "ping",
    num_requests: int = 3,
    timeout_ms: Optional[float] = None,
    name: str = "",
):
    """Open client session ``index`` of ``app`` on ``vm`` at ``at_ms``: a
    keep-alive connection making ``num_requests`` GETs on Jetty, an FTP
    browse on CrossFTP, and on JavaEmailServer by ``index`` parity a mail
    with body ``text`` (even) or a check of its recipient's mailbox (odd).
    ``timeout_ms=None`` keeps the client class's default; ``name`` labels
    scripted sessions ``<name>-<protocol>-<index>``."""
    port = APPS[app].port
    kwargs = {} if timeout_ms is None else {"timeout_ms": timeout_ms}
    if app == "jetty":
        return HttpConnectionClient(
            vm, port, "/file.bin", num_requests, **kwargs
        ).start(at_ms)
    if app == "javaemail" and index % 2 == 0:
        protocol, script = "smtp", send_mail_script(
            "bob@example.org", "alice@example.org", [text]
        )
    elif app == "javaemail":
        protocol, port, script = "pop3", POP3_PORT, stat_script("alice", "apass")
    else:
        protocol, script = "ftp", browse_script()
    return ScriptedSession(
        vm, port, script,
        name=f"{name}-{protocol}-{index}" if name else "", **kwargs,
    ).start(at_ms)
