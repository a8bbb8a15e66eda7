"""Network substrate: framing, links, UDP, TCP, and SUN RPC."""

from .frames import (ETHERNET_FRAME_OVERHEAD, ETHERNET_MTU, FramingPlan,
                     plan_tcp_stream, plan_udp_datagram)
from .link import GIGABIT, Link, SERVER_PCI_DMA
from .rpc import (RPC_CALL_HEADER, RPC_MAX_TIMEOUT, RPC_REPLY_HEADER,
                  RpcClient, RpcMessage, RpcServer, RpcTimeout, Transport)
from .tcp import DEFAULT_WINDOW, TcpConnection
from .udp import UdpEndpoint

__all__ = [
    "FramingPlan",
    "plan_udp_datagram",
    "plan_tcp_stream",
    "ETHERNET_MTU",
    "ETHERNET_FRAME_OVERHEAD",
    "Link",
    "GIGABIT",
    "SERVER_PCI_DMA",
    "UdpEndpoint",
    "TcpConnection",
    "DEFAULT_WINDOW",
    "RpcClient",
    "RpcServer",
    "RpcMessage",
    "RpcTimeout",
    "Transport",
    "RPC_CALL_HEADER",
    "RPC_REPLY_HEADER",
    "RPC_MAX_TIMEOUT",
]
