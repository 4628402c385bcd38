"""Packet-level substrate: Ethernet/IPv4/TCP/UDP build+parse, checksums,
flow keys, and the libpcap file format."""

from repro.net.addresses import (
    ip_from_bytes,
    ip_to_bytes,
    mac_from_bytes,
    mac_to_bytes,
)
from repro.net.checksum import internet_checksum, pseudo_header_checksum
from repro.net.ethernet import ETHERTYPE_IPV4, ETHERTYPE_VLAN, EthernetHeader
from repro.net.flow import FlowKey
from repro.net.ipv4 import PROTO_TCP, PROTO_UDP, IPv4Header
from repro.net.packet import Packet, make_tcp_packet, make_udp_packet
from repro.net.rawpacket import (
    DecodedBlock,
    FrameBlock,
    decode_block,
)
from repro.net.pcap import (
    PcapReader,
    PcapRecord,
    PcapWriter,
    read_pcap,
    write_pcap,
)
from repro.net.tcp import (
    TCPHeader,
    TcpOption,
    mss_option,
    nop_option,
    sack_permitted_option,
    timestamps_option,
    window_scale_option,
)
from repro.net.udp import UDPHeader

__all__ = [
    "DecodedBlock",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_VLAN",
    "EthernetHeader",
    "FlowKey",
    "FrameBlock",
    "IPv4Header",
    "PROTO_TCP",
    "PROTO_UDP",
    "Packet",
    "PcapReader",
    "PcapRecord",
    "PcapWriter",
    "TCPHeader",
    "TcpOption",
    "UDPHeader",
    "decode_block",
    "internet_checksum",
    "ip_from_bytes",
    "ip_to_bytes",
    "mac_from_bytes",
    "mac_to_bytes",
    "make_tcp_packet",
    "make_udp_packet",
    "mss_option",
    "nop_option",
    "pseudo_header_checksum",
    "read_pcap",
    "sack_permitted_option",
    "timestamps_option",
    "window_scale_option",
    "write_pcap",
]
