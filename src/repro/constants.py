"""InfiniBand architecture constants used throughout the reproduction.

Values follow the InfiniBand Architecture Specification 1.2.1 (as cited by
the paper, section II-B) and the OpenSM implementation conventions the paper
builds on (section V/VI).
"""

from __future__ import annotations

#: Lowest valid unicast LID. LID 0 is reserved ("no LID assigned").
MIN_UNICAST_LID: int = 0x0001

#: Topmost unicast LID (0xBFFF). LIDs above this are multicast.
MAX_UNICAST_LID: int = 0xBFFF

#: Number of usable unicast LIDs in one IB subnet (49151). This rules the
#: maximum subnet size (paper section II-B).
UNICAST_LID_COUNT: int = MAX_UNICAST_LID - MIN_UNICAST_LID + 1

#: First multicast LID.
MIN_MULTICAST_LID: int = 0xC000

#: Linear Forwarding Tables are read and written in blocks of 64 LIDs
#: (paper sections V-C1 and VI-A): one SubnSet(LFT) SMP
#: updates exactly one block.
LFT_BLOCK_SIZE: int = 64

#: Total number of LFT blocks needed to cover the full unicast LID space
#: (used for the "fully populated subnet needs 768 SMPs per switch" figure
#: in section VI-A).
LFT_BLOCKS_FULL_SUBNET: int = -(-(MAX_UNICAST_LID + 1) // LFT_BLOCK_SIZE)

#: Sentinel port meaning "no route / drop" in an LFT entry. The paper's
#: partially-static reconfiguration discussion (section VI-C) uses port 255
#: to force packets towards a migrating LID to be dropped.
LFT_DROP_PORT: int = 255

#: Sentinel stored in LFT arrays for "entry never programmed".
LFT_UNSET: int = 255

#: Default number of SR-IOV Virtual Functions enabled per HCA. The paper's
#: running example (section V-A) uses the Mellanox ConnectX-3 default of 16
#: (the hardware supports up to 126).
DEFAULT_NUM_VFS: int = 16

#: Maximum VFs supported by the modelled adapter (ConnectX-3).
MAX_NUM_VFS: int = 126

#: Radix of the switches used in the paper's simulations (SUN DCS 36 /
#: generic 36-port switches building the fat-trees of Fig. 7 / Table I).
PAPER_SWITCH_RADIX: int = 36

#: Special-purpose management Queue Pair numbers (section IV-A).
QP0: int = 0
QP1: int = 1
