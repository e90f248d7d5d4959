"""repro — reproduction of "Towards the InfiniBand SR-IOV vSwitch
Architecture" (Tasoulas et al., CLUSTER 2015).

The package provides a complete simulated InfiniBand substrate (topologies,
addressing, LFTs, SMP transport, an OpenSM-like subnet manager with five
routing engines, deadlock analysis) and, on top of it, the paper's
contribution: the two vSwitch SR-IOV LID schemes and the topology-agnostic
dynamic reconfiguration method that makes VM live migration practical in
large IB subnets.

Quickstart::

    from repro import CloudManager, scaled_fattree

    built = scaled_fattree("2l-small", attach_hosts=True)
    cloud = CloudManager(built.topology, built=built, lid_scheme="prepopulated")
    cloud.adopt_all_hcas()
    cloud.bring_up_subnet()
    vm = cloud.boot_vm()
    report = cloud.live_migrate(vm.name, dest_name)
    print(report.total_smps, report.reconfig.switches_updated)
"""

from repro import (
    analysis,
    core,
    fabric,
    mad,
    obs,
    sim,
    sm,
    sriov,
    virt,
    workloads,
)
from repro.constants import (
    DEFAULT_NUM_VFS,
    LFT_BLOCK_SIZE,
    MAX_UNICAST_LID,
    UNICAST_LID_COUNT,
)
from repro.core import (
    DynamicLidScheme,
    LiveMigrationOrchestrator,
    MigrationReport,
    PrepopulatedLidScheme,
    ReconfigReport,
    VSwitchReconfigurer,
    paper_table1,
    table1_row,
    traditional_rc_time,
    vswitch_rc_time,
)
from repro.errors import ReproError
from repro.fabric import Topology
from repro.fabric.builders import (
    build_three_level_fattree,
    build_two_level_fattree,
)
from repro.fabric.presets import paper_fattree, scaled_fattree
from repro.sm import SubnetManager
from repro.sriov import SharedPortHCA, VSwitchHCA
from repro.virt import CloudManager

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    # substrate
    "Topology",
    "SubnetManager",
    "SharedPortHCA",
    "VSwitchHCA",
    "build_two_level_fattree",
    "build_three_level_fattree",
    "paper_fattree",
    "scaled_fattree",
    # contribution
    "PrepopulatedLidScheme",
    "DynamicLidScheme",
    "VSwitchReconfigurer",
    "ReconfigReport",
    "LiveMigrationOrchestrator",
    "MigrationReport",
    "CloudManager",
    "table1_row",
    "paper_table1",
    "traditional_rc_time",
    "vswitch_rc_time",
    # constants
    "LFT_BLOCK_SIZE",
    "MAX_UNICAST_LID",
    "UNICAST_LID_COUNT",
    "DEFAULT_NUM_VFS",
    # subpackages
    "analysis",
    "core",
    "fabric",
    "mad",
    "obs",
    "sim",
    "sm",
    "sriov",
    "virt",
    "workloads",
]
