"""The paper's contribution: vSwitch LID schemes, dynamic reconfiguration,
skyline-limited updates, live migration orchestration, and the analytic
cost model."""

from repro.core.cost_model import (
    Table1Row,
    improvement_percent,
    lftd_time,
    paper_table1,
    table1_row,
    traditional_rc_time,
    vswitch_rc_time,
)
from repro.core.lid_schemes import (
    DynamicLidScheme,
    LidScheme,
    PrepopulatedLidScheme,
    VmBootReport,
)
from repro.core.migration import (
    LiveMigrationOrchestrator,
    MigrationReport,
    MigrationTimingModel,
)
from repro.core.reconfig import VSwitchReconfigurer
from repro.core.skyline import (
    MigrationSkyline,
    admit_concurrent,
    copy_update_set,
    is_intra_leaf,
    minimal_update_set,
    plan_skyline,
    swap_update_set,
)

__all__ = [
    "lftd_time",
    "traditional_rc_time",
    "vswitch_rc_time",
    "Table1Row",
    "table1_row",
    "paper_table1",
    "improvement_percent",
    "LidScheme",
    "PrepopulatedLidScheme",
    "DynamicLidScheme",
    "VmBootReport",
    "VSwitchReconfigurer",
    "MigrationSkyline",
    "plan_skyline",
    "swap_update_set",
    "copy_update_set",
    "minimal_update_set",
    "is_intra_leaf",
    "admit_concurrent",
    "LiveMigrationOrchestrator",
    "MigrationReport",
    "MigrationTimingModel",
]
