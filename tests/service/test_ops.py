"""The tenant-op catalogue: one table row per op, five handlers each."""

import pytest

from repro.errors import AdmissionError, ServiceError
from repro.fabric.presets import scaled_fattree
from repro.service import ControlPlaneService, TenantRequest
from repro.service.ops import OPS, REQUEST_OPS, TenantOp
from repro.service.records import REQUEST_OPS as RECORD_OPS
from repro.virt.cloud import CloudManager

HANDLERS = ("bind", "execute", "effects_present", "applied_from_fabric", "replay")


class TestCatalogue:
    def test_request_ops_is_the_table(self):
        assert REQUEST_OPS == tuple(OPS) == RECORD_OPS
        assert REQUEST_OPS == ("boot", "stop", "migrate", "evacuate")
        assert all(op.name == name for name, op in OPS.items())

    @pytest.mark.parametrize("name", REQUEST_OPS)
    def test_every_op_declares_all_five_handlers(self, name):
        row = type(OPS[name])
        for handler in HANDLERS:
            assert handler in vars(row), f"{name} inherits {handler}"
            assert getattr(row, handler) is not getattr(TenantOp, handler)

    def test_a_row_missing_a_handler_cannot_exist(self):
        class Half(TenantOp):
            name = "half"

            def bind(self, service, tenant, params):
                pass

        with pytest.raises(TypeError, match="abstract"):
            Half()

    def test_only_batched_ops_define_the_batch_handler(self):
        for op in OPS.values():
            assert op.batched == ("execute_batch" in vars(type(op)))
        with pytest.raises(ServiceError, match="not batched"):
            OPS["stop"].execute_batch(None, [])

    def test_tenant_request_rejects_anything_else(self):
        for name in REQUEST_OPS:
            assert TenantRequest("r", "t1", name).op == name
        for bogus in ("reboot", "", "BOOT", "boot "):
            with pytest.raises(AdmissionError, match="unknown op"):
                TenantRequest("r", "t1", bogus)


class TestBind:
    @pytest.fixture
    def service(self):
        built = scaled_fattree("2l-small")
        cloud = CloudManager(built.topology, built=built, lid_scheme="dynamic")
        cloud.adopt_all_hcas()
        cloud.bring_up_subnet()
        return ControlPlaneService(cloud)

    def test_an_unknown_op_is_refused_at_the_record(self, service):
        with pytest.raises(AdmissionError, match="unknown op"):
            service.submit("t1", "reboot")
        assert service.queue_depth == 0

    @pytest.mark.parametrize(
        "op, message",
        [
            ("stop", "stop requests must name a VM"),
            ("migrate", "migrate requests must name a VM"),
            ("evacuate", "evacuate requests must name a hypervisor"),
        ],
    )
    def test_bind_refuses_what_cannot_be_formed(self, service, op, message):
        with pytest.raises(ServiceError, match=message):
            service.submit("t1", op)
        assert service.journal.head_seq == 0  # nothing journaled

    def test_boot_names_and_migrate_destinations_are_pinned(self, service):
        service.submit("t1", "boot")
        service.drain()
        service.submit("t1", "migrate", name="t1-vm1")
        intents = [
            e.payload for e in service.journal.entries if e.phase == "intent"
        ]
        assert intents[0]["params"] == {"name": "t1-vm1"}
        dest = intents[1]["params"]["dest"]
        assert dest != service.cloud.vms["t1-vm1"].hypervisor_name
        service.drain()
        assert service.cloud.vms["t1-vm1"].hypervisor_name == dest
