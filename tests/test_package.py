"""Package-level tests: public API surface, error hierarchy, constants."""

import ast
import re
from pathlib import Path

import pytest

import repro
from repro import errors
from repro.constants import (
    LFT_BLOCK_SIZE,
    LFT_BLOCKS_FULL_SUBNET,
    LFT_DROP_PORT,
    MAX_UNICAST_LID,
    PAPER_SWITCH_RADIX,
    UNICAST_LID_COUNT,
)


class TestPublicApi:
    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.{name} missing"

    def test_subpackage_exports_resolve(self):
        for pkg in (
            repro.fabric,
            repro.mad,
            repro.sm,
            repro.sriov,
            repro.core,
            repro.virt,
            repro.sim,
            repro.workloads,
            repro.analysis,
        ):
            for name in pkg.__all__:
                assert hasattr(pkg, name), f"{pkg.__name__}.{name} missing"

    def test_version(self):
        assert repro.__version__.count(".") == 2

    def test_docstrings_everywhere(self):
        # Every public symbol re-exported at package level is documented.
        for name in repro.__all__:
            obj = getattr(repro, name)
            if callable(obj) or isinstance(obj, type):
                assert obj.__doc__, f"repro.{name} lacks a docstring"


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj.__module__ == "repro.errors"
            ):
                assert issubclass(obj, errors.ReproError)

    def test_specific_parentage(self):
        assert issubclass(errors.LidExhaustedError, errors.AddressingError)
        assert issubclass(errors.MigrationError, errors.VirtError)
        assert issubclass(errors.UnreachableLidError, errors.RoutingError)

    def test_src_repro_guards_with_typed_errors_not_asserts(self):
        """An ``assert`` vanishes under ``python -O``; a guard in
        ``src/repro`` raises a typed ``repro.errors`` exception instead."""
        src = Path(repro.__file__).resolve().parent
        asserts = [
            f"{path.relative_to(src)}:{node.lineno}"
            for path in sorted(src.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Assert)
        ]
        assert asserts == []

    def test_catchable_as_repro_error(self):
        from repro.fabric.addressing import LidAllocator

        alloc = LidAllocator(first=1, last=1)
        alloc.allocate()
        with pytest.raises(errors.ReproError):
            alloc.allocate()


class TestOneWalkOfARoutingFunction:
    """Every next-hop, CDG and path question about a port matrix goes
    through the audit's successor kernel (tier-1 twin of the CI guard)."""

    SRC = Path(repro.__file__).resolve().parent

    def defining_files(self, name):
        return sorted(
            str(path.relative_to(self.SRC))
            for path in self.SRC.rglob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == name
        )

    def test_the_sm_deadlock_module_is_gone(self):
        assert not (self.SRC / "sm" / "deadlock.py").exists()

    def test_each_kernel_is_defined_once(self):
        assert self.defining_files("dependency_keys") == ["sm/routing/cdg_array.py"]
        assert self.defining_files("two_hops") == ["sm/routing/cdg_array.py"]
        assert self.defining_files("port_to_peer") == ["fabric/graph.py"]

    def test_no_hand_built_peer_maps(self):
        hits = [
            str(path.relative_to(self.SRC))
            for path in sorted(self.SRC.rglob("*.py"))
            if "p2p[(" in path.read_text() or "neighbor_via_port" in path.read_text()
        ]
        assert hits == []

    def test_the_routing_classes_carry_no_walker(self):
        walker = {"trace_path", "validate", "terminal_map", "port_maps"}
        found = {}
        for rel in ("sm/routing/base.py", "sm/routing/cache.py"):
            for node in ast.walk(ast.parse((self.SRC / rel).read_text())):
                if isinstance(node, ast.ClassDef) and node.name in (
                    "RoutingTables", "RoutingRequest", "RoutingState"
                ):
                    found[node.name] = walker & {
                        f.name for f in node.body if isinstance(f, ast.FunctionDef)
                    }
        assert found == {"RoutingTables": set(), "RoutingRequest": set(), "RoutingState": set()}


class TestOneLidModKernelOneKeptFill:
    """MinHop's table fill has one kernel, a flat gather, and its kept
    copy stays inside the routing cache (tier-1 twin of the CI guard)."""

    SRC = Path(repro.__file__).resolve().parent

    def sources(self):
        return [
            (str(path.relative_to(self.SRC)), path.read_text())
            for path in sorted(self.SRC.rglob("*.py"))
        ]

    def test_one_lid_mod_kernel(self):
        assert [
            rel
            for rel, text in self.sources()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.FunctionDef) and node.name == "_assign_lid_mod"
        ] == ["sm/routing/base.py"]

    def test_no_three_index_candidate_gather(self):
        hits = [
            f"{rel}:{node.lineno}"
            for rel, text in self.sources()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "cand"
            and isinstance(node.slice, ast.Tuple)
            and len(node.slice.elts) == 3
            and not any(isinstance(e, ast.Slice) for e in node.slice.elts)
        ]
        assert hits == []

    def test_the_kept_fill_stays_in_the_routing_cache(self):
        users = [rel for rel, text in self.sources() if "_kept_fill" in text]
        assert users == ["sm/routing/cache.py"]
        lines = [
            line
            for rel, text in self.sources()
            for line in text.splitlines()
            if "_kept_fill" in line and "metadata" in line
        ]
        assert lines == []


class TestOneBfsKernelOneViewBuilder:
    """Hop distances come from one multi-source BFS, and the CSR view of
    the switch graph is built in one place (tier-1 twin of the CI guard
    "one BFS-distance kernel, one view builder")."""

    SRC = Path(repro.__file__).resolve().parent

    def sources(self):
        for path in sorted(self.SRC.rglob("*.py")):
            yield str(path.relative_to(self.SRC)), ast.parse(path.read_text())

    def calls(self, name):
        """``(file, enclosing function)`` of every call of *name*."""
        found = []
        for rel, tree in self.sources():
            owner = {}
            for fn in ast.walk(tree):
                if isinstance(fn, ast.FunctionDef):
                    for node in ast.walk(fn):
                        owner.setdefault(id(node), fn.name)
            found += [
                (rel, owner.get(id(node)))
                for node in ast.walk(tree)
                if isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            ]
        return sorted(found)

    def test_bfs_rows_is_defined_once_and_one_source_is_its_case(self):
        assert [
            rel
            for rel, tree in self.sources()
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and node.name == "bfs_rows"
        ] == ["fabric/graph.py"]
        assert ("fabric/graph.py", "bfs_distances") in self.calls("bfs_rows")

    def test_the_view_is_built_by_fabric_view_alone(self):
        assert self.calls("_build_fabric_view") == [("fabric/topology.py", "fabric_view")]
        assert {rel for rel, _ in self.calls("SwitchFabricView")} == {"fabric/topology.py"}


class TestOneDeadlockCheck:
    """CDG001/CDG002 are the trivial-lane case of VLC001/VLC004: one
    dependency builder, one cycle peel (tier-1 twin of the CI guard)."""

    SRC = Path(repro.__file__).resolve().parent

    def calls(self, name, root):
        """``(file, enclosing function)`` of every call of *name*."""
        found = []
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text())
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and name in (
                        getattr(node.func, "id", None),
                        getattr(node.func, "attr", None),
                    ):
                        found.append((str(path.relative_to(self.SRC)), fn.name))
        return found

    def test_one_builder_one_peel(self):
        assert [
            str(path.relative_to(self.SRC))
            for path in sorted(self.SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.FunctionDef) and node.name == "lane_dependencies"
        ] == ["analysis/static/vl_checks.py"]
        assert self.calls("find_cycle", self.SRC) == [
            ("analysis/static/vl_checks.py", "_lane_cycles")
        ]
        assert self.calls("dependency_keys", self.SRC / "analysis") == [
            ("analysis/static/vl_checks.py", "lane_dependencies")
        ]

    def test_no_single_lane_twin(self):
        gone = (
            "check_vl_deadlock_freedom",
            "check_vl_transition_deadlock",
            "build_per_vl_dependencies",
            "PerVlDependencies",
            "port_lanes",
            "META002",
            "NOTICE_RULES",
        )
        hits = [
            f"{path.relative_to(self.SRC)}: {name}"
            for path in sorted(self.SRC.rglob("*.py"))
            for name in gone
            if name in path.read_text()
        ]
        assert hits == []


class TestOneLaneStore:
    """A VL assignment is one int8 plane beside the ports, and the static
    analysis shards nothing (tier-1 twin of the CI guard)."""

    SRC = Path(repro.__file__).resolve().parent

    def files_with(self, needle, root=None):
        return [
            str(path.relative_to(self.SRC))
            for path in sorted((root or self.SRC).rglob("*.py"))
            if needle in path.read_text()
        ]

    def test_no_second_shape_of_a_lane_assignment(self):
        for shape in ("VlAssignment", "pair_to_vl", "lid_to_vl"):
            assert self.files_with(shape) == [], shape

    def test_only_the_routing_pool_shards(self):
        assert self.files_with("shard_map(") == ["sm/routing/parallel.py"]

    def test_the_static_analysis_has_no_workers(self):
        assert self.files_with("workers", self.SRC / "analysis" / "static") == []


class TestOneHardwareLftStore:
    """Every switch's LFT is a row of ``Topology._lft`` (tier-1 twin of the
    CI guard "one hardware LFT store")."""

    SRC = Path(repro.__file__).resolve().parent

    def sources(self):
        for path in sorted(self.SRC.rglob("*.py")):
            yield str(path.relative_to(self.SRC)), path.read_text()

    def test_no_per_switch_table(self):
        assert [
            (name, line.strip())
            for name, text in self.sources()
            for line in text.splitlines()
            if "LinearForwardingTable" in line
        ] == [("mad/smp.py", 'LFT_BLOCK = "LinearForwardingTable"')]
        for gone in ("_ensure_capacity", "reset_forwarding", ".lft.get", ".lft.set"):
            assert [name for name, text in self.sources() if gone in text] == []

    def test_one_owner_one_raw_reader(self):
        assigned = [name for name, text in self.sources() if "._lft = " in text]
        assert assigned == ["fabric/topology.py"]
        readers = {
            name
            for name, text in self.sources()
            if "._lft" in text and not name.startswith("fabric/")
        }
        assert readers == {"sim/dataplane.py"}

    def test_columns_grow_through_widen_only(self):
        tree = ast.parse((self.SRC / "fabric" / "topology.py").read_text())
        writes = set()
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Attribute) and t.attr == "_lft"
                    for t in node.targets
                ):
                    func = node.value.func
                    writes.add((fn.name, getattr(func, "attr", None) or func.id))
        # The empty store, a row per added / removed switch; columns only
        # ever through widen.
        assert sorted(w for w in writes if w[1] != "widen") == [
            ("__init__", "full"),
            ("add_switch", "vstack"),
            ("remove_switch", "delete"),
        ]
        assert [
            name
            for name, text in self.sources()
            if "def widen(" in text
        ] == ["fabric/lft.py"]


class TestOneTerminalTable:
    """Where a LID attaches is ``Topology``'s terminal table, read through
    ``Topology.terminals()`` (tier-1 twin of the CI guard "one terminal
    table")."""

    SRC = Path(repro.__file__).resolve().parent
    REBUILDS = re.compile(
        r"Terminal\(|terminal_arrays|lid_arrays|terminals_by_switch"
        r"|port_of_lid\([^)]*\)\.remote"
    )

    def sources(self):
        for path in sorted(self.SRC.rglob("*.py")):
            yield str(path.relative_to(self.SRC)), path.read_text()

    def test_no_rebuild_of_the_attachment(self):
        assert [
            (name, line.strip())
            for name, text in self.sources()
            for line in text.splitlines()
            if self.REBUILDS.search(line)
        ] == []

    def test_the_registry_is_read_by_the_topology_alone(self):
        assert [name for name, text in self.sources() if "_lid_to_port" in text] == [
            "fabric/topology.py"
        ]

    def test_terminal_left_the_package(self):
        assert "Terminal" not in repro.fabric.__all__


class TestOneClaimsRegister:
    """The paper's claims are rows of ``repro.analysis.claims`` (tier-1
    twin of the CI guard "one claims register")."""

    ROOT = Path(repro.__file__).resolve().parents[2]

    def test_no_legacy_bench_files(self):
        assert sorted(self.ROOT.glob("benchmarks/test_bench_*.py")) == []
        assert sorted(self.ROOT.glob("BENCH_*.json")) == []

    def test_no_paper_scale_environment_switch(self):
        assert [
            str(path.relative_to(self.ROOT))
            for tree in ("src/repro", "examples")
            for path in sorted((self.ROOT / tree).rglob("*.py"))
            if "REPRO_PAPER_SCALE" in path.read_text()
        ] == []

    def test_the_register_writes_nothing(self):
        text = (self.ROOT / "src" / "repro" / "analysis" / "claims.py").read_text()
        for call in ("open(", "write_text", "write_bytes", "json.dump("):
            assert call not in text


class TestOneLftUpdatePath:
    """An LFT change reaches the switches through ``LftDistributor.update``
    alone and is priced in one ``LftReport`` (tier-1 twin of the CI guard
    "one LFT update path")."""

    ROOT = Path(repro.__file__).resolve().parents[2]
    #: The guard's own patterns live here, the oracles keep their packets.
    EXEMPT = ("tests/oracles/", "tests/test_package.py")

    def hits(self, pattern, *trees):
        return [
            (rel, line.strip())
            for tree in trees
            for path in sorted((self.ROOT / tree).rglob("*.py"))
            if not (rel := path.relative_to(self.ROOT).as_posix()).startswith(self.EXEMPT)
            for line in path.read_text().splitlines()
            if re.search(pattern, line)
        ]

    def test_one_writer(self):
        writers = self.hits(
            r"SmpPlan\.lft_sweep\(|write_block_verified\(|\.rollback\(", "src/repro"
        )
        assert {rel for rel, _ in writers} == {"src/repro/sm/lft_distribution.py"}

    def test_one_report_and_no_write_knobs(self):
        assert self.hits(
            r"ReconfigReport|DistributionReport|transactional=", "src", "examples", "tests"
        ) == []
        assert self.hits(
            r"pipeline_window\s*[=:]|\.pipeline_window", "src", "examples", "tests"
        ) == []


class TestConstants:
    def test_lid_space(self):
        assert MAX_UNICAST_LID == 0xBFFF
        assert UNICAST_LID_COUNT == 49151

    def test_lft_block_invariants(self):
        assert LFT_BLOCK_SIZE == 64
        assert LFT_BLOCKS_FULL_SUBNET * LFT_BLOCK_SIZE >= MAX_UNICAST_LID + 1
        assert LFT_BLOCKS_FULL_SUBNET == 768
        # Why LFTs move in blocks: 64 one-byte port entries fill exactly
        # one 64-byte SMP attribute payload.
        port_entry_bytes, smp_attribute_payload_bytes = 1, 64
        assert LFT_BLOCK_SIZE * port_entry_bytes == smp_attribute_payload_bytes

    def test_drop_port(self):
        assert LFT_DROP_PORT == 255

    def test_paper_radix(self):
        assert PAPER_SWITCH_RADIX == 36
