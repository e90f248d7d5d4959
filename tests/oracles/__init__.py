"""Reference implementations the test suites compare ``src/repro`` against.

Each module here is the slow, obviously-correct form of one idea whose
array implementation lives in ``src/repro``:

* :mod:`tests.oracles.cdg` — the dict/DFS channel dependency graph and
  its per-path verdict ``routing_is_deadlock_free`` (oracles for
  :mod:`repro.sm.routing.cdg_array` and the CDG001/VLC001 rules);
* :mod:`tests.oracles.lash`, :mod:`tests.oracles.dfsssp` — the
  pure-Python LASH and DFSSSP engines (byte-identity oracles for the
  engines of :mod:`repro.sm.routing`);
* :mod:`tests.oracles.delivery` — the per-path LFT walkers: over the
  hardware (oracle for the delivery half of
  :func:`repro.analysis.verification.verify_subnet`) and over an engine's
  tables, ``trace_path`` / ``validate`` (oracle for
  :func:`repro.analysis.static.check_reachability`);
* :mod:`tests.oracles.candidates` — the per-destination equal-cost
  candidate pass (oracle for :func:`repro.fabric.graph.candidate_table`);
* :mod:`tests.oracles.reconfig` — the clone → diff → one-send-per-block
  vSwitch reconfigurer (oracle for the column-edit kernel of
  :mod:`repro.core.reconfig` and, through it, for the LFT sweep
  :meth:`repro.mad.smp.SmpPlan.lft_sweep` builds);
* :mod:`tests.oracles.discovery` — the one-``send``-per-packet discovery
  walker (oracle for the one-plan sweep of
  :func:`repro.sm.discovery.discover_subnet` and, through it, for
  :meth:`repro.mad.transport.SmpTransport.deliver`);
* :mod:`tests.oracles.dataplane` — the closure-per-event data-plane
  simulator on the engine's plain heap (oracle for the struct-of-arrays
  kernel of :mod:`repro.sim.dataplane` and, through it, for the lane
  merge of :class:`repro.sim.engine.SimulationEngine`).

:mod:`tests.oracles.observe` is what the oracle suites compare: everything
an SMP delivery may leave behind, in ``==`` form.

Nothing under ``src/`` may import from here (CI greps for it).
"""
