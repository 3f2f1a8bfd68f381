"""repro.lab.check — static contract analyzer for the lab engine.

``repro-lab check`` (and the tier-1 pytest gate) enforces the engine's
declarative contracts *before runtime*:

* **R1 machine-projection soundness** — every ``machine.<attr>`` read in
  a kernel's call graph (its body and its batch entry) must be covered
  by its record's ``machine_fields``, or the projected cache key can
  serve stale records;
* **R2 registry references** — presets reference registered kernels and
  policies, and batch toggles map to real CLI flags (every other
  declaration is a required field of the kernel's record);
* **R3 determinism hazards** — no ``time``/``random``/``id()``/``hash()``
  or unsorted-set serialization in the cache-key call graphs;
* **R4 worker-boundary picklability** — functions dispatched to pool
  workers must be module-level importables;
* **R5 telemetry vocabulary** — literal span/phase/counter names must
  belong to :mod:`repro.lab.vocab`.

Findings are suppressable inline with ``# lab-check: ignore[RULE]`` on
the flagged line.  Sources parse under ``feature_version`` 3.10 — the
oldest supported interpreter — so newer-only syntax cannot sneak past a
newer CI runner.
"""

from repro.util import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "findings": ("ERROR", "WARNING", "Finding"),
    "project": ("FEATURE_VERSION", "ProjectIndex"),
    "rules": ("RULES", "RegistryView"),
    "runner": ("ALL_RULES", "CheckConfig", "CheckReport", "default_config",
               "render_table", "report_to_json", "run_check"),
})
