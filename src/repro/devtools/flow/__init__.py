"""Whole-program dataflow analysis: the determinism contract, enforced.

The shallow rules in :mod:`repro.devtools.rules` see one statement at a
time; they catch an unseeded ``Random()`` but not a set iteration three
frames below an :class:`~repro.optimize.deployment.OptimizationResult`
field, nor a lock captured by a function a worker task reaches.  This
subpackage closes that gap with a parse-only, interprocedural
engine:

* :mod:`repro.devtools.flow.symbols` — symbol table and call graph over
  an analyzed tree (module-level name resolution, receiver-type method
  dispatch heuristics, ``functools.partial``/closure edges), with an
  explicit **UNRESOLVED** edge class so soundness gaps stay visible;
* :mod:`repro.devtools.flow.taint` — fixpoint taint analysis from
  nondeterminism *sources* (wall-clock reads outside ``obs.clock``,
  unseeded RNG, set-iteration order, ``os.environ``/``os.urandom``,
  ``id()``/object ``hash()``, pool completion order) into *sinks*
  (result-record fields, ``jsonsafe`` exports, blake2b digest inputs,
  service cache keys), with per-function effect summaries cached so the
  fixpoint converges in one pass over the SCC condensation;
* :mod:`repro.devtools.flow.races` — FORK-CAPTURE: fork-unsafe
  globals read by code a worker task reaches, nested pools inside
  workers;
* :mod:`repro.devtools.flow.contract` — every source, sink, sanitizer,
  and the UNRESOLVED-call budget, as reviewable data;
* :mod:`repro.devtools.flow.baseline` — the committed-baseline
  machinery: pre-existing accepted findings don't fail CI, new ones do;
* :mod:`repro.devtools.flow.deep` — the driver behind
  ``repro lint --deep``.

Like the rest of ``devtools``, everything here parses and never
imports the code it analyzes, uses only the stdlib, and renders JSON
through the ``jsonsafe`` leaf.
"""

from __future__ import annotations

from repro.devtools.flow.deep import DeepReport, analyze_deep
from repro.devtools.flow.symbols import Program, build_program
from repro.devtools.flow.taint import analyze_taint

__all__ = [
    "DeepReport",
    "Program",
    "analyze_deep",
    "analyze_taint",
    "build_program",
]
