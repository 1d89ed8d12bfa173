"""Future-work studies the ``bench_ext_*`` scripts run.

None of these is part of the paper's flow, and no ``repro`` front door
(CLI, served job, fleet worker, example) reaches them, so they live
beside the scripts instead of in ``src/repro``:

* :mod:`benchmarks.ext.three_d` — two-tier 3D placement
  (``bench_ext_3d.py``);
* :mod:`benchmarks.ext.shape_extensions` — L-shaped cluster shapes
  in V-P&R (``bench_ext_lshape.py``);
* :mod:`benchmarks.ext.opt` — high-fanout buffering and gate sizing,
  the resizer study (``bench_ext_resizer.py``).
"""
