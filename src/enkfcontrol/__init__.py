"""Data-driven robust stabilization of discretized PDEs.

Modules: ``pde`` (heat/Burgers simulators), ``dmdc`` (reduced models),
``enkf`` (the dual-EnKF gain), ``controller`` (the control law and its
Lyapunov-redesign term), ``riccati`` (the Riccati reference solver), ``harness``
(closed-loop trials), ``config``, ``bundles``, ``results`` and ``cli``.
This file imports none of them, nor numpy, so that ``python -m enkfcontrol``
can pin the BLAS threads before numpy loads (see ``__main__``).
"""
