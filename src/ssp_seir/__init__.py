"""Positivity-preserving explicit time integration of a generalized SEIR model.

The package provides

* the SEIR right-hand side with catalogs of incidence and recruitment
  functions (:mod:`ssp_seir.model`),
* canonical Shu-Osher forms and the builtin methods' optimal forms as
  rational literals (:mod:`ssp_seir.shu_osher`),
* SSP Runge-Kutta stepping, explicit Euler as its one-stage form
  (:mod:`ssp_seir.stepping`),
* theoretical step-size and population bounds (:mod:`ssp_seir.step_bounds`),
* trajectory property checks and empirical threshold search
  (:mod:`ssp_seir.checks`),
* reference trajectories for the convergence study
  (:mod:`ssp_seir.reference`),
* the config file format (:mod:`ssp_seir.config`),
* the experiments behind the CLI (:mod:`ssp_seir.experiments`),
* an experiment CLI (:mod:`ssp_seir.cli`).

Each public name is imported from the module that defines it, e.g.
``from ssp_seir.stepping import integrate``; importing the package itself
loads none of its modules.  Every module serves a command: the oracles
that only the tests use, the exact Butcher-tableau algebra among them, live
under ``tests/``.
"""
