"""Paired noninterfering Mach-Zehnder interferometers.

Jones-calculus element models, the per-station closed forms, cross-station
correlation functions, a photon-counting Monte Carlo with doubly-bunched-pair
post-selection, and a CSV-emitting command line around them.  Import from
the submodules: ``nmzi.correlation``, ``nmzi.montecarlo``, ``nmzi.output``,
``nmzi.station``, ``nmzi.elements``, ``nmzi.config``, ``nmzi.verify`` and
``nmzi.cli``.
"""
