"""claimcast: distributional forecasts of warranty-claim expenditure.

The package estimates, from historical sales and claims records, the
distribution of the total cost of warranty claims arriving in a fixed
future window, via normal and heavy-tail (stable) approximations, and
ships a simulator that validates those approximations end to end.
"""

__version__ = "0.1.0"
