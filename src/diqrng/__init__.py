"""Device-independent randomness, desk scale.

Simulate the two-player nonlocal game from the entangled strategy's Born
probabilities in closed form, certify the violation of the classical 3/4
ceiling, fit a depolarizing noise level to recorded device averages, and
turn the certified outcomes into tested bit streams.
"""

__version__ = "0.1.0"
