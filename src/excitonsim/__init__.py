"""excitonsim: excitation transport and apparent entanglement on truncated
Fock spaces of coupled-pigment networks.  The submodules are the API."""

__version__ = "0.1.0"
