"""Time-dependent body forces for the coupled systems.

Forces are always mean-free and divergence-free (elements of the same space
as the velocity) and bounded in time.  A ForcingPair bundles the two forces
driving the two copies; the decaying-delta pair g2 = g1 + exp(-rate*t)*delta
is the canonical synchronous pair used by the determining-modes experiments.
"""

from __future__ import annotations

import numpy as np

from .spectral import Grid, SpectralField, field_from_modes


class NoClosedForm(ValueError):
    """A forcing quantity has no closed form for this pair of forces."""


class Forcing:
    """Base class: a bounded curve t -> g(t) in the divergence-free space,
    written as a fixed tuple of fields and a weight per field:
    g(t) = sum_i weights(t)[i] fields[i].

    A `ForceStack` packs the fields once and forms g(t) from the weights.
    steady says the weights never change, so that g is formed once.
    """

    steady = False
    fields: tuple = ()

    def weights(self, t: float) -> tuple:
        raise NotImplementedError

    def __call__(self, t: float) -> SpectralField:
        """The left fold of weights times fields; a weight of exactly 1 is
        not multiplied, so a steady force returns its field itself."""
        total = None
        for field, w in zip(self.fields, self.weights(t)):
            term = field if w == 1.0 else field * w
            total = term if total is None else total + term
        return total

    def sup_l2(self) -> float:
        """sup over t >= 0 of |g(t)|, exact where a closed form exists."""
        raise NotImplementedError


class ForceStack:
    """The forces of a stack of copies, formed in place in G: the one force
    fold of the stepper and of the dense oracle.

    forces holds each copy's `Forcing`.  pack(fields) turns a list of fields
    into a stack in G's layout; each distinct field (by identity) is packed
    once.  Copy j's force is formed into G[j] at t as `Forcing.__call__`
    forms it, a left fold in which a weight of exactly 1 is not multiplied,
    so the two are bitwise equal; it is formed again only when its weights
    change, so a steady force is formed once.
    """

    def __init__(self, forces, pack, G, t: float):
        fields, index = [], {}
        for g in forces:
            for u in g.fields:
                if id(u) not in index:
                    index[id(u)] = len(fields)
                    fields.append(u)
        self.fields = pack(fields)
        self.terms = [(g, [index[id(u)] for u in g.fields]) for g in forces]
        self.G = G
        # the scratch of a weighted term after the first, for a force of several fields
        self.term = np.empty_like(G[0]) if any(len(g.fields) > 1 for g in forces) else None
        self.weights = [None] * len(forces)
        for j in range(len(forces)):
            self._form(j, t)
        self.varying = [j for j, g in enumerate(forces) if not g.steady]

    def _form(self, j: int, t: float) -> None:
        forcing, terms = self.terms[j]
        weights = forcing.weights(t)
        if weights == self.weights[j]:
            return
        self.weights[j] = weights
        g = self.G[j]
        for i, (k, w) in enumerate(zip(terms, weights)):
            field = self.fields[k]
            if w != 1.0:
                field = np.multiply(field, w, out=g if i == 0 else self.term)
            if i == 0:
                if field is not g:
                    np.copyto(g, field)
            else:
                np.add(g, field, out=g)

    def at(self, t: float) -> np.ndarray:
        """The force stack G at t; do not modify it in place."""
        for j in self.varying:
            self._form(j, t)
        return self.G

    def freeze(self, copies: slice) -> None:
        """Zero the forces of copies from now on."""
        self.G[copies] = 0.0
        self.varying = [j for j in self.varying if not copies.start <= j < copies.stop]


class SteadyForcing(Forcing):
    steady = True

    def __init__(self, field: SpectralField):
        self.field = field
        self.fields = (field,)

    def weights(self, t: float) -> tuple:
        return (1.0,)

    def sup_l2(self) -> float:
        return self.field.l2


class TimePeriodicForcing(Forcing):
    """g(t) = cos(omega t) * a."""

    def __init__(self, field: SpectralField, omega: float):
        self.field = field
        self.omega = float(omega)
        self.fields = (field,)

    def weights(self, t: float) -> tuple:
        return (np.cos(self.omega * t),)

    def sup_l2(self) -> float:
        # |cos| reaches 1 at t = 0
        return self.field.l2


class DecayingDeltaForcing(Forcing):
    """base(t) + exp(-rate * t) * delta; tends to base, giving a synchronous pair."""

    def __init__(self, base: Forcing, delta: SpectralField, rate: float):
        if rate <= 0:
            raise ValueError("decay rate must be positive")
        self.base = base
        self.delta = delta
        self.rate = float(rate)
        # the base's own field objects, so that a stepper packs them once
        self.fields = base.fields + (delta,)

    def weights(self, t: float) -> tuple:
        return self.base.weights(t) + (np.exp(-self.rate * t),)

    def sup_l2(self) -> float:
        # triangle-inequality envelope; exact for steady base when the
        # offset is aligned, and always an upper bound
        return self.base.sup_l2() + self.delta.l2


class ForcingPair:
    """The pair (g1, g2) driving the two copies of the system."""

    def __init__(self, g1: Forcing, g2: Forcing):
        self.g1 = g1
        self.g2 = g2

    @classmethod
    def synchronized(cls, g: Forcing) -> "ForcingPair":
        return cls(g, g)

    @classmethod
    def decaying_delta(cls, base: Forcing, delta: SpectralField, rate: float) -> "ForcingPair":
        return cls(base, DecayingDeltaForcing(base, delta, rate))

    def sup_h_l2(self) -> float:
        """sup over t >= 0 of |g1 - g2| in closed form: 0 for a synchronized
        pair, |delta| for a decaying-delta pair; any other pair raises
        NoClosedForm rather than report a sampled max as a sup."""
        if self.g2 is self.g1:
            return 0.0
        if isinstance(self.g2, DecayingDeltaForcing) and self.g2.base is self.g1:
            return self.g2.delta.l2
        raise NoClosedForm(
            f"no closed form for sup |g1 - g2| of a ({type(self.g1).__name__}, {type(self.g2).__name__}) pair"
        )


def kolmogorov_force(grid: Grid, amplitude: float, wavenumber: int = 2) -> SpectralField:
    """Unidirectional shear force amplitude * (sin(wavenumber * y), 0)."""
    kf = int(wavenumber)
    if kf < 1:
        raise ValueError("forcing wavenumber must be >= 1")
    # sin(kf y) = (e^{i kf y} - e^{-i kf y}) / (2i); field_from_modes adds the
    # conjugate partner, so pass half of the pair once
    c = amplitude / 2.0 / 1j
    return field_from_modes(grid, [(0, kf, (c, 0.0))])
