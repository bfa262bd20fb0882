"""gmpy2-accelerated Schnorr group backend (registry name ``"schnorr-gmpy2"``).

Byte-for-byte compatible with the pure-python
:class:`~repro.crypto.group.SchnorrGroup`: same parameters, same derived
generators, same serialization, and elements compare equal across the two
backends -- the property tests in ``tests/properties`` pin this down.  The
speed comes from three substitutions:

* element values are ``gmpy2.mpz`` integers, so every modular product in the
  inner loops runs in GMP;
* :meth:`Gmpy2SchnorrGroup.plain_power` and
  :meth:`Gmpy2SchnorrGroup.multi_power` call ``gmpy2.powmod`` -- for
  multi-exponentiation, ``k`` C-level ``powmod`` calls beat one shared
  pure-python Shamir square-and-multiply chain by well over an order of
  magnitude at 256 bits;
* fixed-base tables (:class:`Gmpy2FixedBase`) store ``mpz`` rows, so the
  byte-digit lookup loop they share with the pure backend multiplies in GMP.

When ``gmpy2`` is not installed (it is an optional extra:
``pip install -e .[fast]``), :func:`make_gmpy2_group` degrades gracefully and
returns the pure-python group, so scenario configs naming
``backend="schnorr-gmpy2"`` still run everywhere.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.crypto.group import (
    GroupElement,
    SchnorrElement,
    SchnorrFixedBase,
    SchnorrGroup,
    default_group,
)

try:  # pragma: no cover - exercised only on the CI leg that installs .[fast]
    import gmpy2
    from gmpy2 import mpz, powmod

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - the default environment
    gmpy2 = None
    mpz = int  # type: ignore[assignment]
    powmod = pow  # type: ignore[assignment]
    HAVE_GMPY2 = False


class Gmpy2Element(SchnorrElement):
    """Schnorr-group element whose value is a ``gmpy2.mpz``.

    Serialization, equality and hashing are inherited semantics: ``mpz``
    compares and hashes identically to ``int``, and :meth:`serialize`
    normalizes through ``int`` so wire bytes match the pure backend exactly.
    """

    def __mul__(self, other: GroupElement) -> "Gmpy2Element":
        assert isinstance(other, SchnorrElement)
        return Gmpy2Element((self.value * other.value) % self.group.p, self.group)

    def __pow__(self, exponent: int) -> "Gmpy2Element":
        return Gmpy2Element(
            powmod(self.value, exponent % self.group.order, self.group.p), self.group
        )

    def inverse(self) -> "Gmpy2Element":
        return Gmpy2Element(gmpy2.invert(self.value, self.group.p), self.group)

    def serialize(self) -> bytes:
        length = (self.group.p.bit_length() + 7) // 8
        return b"S" + int(self.value).to_bytes(length, "big")


class Gmpy2FixedBase(SchnorrFixedBase):
    """The byte-digit table of :class:`SchnorrFixedBase` with ``mpz`` rows."""

    _integer = mpz


class Gmpy2SchnorrGroup(SchnorrGroup):
    """Drop-in Schnorr group running its arithmetic on GMP integers."""

    def __init__(self, p: Optional[int] = None, g: Optional[int] = None):
        if not HAVE_GMPY2:  # pragma: no cover - guarded by make_gmpy2_group
            raise RuntimeError(
                "gmpy2 is not installed; use make_gmpy2_group() for the "
                "graceful pure-python fallback"
            )
        # The mpz modulus must exist before super().__init__ builds the
        # generators through self.element().
        self._p_mpz = mpz(p if p is not None else self._DEFAULT_P)
        super().__init__(p=p, g=g)

    def element(self, value: int) -> Gmpy2Element:
        return Gmpy2Element(mpz(value) % self._p_mpz, self)

    def plain_power(self, base: GroupElement, exponent: int) -> Gmpy2Element:
        assert isinstance(base, SchnorrElement)
        return Gmpy2Element(
            powmod(base.value, exponent % self.order, self._p_mpz), self
        )

    def multi_power(self, pairs: Sequence[Tuple[GroupElement, int]]) -> Gmpy2Element:
        """``prod(base ** exp)`` as per-pair C ``powmod`` calls.

        With GMP doing the exponentiation in C, ``k`` independent ``powmod``
        calls are faster than any shared pure-python bit-scanning loop -- the
        interpreter overhead of Shamir's trick dominates long before the
        saved squarings pay off.
        """
        p = self._p_mpz
        accumulator = mpz(1)
        for base, exponent in pairs:
            e = exponent % self.order
            if e:
                accumulator = accumulator * powmod(base.value, e, p) % p
        return Gmpy2Element(accumulator, self)

    def _build_fixed_base(self, element: SchnorrElement) -> Gmpy2FixedBase:
        return Gmpy2FixedBase(element)


def make_gmpy2_group(p: Optional[int] = None, g: Optional[int] = None):
    """Factory for the ``"schnorr-gmpy2"`` registry entry.

    Returns a :class:`Gmpy2SchnorrGroup` when gmpy2 is importable, otherwise
    the equivalent pure-python group (the process-wide default instance when
    no parameters are given), so the backend name is always usable.
    """
    if HAVE_GMPY2:
        return Gmpy2SchnorrGroup(p=p, g=g)
    if p is None and g is None:
        return default_group()
    return SchnorrGroup(p=p, g=g)
