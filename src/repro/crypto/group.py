"""Prime-order group abstraction behind the pluggable backend registry.

The paper performs all homomorphic cryptography over an elliptic curve (via
the MIRACL library).  This module defines the abstract interface every
backend implements -- :class:`Group` / :class:`GroupElement` plus the
exponentiation accelerators (:class:`FixedBasePrecomputation`,
:meth:`Group.multi_power`, :meth:`Group.cached_power`) -- and two of the
registered backends:

* :class:`SchnorrGroup` -- ``Z_p^*/{±1}``, of prime order ``q`` for a safe
  prime ``p = 2q + 1``, with elements encoded as signed quadratic residues
  (registry name ``"schnorr"``).  The reference backend: pure Python, fast
  enough for full end-to-end election tests.
* :class:`EcGroup` -- a pure-Python short-Weierstrass curve with the
  secp256k1 parameters (registry name ``"secp256k1"``, legacy alias
  ``"ec"``).  Affine arithmetic; kept as a cross-check backend.

The third backend, the gmpy2-accelerated Schnorr group, lives in
:mod:`repro.crypto.gmpy2_backend` (``"schnorr-gmpy2"``).  Every backend
decodes only elements of its prime-order group, which is what makes the
small-exponent batch tests of :mod:`repro.crypto.batch_verify` sound.

Construct groups through the registry,
:func:`repro.crypto.registry.get_group`, so backend selection stays name-driven and
parameterless groups share one warm instance.  All protocol code (ElGamal,
commitments, zero-knowledge proofs, Pedersen VSS, Schnorr signatures, batch
verification) is written once against the abstract interface and runs over
any registered backend.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, Iterator, List, Optional, Tuple

from repro.crypto.utils import RandomSource, default_random, hash_to_scalar, sha256
from repro.values import frozen_value

class GroupElement:
    """Abstract element of a prime-order group (written multiplicatively)."""

    __slots__ = ()

    group: "Group"

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        raise NotImplementedError

    def __pow__(self, exponent: int) -> "GroupElement":
        raise NotImplementedError

    def inverse(self) -> "GroupElement":
        raise NotImplementedError

    def serialize(self) -> bytes:
        raise NotImplementedError

    def __truediv__(self, other: "GroupElement") -> "GroupElement":
        return self * other.inverse()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupElement) and self.serialize() == other.serialize()

    def __hash__(self) -> int:
        return hash(self.serialize())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.serialize().hex()[:16]}...>"


class FixedBasePrecomputation:
    """Windowed fixed-base exponentiation table for one group element.

    The exponent is split into ``window``-bit digits; ``table[i][d]`` holds
    ``base ** (d << (window * i))``, so :meth:`power` needs at most
    ``ceil(bits / window)`` multiplications and *no* squarings.  Building the
    table costs ``2 ** window * ceil(bits / window)`` multiplications
    (1,632 at the default 5-bit window over a 255-bit order: about four plain
    square-and-multiply exponentiations of the curve backends that use this
    class as is), so precomputation pays off after a handful of uses -- and
    the protocol reuses the same few bases (``g``, ``h``, the election public
    key, signer keys) for every ballot, commitment, share and signature.
    """

    def __init__(self, base: GroupElement, window: int = 5):
        if window < 1:
            raise ValueError("window must be at least 1")
        self.base = base
        self.group = base.group
        self.window = window
        self.mask = (1 << window) - 1
        bits = self.group.order.bit_length()
        self.num_digits = (bits + window - 1) // window
        #: ``table[i][d]`` is ``base ** (d << (window * i))``; backends may
        #: store rows in a cheaper representation (see :class:`SchnorrFixedBase`).
        self.table = self._build_table()

    def _build_table(self) -> list:
        table = []
        current = self.base
        for _ in range(self.num_digits):
            row = [self.group.identity()]
            for _ in range(self.mask):
                row.append(row[-1] * current)
            table.append(row)
            # current ** (2 ** window) for the next digit position.
            current = row[-1] * current
        return table

    def power(self, exponent: int) -> GroupElement:
        """Return ``base ** exponent`` using only table lookups and products."""
        e = exponent % self.group.order
        result = self.group.identity()
        index = 0
        while e:
            digit = e & self.mask
            if digit:
                result = result * self.table[index][digit]
            e >>= self.window
            index += 1
        return result


class Group:
    """Abstract prime-order group."""

    #: order of the group (a prime)
    order: int

    #: registry name of the backend (set by :func:`repro.crypto.registry.get_group`;
    #: ``None`` for directly constructed instances)
    backend_name: Optional[str] = None

    #: serialized size of one element in bytes, or ``None`` when elements are
    #: variable-length (secp256k1's infinity encoding)
    element_bytes: Optional[int] = None

    def generator(self) -> GroupElement:
        """Return the fixed generator ``g``."""
        raise NotImplementedError

    def second_generator(self) -> GroupElement:
        """Return an independent generator ``h`` (nothing-up-my-sleeve)."""
        raise NotImplementedError

    def identity(self) -> GroupElement:
        """Return the identity element."""
        raise NotImplementedError

    def random_scalar(self, rng: Optional[RandomSource] = None) -> int:
        """Return a uniformly random exponent in ``[1, order)``."""
        rng = rng or default_random()
        return rng.randint_range(1, self.order)

    def hash_to_scalar(self, *parts: bytes) -> int:
        """Hash arbitrary byte strings into an exponent."""
        return hash_to_scalar(self.order, *parts)

    def deserialize(self, data: bytes) -> GroupElement:
        """Inverse of :meth:`GroupElement.serialize`."""
        raise NotImplementedError

    # -- exponentiation accelerators -------------------------------------------

    #: bound on the number of fixed-base tables one group instance retains.
    #: The protocol's genuinely hot bases (generators, election key, VC/BB/EA
    #: signer keys) number a few dozen; beyond that, least-recently-used
    #: tables are evicted so a million-ballot run cannot accumulate O(bases)
    #: tables.  A :class:`SchnorrFixedBase` table at a 256-bit modulus is
    #: 8,192 residues, 0.56 MB measured with ``sys.getsizeof``, so 64 tables
    #: are ~36 MB at worst; the 5-bit tables of the curve backends hold 1,632
    #: points each.  An engine run holds ``g``'s table for the whole run, the
    #: collectors' key tables only while voting is open (the voting phase
    #: builds them and :meth:`release_fixed_bases` drops them at close), and
    #: every other table until eviction: the commitment key's, which its
    #: encoding scheme builds, and those :meth:`cached_power` promotes.
    MAX_FIXED_BASE_TABLES = 64

    #: bound on the promotion-counter map of :meth:`cached_power`; oldest
    #: counters are dropped first (a dropped base simply re-earns promotion).
    MAX_TRACKED_BASES = 4096

    def fixed_base(self, element: GroupElement) -> FixedBasePrecomputation:
        """Return a (cached) fixed-base precomputation for ``element``,
        building it on a miss.

        The cache is keyed by the serialized element and bounded to
        :data:`MAX_FIXED_BASE_TABLES` entries with least-recently-used
        eviction.  A caller that knows when a base stops being used drops
        its table with :meth:`release_fixed_bases` instead of leaving it to
        the eviction.
        """
        cache: OrderedDict = getattr(self, "_fixed_base_cache", None)
        if cache is None:
            cache = OrderedDict()
            self._fixed_base_cache = cache
        key = element.serialize()
        precomputed = cache.get(key)
        if precomputed is None:
            precomputed = self._build_fixed_base(element)
            cache[key] = precomputed
            while len(cache) > self.MAX_FIXED_BASE_TABLES:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return precomputed

    def _build_fixed_base(self, element: GroupElement) -> FixedBasePrecomputation:
        """Backend hook: build a precomputation table for ``element``."""
        return FixedBasePrecomputation(element)

    #: uses of a base before :meth:`cached_power` builds its table: the cost
    #: of building one, in plain exponentiations, so a base that never comes
    #: back has paid at most twice its plain cost.  The generic 5-bit table is
    #: 1,632 group operations against ~380 for one square-and-multiply
    #: ``__pow__`` of the curve backends, hence 4; :class:`SchnorrGroup`
    #: measures its own.
    PRECOMPUTE_AFTER_USES = 4

    def plain_power(self, base: GroupElement, exponent: int) -> GroupElement:
        """One plain exponentiation (backend hook for accelerated mod-exp)."""
        return base ** exponent

    def cached_power(self, base: GroupElement, exponent: int) -> GroupElement:
        """``base ** exponent``, precomputing a table only for reused bases.

        First uses of a base pay plain exponentiation; once a base has been
        seen :data:`PRECOMPUTE_AFTER_USES` times it is promoted to a windowed
        table (generators and long-lived election/signer keys cross the
        threshold immediately in practice, one-shot keys never do, and the
        cache only ever holds genuinely hot bases).
        """
        key = base.serialize()
        cache = getattr(self, "_fixed_base_cache", None)
        if cache is not None:
            precomputed = cache.get(key)
            if precomputed is not None:
                cache.move_to_end(key)
                return precomputed.power(exponent)
        counts = getattr(self, "_base_use_counts", None)
        if counts is None:
            counts = OrderedDict()
            self._base_use_counts = counts
        counts[key] = counts.get(key, 0) + 1
        if counts[key] >= self.PRECOMPUTE_AFTER_USES:
            del counts[key]
            return self.fixed_base(base).power(exponent)
        counts.move_to_end(key)
        while len(counts) > self.MAX_TRACKED_BASES:
            counts.popitem(last=False)
        return self.plain_power(base, exponent)

    def release_fixed_bases(self, elements: Iterable[GroupElement]) -> None:
        """Drop the tables and promotion counts of ``elements``.

        For bases whose use has ended (a collector key once voting closes).
        The tables are accelerators only: a released base's next powers are
        plain exponentiations with the same values, and it earns a table
        again through :meth:`cached_power`'s promotion rule.  ``g``'s table
        is never dropped: :meth:`power_g` holds it, so dropping it from the
        cache would only make :meth:`fixed_base` build a second copy.
        """
        cache = getattr(self, "_fixed_base_cache", None) or {}
        counts = getattr(self, "_base_use_counts", None) or {}
        kept = self.generator().serialize()
        for element in elements:
            key = element.serialize()
            if key != kept:
                cache.pop(key, None)
                counts.pop(key, None)

    #: ``g``'s fixed-base table, kept by :meth:`power_g` itself: signing,
    #: proving and every audit equation ask for it, and the generator never
    #: changes, so its calls skip the cache's serialization and LRU update
    _g_table: Optional[FixedBasePrecomputation] = None

    def power_g(self, exponent: int) -> GroupElement:
        """``g ** exponent`` through the cached fixed-base table."""
        table = self._g_table
        if table is None:
            table = self._g_table = self.fixed_base(self.generator())
        return table.power(exponent)

    def power_h(self, exponent: int) -> GroupElement:
        """``h ** exponent`` through the cached fixed-base table."""
        return self.fixed_base(self.second_generator()).power(exponent)

    #: fewest terms for which :meth:`multi_power` fills buckets instead of
    #: scanning bits.  Counted in products, the scan pays ``terms * bits / 2``
    #: and the buckets ``ceil(bits / 8) * (terms + 510)``: equal at 170 terms
    #: for any exponent width.  Measured (64- and 255-bit exponents alike) the
    #: curve backend crosses earlier -- secp256k1 at ~85 terms -- since most of
    #: a fold over sparsely filled buckets multiplies by the identity, which is
    #: free there.  128 keeps it within 5 % of its faster side;
    #: :class:`SchnorrGroup` measures its own.
    BUCKET_MIN_TERMS = 128

    def multi_power(self, pairs: Iterable[Tuple[GroupElement, int]]) -> GroupElement:
        """Simultaneous multi-exponentiation: ``prod(base ** exp)``.

        Two evaluations of the same product, chosen from the number of pairs
        alone (:data:`BUCKET_MIN_TERMS`; ``pairs`` is a sized iterable, e.g. a
        list or :class:`Terms`).  Few terms -- the variable-base side of
        Pedersen share verification, a UCERT or endorsement batch, the
        cross-shard commit -- share one square-and-multiply pass over all
        exponent bits, so ``k`` exponentiations cost one chain of squarings
        instead of ``k``.  Many terms -- the aggregated equations of the
        batched audit -- go through the bucket method of Pippenger's
        algorithm with one byte per digit, which replaces the per-term,
        per-bit work of the scan by one product per term per *byte*.
        """
        order = self.order
        bases: List[GroupElement] = []
        exponents: List[int] = []
        for base, exponent in pairs:
            exponent %= order
            if exponent:
                bases.append(base)
                exponents.append(exponent)
        if not bases:
            return self.identity()
        if len(pairs) < self.BUCKET_MIN_TERMS:
            return self._scan_multi_power(bases, exponents)
        return self._bucket_multi_power(bases, exponents)

    def _scan_multi_power(self, bases: List[GroupElement], exponents: List[int]) -> GroupElement:
        """``terms * bits / 2`` products: every term looks at every bit."""
        max_bits = max(exponent.bit_length() for exponent in exponents)
        result = self.identity()
        for bit in range(max_bits - 1, -1, -1):
            result = result * result
            for base, exponent in zip(bases, exponents):
                if (exponent >> bit) & 1:
                    result = result * base
        return result

    def _bucket_multi_power(self, bases: List[GroupElement], exponents: List[int]) -> GroupElement:
        """``ceil(bits / 8) * (terms + 510)`` products.

        The digits of an exponent are its little-endian bytes, as in
        :class:`SchnorrFixedBase`.  Per byte position, most significant
        first: eight squarings shift the result, every base is multiplied
        into the bucket its digit names (digit 0 contributes nothing), and
        the 255 buckets fold into ``prod(bucket[d] ** d)`` by the running
        product -- ``running`` holds ``bucket[255] * ... * bucket[d]`` and is
        multiplied into the total once per ``d``, so ``bucket[d]`` ends up in
        it ``d`` times for 510 products and no exponentiation.
        """
        width = (max(exponent.bit_length() for exponent in exponents) + 7) // 8
        digits = b"".join([exponent.to_bytes(width, "little") for exponent in exponents])
        identity = self.identity()
        result = identity
        for position in range(width - 1, -1, -1):
            for _ in range(8):
                result = result * result
            buckets = [identity] * 256
            # Every ``width``-th byte from ``position``: this digit of each term.
            for base, digit in zip(bases, digits[position::width], strict=True):
                if digit:
                    buckets[digit] = buckets[digit] * base
            running = total = identity
            for digit in range(255, 0, -1):
                running = running * buckets[digit]
                total = total * running
            result = result * total
        return result


class Terms:
    """The factors of one :meth:`Group.multi_power` product as two parallel
    lists.  A caller that builds thousands of terms (the batched audit)
    appends to ``bases`` and ``exponents`` and keeps no ``(base, exponent)``
    tuple per term; the product reads them as pairs, one at a time."""

    __slots__ = ("bases", "exponents")

    def __init__(self) -> None:
        self.bases: List[GroupElement] = []
        self.exponents: List[int] = []

    def __len__(self) -> int:
        return len(self.bases)

    def __iter__(self) -> Iterator[Tuple[GroupElement, int]]:
        return zip(self.bases, self.exponents, strict=True)


# ---------------------------------------------------------------------------
# Multiplicative Schnorr group backend
# ---------------------------------------------------------------------------


#: RFC 3526 2048-bit MODP prime.  It is a safe prime (p = 2q + 1), so it
#: drops into :class:`SchnorrGroup` unchanged with ``g = 4`` generating the
#: order-q quadratic-residue subgroup.  This is the deployment-grade
#: parameterization; the 256-bit default below trades security margin for
#: test speed.  Used by the benchmark sweeps for comparisons against the
#: 256-bit default.
RFC3526_MODP_2048 = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)


@frozen_value
class SchnorrElement(GroupElement):
    """Element of a Schnorr group: the class ``{x, p - x}`` of ``Z_p^*/{±1}``.

    ``value`` is one representative in ``[1, p)``; products and powers run on
    it in ``Z_p^*``.  Only :meth:`serialize`, equality and hashing read the
    class's canonical member ``|x| = min(x, p - x)`` (Hofheinz-Kiltz signed
    quadratic residues).
    """

    value: int
    group: "SchnorrGroup"

    def __mul__(self, other: GroupElement) -> "SchnorrElement":
        assert isinstance(other, SchnorrElement)
        return SchnorrElement((self.value * other.value) % self.group.p, self.group)

    def __pow__(self, exponent: int) -> "SchnorrElement":
        return SchnorrElement(
            pow(self.value, exponent % self.group.order, self.group.p), self.group
        )

    def inverse(self) -> "SchnorrElement":
        return SchnorrElement(pow(self.value, -1, self.group.p), self.group)

    def serialize(self) -> bytes:
        p = self.group.p
        value = int(self.value)
        return b"S" + min(value, p - value).to_bytes((p.bit_length() + 7) // 8, "big")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SchnorrElement):
            return False
        v, w = self.value, other.value
        return v == w or v + w == self.group.p

    def __hash__(self) -> int:
        return hash(("schnorr", min(self.value, self.group.p - self.value)))


class SchnorrGroup(Group):
    """The group ``Z_p^*/{±1}`` of prime order ``q``, ``p = 2q + 1`` (safe prime).

    ``q`` is odd, so ``p ≡ 3 (mod 4)`` and ``-1`` is not a square: each class
    ``{x, p - x}`` holds exactly one quadratic residue, and the quotient is
    isomorphic to the order-``q`` subgroup ``QR_p``.  Every value in
    ``[1, q]`` encodes one element, so a decoded element needs no membership
    check.

    The default parameters use a 256-bit safe prime, which keeps pure-Python
    exponentiation fast enough for full end-to-end election tests while still
    being an actual DDH-hard group.
    """

    # 256-bit safe prime p = 2q + 1 (q prime), generated with a Miller-Rabin
    # search (docs/ARCHITECTURE.md, "Deviations from the paper").  g = 2^2 is
    # a quadratic residue and therefore generates the order-q subgroup.
    _DEFAULT_P = 0x9F9B41D4CD3CC3DB42914B1DF5F84DA30C82ED1E4728E754FDA103B8924619F3
    _DEFAULT_G = 4

    #: see :data:`Group.PRECOMPUTE_AFTER_USES`.  Measured at the default
    #: modulus: a :class:`SchnorrFixedBase` table builds in 3.8-4.4 ms, one
    #: builtin ``pow`` takes 118-130 us, so a table costs 29-37 of them.  The
    #: long-lived keys of an election are used hundreds of times and cross
    #: this within the first ballots; what it protects is the many small
    #: elections of the test suite, whose keys never earn a 4 ms table.
    PRECOMPUTE_AFTER_USES = 32

    def __init__(self, p: Optional[int] = None, g: Optional[int] = None):
        self.p = p if p is not None else self._DEFAULT_P
        self.order = (self.p - 1) // 2
        self.element_bytes = (self.p.bit_length() + 7) // 8 + 1
        base = g if g is not None else self._DEFAULT_G
        self._g = self.element(base)
        self._h = self._derive_second_generator()

    def _derive_second_generator(self) -> "SchnorrElement":
        # Hash the generator to obtain an independent element of the subgroup.
        seed = sha256(b"d-demos-second-generator", self._g.serialize())
        candidate = int.from_bytes(seed, "big") % self.p
        # Square to force membership in the order-q subgroup of QRs.
        value = pow(candidate, 2, self.p)
        if value in (0, 1):
            value = pow(self._DEFAULT_G + 1, 2, self.p)
        return self.element(value)

    def generator(self) -> SchnorrElement:
        return self._g

    def second_generator(self) -> SchnorrElement:
        return self._h

    def identity(self) -> SchnorrElement:
        return self.element(1)

    def element(self, value: int) -> SchnorrElement:
        """Wrap an integer (assumed to be a subgroup member) as an element."""
        return SchnorrElement(value % self.p, self)

    def deserialize(self, data: bytes) -> SchnorrElement:
        # One encoding per element: exact length, |x| in [1, q], no reduction.
        if not data.startswith(b"S"):
            raise ValueError("not a Schnorr group element")
        if len(data) != self.element_bytes:
            raise ValueError(f"Schnorr elements are exactly {self.element_bytes} bytes")
        value = int.from_bytes(data[1:], "big")
        if not 1 <= value <= self.order:
            raise ValueError("Schnorr element out of range [1, q]")
        return self.element(value)

    def _build_fixed_base(self, element: SchnorrElement) -> "SchnorrFixedBase":
        return SchnorrFixedBase(element)

    #: see :data:`Group.BUCKET_MIN_TERMS`.  Measured at the default modulus on
    #: bare residues (scan / buckets, ms): 64-bit exponents 48 terms 0.91 /
    #: 1.24, 64 terms 1.26 / 1.32, 80 terms 1.53 / 1.38, 1,680 terms 31.2 /
    #: 7.6; 255-bit exponents cross at the same count (64 terms 5.0 / 5.2, 80
    #: terms 6.2 / 5.4).  Earlier than the 170 of the product count: the scan
    #: also pays a Python-level shift and mask per term per bit.
    BUCKET_MIN_TERMS = 72

    def multi_power(self, pairs: Iterable[Tuple[GroupElement, int]]) -> SchnorrElement:
        """:meth:`Group.multi_power` on bare residues modulo ``p``."""
        order = self.order
        values: List[int] = []
        exponents: List[int] = []
        for base, exponent in pairs:
            exponent %= order
            if exponent:
                values.append(base.value)
                exponents.append(exponent)
        if not values:
            return self.identity()
        if len(pairs) < self.BUCKET_MIN_TERMS:
            return SchnorrElement(self._scan_multi_power(values, exponents), self)
        return SchnorrElement(self._bucket_multi_power(values, exponents), self)

    def _scan_multi_power(self, values: List[int], exponents: List[int]) -> int:
        p = self.p
        max_bits = max(exponent.bit_length() for exponent in exponents)
        accumulator = 1
        for bit in range(max_bits - 1, -1, -1):
            accumulator = accumulator * accumulator % p
            for value, exponent in zip(values, exponents):
                if (exponent >> bit) & 1:
                    accumulator = accumulator * value % p
        return accumulator

    def _bucket_multi_power(self, values: List[int], exponents: List[int]) -> int:
        p = self.p
        width = (max(exponent.bit_length() for exponent in exponents) + 7) // 8
        digits = b"".join([exponent.to_bytes(width, "little") for exponent in exponents])
        accumulator = 1
        for position in range(width - 1, -1, -1):
            for _ in range(8):
                accumulator = accumulator * accumulator % p
            buckets = [1] * 256
            for value, digit in zip(values, digits[position::width], strict=True):
                if digit:
                    buckets[digit] = buckets[digit] * value % p
            running = total = 1
            for digit in range(255, 0, -1):
                running = running * buckets[digit] % p
                total = total * running % p
            accumulator = accumulator * total % p
        return accumulator


class SchnorrFixedBase(FixedBasePrecomputation):
    """Fixed-base table over bare residues modulo ``p``, one byte per digit.

    Rows hold plain integers instead of :class:`SchnorrElement` wrappers, and
    the window is fixed at 8 bits so the digits of an exponent are exactly its
    little-endian bytes: one ``to_bytes`` call replaces the per-digit bigint
    shift and mask.  Geometry at a 256-bit modulus: 32 rows of 256 residues
    (8,192 entries, 0.56 MB), built with 8,192 modular products in ~3.8 ms,
    i.e. ~30 builtin ``pow`` calls (:data:`SchnorrGroup.PRECOMPUTE_AFTER_USES`);
    a lookup is at most 32 products, ~15 us against ~130 us for ``pow``
    (8x; measured on the 2.1 GHz Xeon of ``benchmarks/e2e/README.md``).
    The bucket side of :meth:`SchnorrGroup.multi_power` cuts its exponents
    into the same digits.
    Entries and entry size both grow with the modulus: a 2048-bit table is
    65,536 residues of 256 bytes each.
    """

    #: integer type of the modulus and the table rows (``mpz`` under gmpy2)
    _integer = int

    def __init__(self, base: "SchnorrElement"):
        super().__init__(base, window=8)

    def _build_table(self) -> list:
        p = self._p = self._integer(self.group.p)
        one = self._one = self._integer(1)
        current = self._integer(self.base.value)
        table = []
        for _ in range(self.num_digits):
            row = [one]
            for _ in range(self.mask):
                row.append(row[-1] * current % p)
            table.append(row)
            current = row[-1] * current % p
        return table

    def power(self, exponent: int) -> SchnorrElement:
        p = self._p
        accumulator = self._one
        digits = int(exponent % self.group.order).to_bytes(self.num_digits, "little")
        for row, digit in zip(self.table, digits):
            if digit:
                accumulator = accumulator * row[digit] % p
        # The element class of the base, so gmpy2 tables return gmpy2 elements.
        return type(self.base)(accumulator, self.group)


# ---------------------------------------------------------------------------
# Elliptic curve backend (secp256k1 parameters)
# ---------------------------------------------------------------------------


_SECP256K1_P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
_SECP256K1_A = 0
_SECP256K1_B = 7
_SECP256K1_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_SECP256K1_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_SECP256K1_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8


@frozen_value
class EcPoint(GroupElement):
    """Affine point on the curve; ``None`` coordinates encode infinity."""

    x: Optional[int]
    y: Optional[int]
    group: "EcGroup"

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __mul__(self, other: GroupElement) -> "EcPoint":
        assert isinstance(other, EcPoint)
        return self.group._add(self, other)

    def __pow__(self, exponent: int) -> "EcPoint":
        return self.group._scalar_mul(self, exponent % self.group.order)

    def inverse(self) -> "EcPoint":
        if self.is_infinity:
            return self
        return EcPoint(self.x, (-self.y) % self.group.p, self.group)

    def serialize(self) -> bytes:
        if self.is_infinity:
            return b"E\x00"
        return b"E\x04" + self.x.to_bytes(32, "big") + self.y.to_bytes(32, "big")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EcPoint) and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash(("ec", self.x, self.y))


class EcGroup(Group):
    """secp256k1 written multiplicatively (point addition is ``*``)."""

    def __init__(self):
        self.p = _SECP256K1_P
        self.a = _SECP256K1_A
        self.b = _SECP256K1_B
        self.order = _SECP256K1_N
        self._g = EcPoint(_SECP256K1_GX, _SECP256K1_GY, self)
        self._infinity = EcPoint(None, None, self)
        self._h = self._derive_second_generator()

    # -- basic point arithmetic ------------------------------------------------

    def _add(self, p1: EcPoint, p2: EcPoint) -> EcPoint:
        if p1.is_infinity:
            return p2
        if p2.is_infinity:
            return p1
        if p1.x == p2.x and (p1.y + p2.y) % self.p == 0:
            return self._infinity
        if p1.x == p2.x:
            slope = (3 * p1.x * p1.x + self.a) * pow(2 * p1.y, -1, self.p) % self.p
        else:
            slope = (p2.y - p1.y) * pow(p2.x - p1.x, -1, self.p) % self.p
        x3 = (slope * slope - p1.x - p2.x) % self.p
        y3 = (slope * (p1.x - x3) - p1.y) % self.p
        return EcPoint(x3, y3, self)

    def _scalar_mul(self, point: EcPoint, scalar: int) -> EcPoint:
        result = self._infinity
        addend = point
        while scalar:
            if scalar & 1:
                result = self._add(result, addend)
            addend = self._add(addend, addend)
            scalar >>= 1
        return result

    # -- Group interface -------------------------------------------------------

    def generator(self) -> EcPoint:
        return self._g

    def second_generator(self) -> EcPoint:
        return self._h

    def identity(self) -> EcPoint:
        return self._infinity

    def _derive_second_generator(self) -> EcPoint:
        """Hash-to-curve by incrementing an x candidate until it is on-curve."""
        counter = 0
        while True:
            digest = sha256(b"d-demos-ec-h", counter.to_bytes(4, "big"))
            x = int.from_bytes(digest, "big") % self.p
            rhs = (pow(x, 3, self.p) + self.a * x + self.b) % self.p
            y = pow(rhs, (self.p + 1) // 4, self.p)
            if (y * y) % self.p == rhs:
                return EcPoint(x, y, self)
            counter += 1

    def is_on_curve(self, point: EcPoint) -> bool:
        """Check whether an affine point satisfies the curve equation."""
        if point.is_infinity:
            return True
        lhs = (point.y * point.y) % self.p
        rhs = (pow(point.x, 3, self.p) + self.a * point.x + self.b) % self.p
        return lhs == rhs

    def deserialize(self, data: bytes) -> EcPoint:
        if data == b"E\x00":
            return self._infinity
        if len(data) != 66 or not data.startswith(b"E\x04"):
            raise ValueError("not an EC point encoding")
        x = int.from_bytes(data[2:34], "big")
        y = int.from_bytes(data[34:66], "big")
        point = EcPoint(x, y, self)
        if x >= self.p or y >= self.p or not self.is_on_curve(point):
            raise ValueError("not a point on secp256k1")
        return point


_DEFAULT_GROUP: Optional[SchnorrGroup] = None


def default_group() -> SchnorrGroup:
    """Return the process-wide default group (pure-python Schnorr backend)."""
    global _DEFAULT_GROUP
    if _DEFAULT_GROUP is None:
        _DEFAULT_GROUP = SchnorrGroup()
        _DEFAULT_GROUP.backend_name = "schnorr"
    return _DEFAULT_GROUP
