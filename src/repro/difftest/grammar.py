"""Seeded generative input grammar for the differential fuzzer.

Every case is a ``(reference, query, params)`` triple drawn from one of
the adversarial *families* the GenASM/Scrooge line of work reports as the
inputs where approximate or windowed kernels silently drift from full DP:

* ``uniform`` — i.i.d. bases, query either unrelated or a mutated window;
* ``gc_skew`` — strongly AT- or GC-biased composition (repeat-prone);
* ``homopolymer`` — long single-base runs, indels placed inside runs;
* ``tandem_repeat`` — short units copied many times, query gains/loses
  whole unit copies (the classic band-escape shape);
* ``edit_burst`` — query is the reference with exactly ``k`` or ``k+1``
  clustered edits, straddling the K boundary of bounded kernels;
* ``rev_comp`` — query is the reverse complement of a mutated window
  (exercises strand normalization in seeding/mapping pairs).

Scenario families added with the long-read/paired-end workloads:

* ``long_read_indel`` — long mutated windows under an indel-dominated
  (~10%, 3/4 indels) error process, the nanopore shape that drifts
  windowed kernels off their diagonal;
* ``paired_end`` — the mate-rescue geometry: the query is one FR mate
  (forward head or reverse-complemented tail of a fragment window) with
  light errors, searched inside an insert-sized reference.

Determinism contract: every draw flows from one ``random.Random`` seeded
with ``"{seed}:{pair}:{index}"``, so any single case can be regenerated
from its coordinates alone — replay and shrinking never need the whole
stream.  Pairs that predate spec-scoped rotation keep their historic
six-family rotation (``CLASSIC_FAMILIES``) byte-identical; new pairs pin
their family set via ``GenSpec.families``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.genome.sequence import random_dna, reverse_complement

DNA = "ACGT"

#: Params every case carries; pairs consume the keys they care about.
#: ``k`` is the edit bound, ``band`` the banded-DP half-width, ``smem_k``
#: the seeding k-mer size.
PARAM_KEYS: Tuple[str, ...] = ("k", "band", "smem_k")


@dataclass(frozen=True)
class DiffCase:
    """One differential-test input: two sequences plus kernel parameters."""

    family: str
    reference: str
    query: str
    params: Dict[str, int] = field(default_factory=dict)

    def param(self, key: str) -> int:
        try:
            return self.params[key]
        except KeyError:
            raise KeyError(f"case has no param {key!r} (has {sorted(self.params)})")

    def replace(
        self,
        reference: Optional[str] = None,
        query: Optional[str] = None,
        params: Optional[Dict[str, int]] = None,
    ) -> "DiffCase":
        """A copy with the given fields replaced (params is copied)."""
        return DiffCase(
            family=self.family,
            reference=self.reference if reference is None else reference,
            query=self.query if query is None else query,
            params=dict(self.params if params is None else params),
        )


@dataclass(frozen=True)
class GenSpec:
    """Size envelope a pair requests from the grammar."""

    ref_len: Tuple[int, int] = (0, 48)
    query_len: Tuple[int, int] = (0, 40)
    #: Force the query to be derived from the reference (a mutated window)
    #: rather than occasionally independent — mapping pairs need reads that
    #: genuinely come from their genome.
    related_query: bool = False
    #: Lower bound on k (bounded kernels often reject k=0 inputs poorly;
    #: seeding pairs need smem_k <= query length).
    min_k: int = 0
    #: The family rotation for this pair.  ``None`` keeps the historic
    #: six-family rotation (``CLASSIC_FAMILIES``) so pre-existing pairs'
    #: case streams stay byte-identical; scenario pairs pin their own set.
    families: Optional[Tuple[str, ...]] = None


def _length(rng: random.Random, bounds: Tuple[int, int]) -> int:
    lo, hi = bounds
    return rng.randint(lo, hi)


def _mutate(
    rng: random.Random, sequence: str, edits: int, window: int = 0
) -> str:
    """Apply *edits* random single-base edits; cluster them when *window* > 0."""
    bases = list(sequence)
    if window and bases:
        center = rng.randrange(len(bases))
        lo = max(0, center - window)
        hi = min(len(bases), center + window)
    else:
        lo, hi = 0, len(bases)
    for _ in range(edits):
        if not bases:
            bases.append(rng.choice(DNA))
            continue
        hi_eff = min(hi, len(bases))
        lo_eff = min(lo, hi_eff - 1)
        position = rng.randrange(lo_eff, max(lo_eff + 1, hi_eff))
        roll = rng.random()
        if roll < 0.5:
            bases[position] = rng.choice([b for b in DNA if b != bases[position]])
        elif roll < 0.75:
            bases.insert(position, rng.choice(DNA))
        else:
            del bases[position]
    return "".join(bases)


def _window(rng: random.Random, reference: str, bounds: Tuple[int, int]) -> str:
    """A random window of *reference* whose length fits *bounds*."""
    if not reference:
        return ""
    length = min(_length(rng, bounds), len(reference))
    if length <= 0:
        return ""
    start = rng.randint(0, len(reference) - length)
    return reference[start : start + length]


def _derive_query(
    rng: random.Random, reference: str, spec: GenSpec, max_edits: int
) -> str:
    """A query related to the reference: mutated window, sometimes pristine."""
    window = _window(rng, reference, spec.query_len)
    edits = rng.randint(0, max_edits)
    return _mutate(rng, window, edits)


def _gen_uniform(rng: random.Random, spec: GenSpec) -> Tuple[str, str]:
    reference = random_dna(_length(rng, spec.ref_len), rng)
    if spec.related_query or rng.random() < 0.5:
        query = _derive_query(rng, reference, spec, max_edits=4)
    else:
        query = random_dna(_length(rng, spec.query_len), rng)
    return reference, query


def _gen_gc_skew(rng: random.Random, spec: GenSpec) -> Tuple[str, str]:
    gc = rng.choice((0.05, 0.1, 0.9, 0.95))
    reference = random_dna(_length(rng, spec.ref_len), rng, gc=gc)
    if spec.related_query or rng.random() < 0.7:
        query = _derive_query(rng, reference, spec, max_edits=4)
    else:
        query = random_dna(_length(rng, spec.query_len), rng, gc=gc)
    return reference, query


def _gen_homopolymer(rng: random.Random, spec: GenSpec) -> Tuple[str, str]:
    target = _length(rng, spec.ref_len)
    chunks: List[str] = []
    total = 0
    while total < target:
        run = rng.randint(3, 12)
        base = rng.choice(DNA)
        chunks.append(base * run)
        total += run
    reference = "".join(chunks)[:target]
    # Indels inside runs are invisible to positional anchors: the classic
    # homopolymer drift shape.
    query = _derive_query(rng, reference, spec, max_edits=5)
    return reference, query


def _gen_tandem_repeat(rng: random.Random, spec: GenSpec) -> Tuple[str, str]:
    unit = random_dna(rng.randint(2, 6), rng)
    if not unit:
        unit = "AC"
    target = _length(rng, spec.ref_len)
    copies = max(1, target // len(unit) + 1)
    reference = (unit * copies)[:target]
    window = _window(rng, reference, spec.query_len)
    # Gain or lose whole unit copies, then sprinkle point edits: the query
    # aligns equally well at many diagonals (band-escape / tie-break shape).
    delta = rng.randint(-2, 2)
    if delta > 0:
        window = unit * delta + window
    elif delta < 0:
        window = window[len(unit) * -delta :]
    query = _mutate(rng, window, rng.randint(0, 2))
    return reference, query


def _gen_edit_burst(rng: random.Random, spec: GenSpec) -> Tuple[str, str]:
    reference = random_dna(_length(rng, spec.ref_len), rng)
    window = _window(rng, reference, spec.query_len)
    return reference, window  # edits applied after k is drawn, in generate()


def _gen_rev_comp(rng: random.Random, spec: GenSpec) -> Tuple[str, str]:
    reference = random_dna(_length(rng, spec.ref_len), rng)
    window = _window(rng, reference, spec.query_len)
    query = reverse_complement(_mutate(rng, window, rng.randint(0, 3)))
    return reference, query


def _mutate_indel(rng: random.Random, sequence: str, edits: int) -> str:
    """Apply *edits* indel-dominated random edits (1/4 sub, 3/4 indel)."""
    bases = list(sequence)
    for _ in range(edits):
        if not bases:
            bases.append(rng.choice(DNA))
            continue
        position = rng.randrange(len(bases))
        roll = rng.random()
        if roll < 0.25:
            bases[position] = rng.choice(
                [b for b in DNA if b != bases[position]]
            )
        elif roll < 0.625:
            bases.insert(position, rng.choice(DNA))
        else:
            del bases[position]
    return "".join(bases)


def _gen_long_read_indel(rng: random.Random, spec: GenSpec) -> Tuple[str, str]:
    reference = random_dna(_length(rng, spec.ref_len), rng)
    # One case in eight is an unrelated read (a wrong-locus chain): its
    # near-random distance must be *rejected* by the adaptive gate, so
    # the gate's reject branch is exercised, not just its admit branch.
    if rng.random() < 0.125:
        return reference, random_dna(_length(rng, spec.query_len), rng)
    window = _window(rng, reference, spec.query_len)
    # ~10% of the window edited, three quarters of those indels: the
    # nanopore error mix at generative scale.
    edits = rng.randint(0, max(1, len(window) // 10))
    return reference, _mutate_indel(rng, window, edits)


def _gen_paired_end(rng: random.Random, spec: GenSpec) -> Tuple[str, str]:
    reference = random_dna(_length(rng, spec.ref_len), rng)
    fragment = _window(rng, reference, spec.ref_len)
    lo, hi = spec.query_len
    mate_len = min(max(1, _length(rng, (max(lo, 1), max(hi, 1)))), max(1, len(fragment)))
    if rng.random() < 0.5:
        mate = fragment[:mate_len]  # forward head of the fragment
    else:
        mate = reverse_complement(fragment[-mate_len:])  # FR tail mate
    return reference, _mutate(rng, mate, rng.randint(0, 3))


#: A family draws a (reference, query) pair.
Family = Callable[[random.Random, GenSpec], Tuple[str, str]]

#: The historic rotation pairs without ``GenSpec.families`` still use —
#: frozen so registering new families never perturbs their case streams.
CLASSIC_FAMILIES: Tuple[str, ...] = (
    "uniform",
    "gc_skew",
    "homopolymer",
    "tandem_repeat",
    "edit_burst",
    "rev_comp",
)

#: Registration order is the rotation order — stable and explicit.
FAMILIES: Dict[str, Family] = {
    "uniform": _gen_uniform,
    "gc_skew": _gen_gc_skew,
    "homopolymer": _gen_homopolymer,
    "tandem_repeat": _gen_tandem_repeat,
    "edit_burst": _gen_edit_burst,
    "rev_comp": _gen_rev_comp,
    "long_read_indel": _gen_long_read_indel,
    "paired_end": _gen_paired_end,
}


class CaseGenerator:
    """Deterministic case stream for one (seed, pair) coordinate."""

    def __init__(self, seed: int, pair_name: str, spec: GenSpec) -> None:
        self.seed = seed
        self.pair_name = pair_name
        self.spec = spec

    def case_seed(self, index: int) -> str:
        """The ``random.Random`` seed string for case *index*."""
        return f"{self.seed}:{self.pair_name}:{index}"

    def generate(self, index: int) -> DiffCase:
        """Regenerate case *index* from scratch (independent of siblings)."""
        rng = random.Random(self.case_seed(index))
        rotation = (
            CLASSIC_FAMILIES
            if self.spec.families is None
            else self.spec.families
        )
        family_name = rotation[index % len(rotation)]
        reference, query = FAMILIES[family_name](rng, self.spec)
        params = {
            "k": rng.randint(max(self.spec.min_k, 0), 8),
            "band": rng.randint(1, 6),
            "smem_k": rng.randint(3, 6),
        }
        if family_name == "edit_burst" and query:
            # Exactly k or k+1 clustered edits: straddle the K boundary.
            edits = params["k"] + rng.randint(0, 1)
            query = _mutate(rng, query, edits, window=max(2, params["k"]))
        return DiffCase(
            family=family_name, reference=reference, query=query, params=params
        )

    def cases(self, count: int) -> List[DiffCase]:
        return [self.generate(index) for index in range(count)]
