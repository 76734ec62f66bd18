"""Instance texts, and independent re-derivation of order facts used to
check program outputs.

Nothing here imports the package under test.  Cones come from a transitive
closure computed in this file, and every ideal (filter) of a finite poset is
a principal down-cone (up-cone), so each classification reduces to a lookup
among the n cones.  ``check`` returns ``None`` for a correct output or a
one-line reason for a wrong one.
"""

from __future__ import annotations

import functools
import json
import random

#: statement tags in the package's fixed report order
TAGS = (
    "LEM_BOOLEAN",
    "LEM_CL_PRIME",
    "LEM_CL_PRINCIPAL",
    "LEM_PROPER_PAIR",
    "PROP_PROPER_EQUIV",
    "LEM_CIDEAL_DD",
    "LEM_TRIPLE_A0",
    "THM_F0_CIDEAL",
    "COR_INVOLUTION",
    "REM_PRINCIPAL_L0",
    "LEM_PRIME_CCOND",
    "THM5_I_II",
    "THM5_II_III_IV_I",
    "THM5_V_VI",
    "THM5_III_VI_VII_V",
    "LEM_JOINSEMI_LU",
    "THM_SEP1",
    "COR_SEP1_PRIME",
    "THM_SEP2",
)


def bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if (mask >> i) & 1]


def sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """The package's documented subset order: by size, then lexicographic."""
    return (mask.bit_count(), tuple(bits(mask)))


def parse(text: str) -> tuple[str, list[str], list[tuple[str, str]], list[tuple[str, str]]]:
    """(name, elements, le pairs, comp pairs) of instance text in the documented format."""
    name, elements, le, comp = "", [], [], []
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        parts = rest.split()
        if key == "name":
            name = parts[0]
        elif key == "elements":
            elements = parts
        elif key == "le":
            le.append((parts[0], parts[2]))
        elif key == "comp":
            comp.append((parts[0], parts[2]))
    return name, elements, le, comp


def instance_text(name: str, elements, le, comp) -> str:
    """Instance text in the documented format."""
    lines = [f"name: {name}", "elements: " + " ".join(elements)]
    lines += [f"le: {a} < {b}" for a, b in le]
    lines += [f"comp: {a} -> {b}" for a, b in comp]
    return "\n".join(lines) + "\n"


def relabel(text: str, rng: random.Random) -> str:
    """The same instance under fresh element names, with the elements, the
    order pairs and the complement lines each in a seeded order."""
    name, elements, le, comp = parse(text)
    fresh = dict(zip(elements, (f"e{v}" for v in rng.sample(range(10000, 100000), len(elements)))))
    elements = [fresh[e] for e in elements]
    le = [(fresh[a], fresh[b]) for a, b in le]
    comp = [(fresh[a], fresh[b]) for a, b in comp]
    for part in (elements, le, comp):
        rng.shuffle(part)
    return instance_text(name, elements, le, comp)


def antichain(k: int) -> str:
    """Bounds plus a k-antichain whose complement shifts each middle element by one."""
    mids = [f"x{i}" for i in range(1, k + 1)]
    le = [("0", m) for m in mids] + [(m, "1") for m in mids]
    comp = [("0", "1"), ("1", "0")] + [(m, mids[i % k]) for i, m in enumerate(mids, start=1)]
    return instance_text(f"antichain-k{k:02d}", ["0", *mids, "1"], le, comp)


def boolean_lattice(dim: int) -> str:
    """All subsets of a dim-set under inclusion, with set complement."""
    names = [f"s{m:0{dim}b}" for m in range(1 << dim)]
    full = (1 << dim) - 1
    le = [(names[m], names[m | 1 << b]) for m in range(1 << dim) for b in range(dim) if not m >> b & 1]
    comp = [(names[m], names[full ^ m]) for m in range(1 << dim)]
    return instance_text(f"B{dim}", names, le, comp)


class Order:
    """A complemented finite poset rebuilt from instance text."""

    def __init__(self, text: str):
        self.name, self.names, le, comp = parse(text)
        index = {e: i for i, e in enumerate(self.names)}
        n = self.n = len(self.names)
        down = [1 << i for i in range(n)]
        for a, b in le:
            down[index[b]] |= 1 << index[a]
        for k in range(n):  # Warshall closure on bitmask rows
            for j in range(n):
                if (down[j] >> k) & 1:
                    down[j] |= down[k]
        self.down = down
        self.up = [sum(1 << j for j in range(n) if (down[j] >> i) & 1) for i in range(n)]
        self.all = (1 << n) - 1
        table = {index[a]: index[b] for a, b in comp}
        self.comp = [table[x] for x in range(n)]
        self.ideals = {m: g for g, m in enumerate(down)}
        self.filters = {m: g for g, m in enumerate(self.up)}

    def le(self, x: int, y: int) -> bool:
        return bool((self.down[y] >> x) & 1)

    def lower(self, mask: int) -> int:
        out = self.all
        for x in bits(mask):
            out &= self.down[x]
        return out

    def upper(self, mask: int) -> int:
        out = self.all
        for x in bits(mask):
            out &= self.up[x]
        return out

    def preimage(self, mask: int) -> int:
        return sum(1 << x for x in range(self.n) if (mask >> self.comp[x]) & 1)

    def c_condition(self, mask: int) -> bool:
        return all(
            (mask & ((1 << x) | (1 << self.comp[x]))).bit_count() == 1 for x in range(self.n)
        )

    def prime(self, mask: int, cones: list[int], family: dict[int, int]) -> bool:
        """Proper member of ``family`` such that cone(x) & cone(y) inside it
        forces x or y inside it."""
        if mask not in family or mask == self.all:
            return False
        return all(
            (cones[x] & cones[y]) & ~mask or ((1 << x) | (1 << y)) & mask
            for x in range(self.n)
            for y in range(x, self.n)
        )

    def maximal(self, mask: int, family: dict[int, int]) -> bool:
        if mask not in family or mask == self.all:
            return False
        return not any(m != self.all and m != mask and not mask & ~m for m in family)

    def first_witness(self, mask: int, family: dict[int, int]) -> int | None:
        hits = [m for m in family if self.preimage(m) == mask]
        return min(hits, key=sort_key) if hits else None

    @functools.cached_property
    def antitone(self) -> bool:
        return all(
            self.le(self.comp[y], self.comp[x])
            for y in range(self.n)
            for x in bits(self.down[y])
        )

    @functools.cached_property
    def x_le_xdd(self) -> bool:
        return all(self.le(x, self.comp[self.comp[x]]) for x in range(self.n))

    @functools.cached_property
    def distributive(self) -> bool:
        """L(U(x,y), z) = LU(L(x,z), L(y,z)) for every triple."""
        d, u = self.down, self.up
        for x in range(self.n):
            for y in range(self.n):
                lxy = self.lower(u[x] & u[y])
                for z in range(self.n):
                    rhs = self.lower(self.upper((d[x] & d[z]) | (d[y] & d[z])))
                    if lxy & d[z] != rhs:
                        return False
        return True

    def has_meet(self, x: int, y: int) -> bool:
        common = self.down[x] & self.down[y]
        return any(self.down[g] == common for g in bits(common))

    def mask(self, token: str) -> int:
        """Mask of a ``{a,b}`` set literal of a report."""
        inner = token[1:-1]
        return sum(1 << self.names.index(e) for e in inner.split(",")) if inner else 0

    # -- expected results -----------------------------------------------------

    def classification(self, mask: int) -> dict:
        """Every field of the package's SubsetClassification for ``mask``."""
        ideal, filt = mask in self.ideals, mask in self.filters
        generator = self.ideals[mask] if ideal else self.filters[mask] if filt else None
        return {
            "subject": mask,
            "is_ideal": ideal,
            "is_filter": filt,
            "proper": (ideal or filt) and mask != self.all,
            "principal_generator": generator,
            "maximal_ideal": self.maximal(mask, self.ideals),
            "prime_ideal": self.prime(mask, self.down, self.ideals),
            "ultrafilter": self.maximal(mask, self.filters),
            "prime_filter": self.prime(mask, self.up, self.filters),
            "c_ideal_witness": self.first_witness(mask, self.filters) if ideal else None,
            "c_filter_witness": self.first_witness(mask, self.ideals) if filt else None,
            "c_condition": self.c_condition(mask),
        }

    def separation(self, ideal: int, filt: int, mode: str) -> dict:
        """Witness or first failed hypothesis, in the documented check order."""
        failure = None
        if mode == "second":
            if not self.distributive:
                failure = "NotDistributive"
            elif not self.antitone:
                failure = "NotAntitone"
            elif not self.maximal(filt, self.filters):
                failure = "NotUltrafilter"
            elif not all(self.has_meet(x, self.filters[filt]) for x in bits(self.all & ~filt)):
                failure = "MeetMissing"
        elif not self.antitone:
            failure = "NotAntitone"
        elif not self.x_le_xdd:
            failure = "XLeXddFails"
        elif mode == "prime" and not self.prime(filt, self.up, self.filters):
            failure = "NotPrime"
        elif mode == "first" and not self.c_condition(filt):
            failure = "NoCCondition"
        if failure is None and ideal & filt:
            failure = "NotDisjoint"
        return {"witness": None if failure else self.preimage(filt), "failure": failure}


def _check_theorem_rows(rows: list[list], tags: tuple[str, ...]) -> str | None:
    if [row[0] for row in rows] != list(tags):
        return "statement rows out of order or missing"
    for tag, _hyp, conclusion, counterexample, *_ in rows:
        if conclusion is False or counterexample is not None:
            return f"{tag} reports a counterexample {counterexample}"
    return None


def _check_report(order: Order, output: str) -> str | None:
    rows = {"ideal": [], "filter": []}
    theorems = []
    for line in output.splitlines():
        key, _, rest = line.partition(": ")
        fields = dict(chunk.partition("=")[::2] for chunk in rest.split())
        if key in rows:
            rows[key].append(fields)
        elif key == "theorem":
            theorems.append(fields)
    for kind, cones in (("ideal", order.down), ("filter", order.up)):
        found = rows[kind]
        if len(found) != order.n:
            return f"{len(found)} {kind} rows, expected {order.n}"
        for fields in found:
            # the package names the ideal reading first, so U(bottom) = L(top) shows top
            generator = fields["principal"]
            if generator not in order.names:
                return f"{kind} {fields['set']} has no principal generator"
            g = order.names.index(generator)
            if order.mask(fields["set"]) not in (order.down[g], order.up[g]):
                return f"{kind} {fields['set']} is not a principal cone of {generator}"
        if {order.mask(f["set"]) for f in found} != set(cones):
            return f"{kind} rows are not the {order.n} principal cones"
    if [t["tag"] for t in theorems] != list(TAGS):
        return "statement rows out of order or missing"
    for t in theorems:
        if t["conclusion"] == "false" or t["counterexample"] != "none":
            return f"{t['tag']} reports a counterexample {t['counterexample']}"
    return None


def check(op: dict, order: Order, code: int | None, output: str) -> str | None:
    """Reason why ``output`` of ``op`` on ``order`` is wrong, or None."""
    kind = op["kind"]
    if kind == "analyze":
        if code != 0:
            return f"exit code {code}, expected 0"
        return _check_report(order, output)
    if kind == "run_all":
        return _check_theorem_rows([json.loads(line) for line in output.splitlines()], TAGS)
    if kind == "check":
        return _check_theorem_rows([json.loads(output)], (op["tag"],))
    got = json.loads(output)
    if kind == "classify":
        want = order.classification(op["mask"])
    else:
        want = order.separation(op["ideal"], op["filter"], op["mode"])
        got = {"witness": got["witness"], "failure": got["failure"]}
    if got != want:
        return f"got {got}, expected {want}"
    return None
