"""The benchmark workloads and the CLI verb script: inputs, operations, checks.

Each workload builds its inputs from the run seed in ``setup`` and then
runs operations by index: ``spec`` derives operation i from the seed,
``run`` makes the timed calls into usokit (every call goes through the
tracer, so the traced run sees each layer boundary), and ``check`` verifies
the outputs afterwards, outside the timed region.  A check returns the list
of problems (empty when the operation is correct) and a digest of the
outputs, which the runner compares with the committed golden digests.

Operations run in rounds of ``round_size``; a run stops only at a round
boundary, so every run has the same mix of operation classes and the
percentiles fall at the same place in that mix.

Only usokit's public names are used.  Every random choice comes from
``random.Random`` seeded with the run seed, so the same seed gives the same
inputs and the same operations.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import usokit as uk

H3 = (1, 2, 3)
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# Worked examples of the acceptance criteria 01-03 (the README's rules).
EX_RULE = uk.SimpleRule(
    2,
    uk.PartialTileSet.from_strings(["01"]),
    uk.PartialTileSet.from_strings(["11", "31"]),
    uk.PartialTileSet.from_strings(["03", "20", "22"]),
    uk.PartialTileSet.from_strings(["33", "13"]),
)
EX_INPUT = ["10", "30", "02", "22"]
EX_OUTPUT = ["110", "310", "130", "330", "012", "032", "202", "222"]
PS_INPUT = ["110", "310", "012", "202", "031", "230", "033", "222"]
PS_OUTPUT = ["130", "330", "032", "202", "011", "210", "013", "222"]
UNI_TARGET = ["101", "103", "020", "122", "220", "300", "312", "332"]
UNI_LABELS = {"01": 2, "03": 1, "20": 2, "22": 1}
COUNT_K3 = 744
COUNT_K4 = 5541744


def load_golden():
    return json.loads(GOLDEN_PATH.read_text())


def digest(*parts) -> str:
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def op_random(seed: int, i: int) -> random.Random:
    return random.Random(f"{seed}:{i}")


def tiles_text(o) -> str:
    """Tiling text of an orientation, built without re-verifying it."""
    k = o.dim
    ts = uk.TileSet(k, frozenset(uk.tile_of(v, o.out[v], k) for v in range(1 << k)))
    return uk.write_tiling(ts)


def corrupt(o, rnd: random.Random):
    """Reverse one non-flippable edge: the result is no longer an USO."""
    k = o.dim
    while True:
        bit = 1 << rnd.randrange(k)
        v = rnd.randrange(1 << k) & ~bit
        if o.out[v] != o.out[v | bit]:
            break
    out = list(o.out)
    out[v] ^= bit
    out[v | bit] ^= bit
    return uk.Orientation(k, tuple(out))


def first_incompatible(strings):
    """The first tile pair, in packed order, with no digits 2 apart."""
    tiles = sorted(strings, key=uk.tile_pack)
    for a, ta in enumerate(tiles):
        for tb in tiles[a + 1:]:
            if not any(abs(int(x) - int(y)) == 2 for x, y in zip(ta, tb)):
                return ta, tb
    return None


def random_simple_rule(rnd: random.Random, d: int, cats) -> uk.SimpleRule:
    """A sound simple rule: each digit pair splits one d-tiling in two."""

    def family():
        strings = cats[d][rnd.randrange(len(cats[d]))].strings()
        mask = rnd.getrandbits(len(strings))
        keep = [s for b, s in enumerate(strings) if mask >> b & 1]
        rest = [s for b, s in enumerate(strings) if not mask >> b & 1]
        return (
            uk.PartialTileSet.from_strings(keep, d),
            uk.PartialTileSet.from_strings(rest, d),
        )

    s0, s2 = family()
    s1, s3 = family()
    return uk.SimpleRule(d, s0, s1, s2, s3)


def vertex_split(ts):
    """The four prefix sets of a tiling, keyed by its last digit."""
    d = ts.dim - 1
    groups = [[], [], [], []]
    for s in ts.strings():
        groups[int(s[-1])].append(s[:-1])
    return [uk.PartialTileSet.from_strings(g, d) for g in groups]


def random_two_column_rule(rnd: random.Random, d: int, cats) -> uk.GeneralizedRule:
    cat = cats[d + 1]
    v = vertex_split(cat[rnd.randrange(len(cat))])
    w = vertex_split(cat[rnd.randrange(len(cat))])
    return uk.GeneralizedRule(
        d, 2, ((v[3], v[1]), (w[3], w[1]), (v[2], v[0]), (w[2], w[0]))
    )


class Workload:
    name = ""
    round_size = 1

    def setup(self, seed: int, workdir: Path):
        raise NotImplementedError

    def warm(self, st) -> None:
        """Fill caches the operations would otherwise fill on first use."""

    def known(self, st) -> list[str]:
        """Problems with the known values checked once per run."""
        return []

    def op_class(self, st, spec) -> str:
        return "op"

    def summary(self, ops) -> dict:
        """Workload-specific figures for the detail line."""
        return {}


# ---------------------------------------------------------------------------
# rewrite-sweep: many tiny calls on the 744 three-dimensional USOs


class RewriteSweep(Workload):
    """One operation takes one 3-dimensional USO through a fixed pipeline."""

    name = "rewrite-sweep"

    def setup(self, seed, workdir):
        rnd = random.Random(seed)
        cats = {d: list(uk.enumerate_brute(d)) for d in range(4)}
        rules = []
        for _ in range(32):
            rules.append(random_simple_rule(rnd, rnd.randrange(3), cats))
        general = []
        for _ in range(32):
            general.append(random_two_column_rule(rnd, rnd.randrange(3), cats))
        order = list(range(len(cats[3])))
        rnd.shuffle(order)
        st = SimpleNamespace(
            seed=seed,
            cat3=cats[3],
            strings3=[ts.strings() for ts in cats[3]],
            named=[uk.named_rule(kind) for kind in uk.NAMED_RULE_KINDS],
            simple=rules,
            general=general,
            parts1=[uk.uso_from_tiles(ts) for ts in cats[1]],
            frame=uk.frame_tiles(),
            order=order,
            golden=None,
        )
        return st

    def warm(self, st):
        # The phase cache fills on the first pass over the catalogue; fill
        # it here so that every run measures the same steady state.
        for ts in st.cat3:
            o = uk.uso_from_tiles(ts)
            for h in H3:
                uk.phases(o, h)

    def known(self, st):
        problems = []
        if len(st.cat3) != COUNT_K3:
            problems.append(f"enumerate_brute(3) gave {len(st.cat3)} tilings")
        ex = uk.apply_simple(EX_RULE, uk.TileSet.from_strings(EX_INPUT), 1)
        if ex != uk.TileSet.from_strings(EX_OUTPUT):
            problems.append("criterion 01 worked example differs")
        ps = uk.apply_simple(
            uk.named_rule("partial-swap"), uk.TileSet.from_strings(PS_INPUT), 2
        )
        if ps != uk.TileSet.from_strings(PS_OUTPUT):
            problems.append("criterion 02 worked example differs")
        target = uk.TileSet.from_strings(UNI_TARGET)
        rule, labels = uk.universality_rule(target)
        if labels != UNI_LABELS or uk.apply_generalized(
            rule, uk.frame_tiles(), labels, 1
        ) != target:
            problems.append("criterion 03 worked example differs")
        return problems

    def spec(self, st, i):
        rnd = op_random(st.seed, i)
        idx = st.order[i % len(st.order)]
        labels = {s: 1 + rnd.getrandbits(1) for s in st.strings3[idx]}
        return {
            "idx": idx,
            "simple": rnd.randrange(len(st.simple)),
            "general": rnd.randrange(len(st.general)),
            "labels": labels,
            "h": 1 + rnd.randrange(3),
            "pick": rnd.getrandbits(4),
            "kprime": rnd.randrange(3),
            "parts": [rnd.randrange(2) for _ in range(8)],
        }

    def run(self, st, spec, tr):
        ts = st.cat3[spec["idx"]]
        text = tr.call("formats.write_tiling", uk.write_tiling, ts)
        back = tr.call("formats.read_tiling", uk.read_tiling, text)
        tr.count("formats.bytes", 2 * len(text))
        named = [
            tr.call("rewrite.apply", uk.apply_simple, rule, back, h)
            for rule in st.named
            for h in H3
        ]
        simple = st.simple[spec["simple"]]
        general = st.general[spec["general"]]
        valid = [
            tr.call("rewrite.validate", uk.validate_simple, simple),
            tr.call("rewrite.validate", uk.validate_generalized, general),
        ]
        seeded = [tr.call("rewrite.apply", uk.apply_simple, simple, back, h) for h in H3]
        seeded += [
            tr.call("rewrite.apply", uk.apply_generalized, general, back, spec["labels"], h)
            for h in H3
        ]
        verdicts = []
        for out in named + seeded:
            tr.count("rewrite.tiles_out", len(out))
            verdicts.append(_is_tiling(tr, out))
        uni_rule, uni_labels = tr.call(
            "rewrite.universality_rule", uk.universality_rule, back
        )
        uni = tr.call("rewrite.apply", uk.apply_generalized, uni_rule, st.frame, uni_labels, 1)
        o = _uso_from_tiles(tr, back)
        transformed = []
        partitions = []
        for h in H3:
            transformed.append(tr.call("transform.flip_dimension", uk.flip_dimension, o, h))
            transformed.append(tr.call("transform.mirror", uk.mirror, o, h))
            transformed.append(tr.call("transform.partial_swap", uk.partial_swap, o, h))
            transformed.append(tr.call("transform.facet", uk.facet, o, h, "lower"))
            transformed.append(tr.call("transform.facet", uk.facet, o, h, "upper"))
            part = tr.call("transform.phases", uk.phases, o, h)
            tr.count("transform.phase_classes", len(part.classes))
            partitions.append(part)
        h = spec["h"]
        classes = partitions[h - 1].classes
        chosen = [cls for c, cls in enumerate(classes) if spec["pick"] >> c & 1]
        flipped = tr.call("transform.phase_flip", uk.phase_flip, o, h, chosen)
        flipped_ok = _is_uso(tr, flipped)
        inherited = tr.call("transform.inherited", uk.inherited, o, spec["kprime"])
        parts = {v: st.parts1[p] for v, p in enumerate(spec["parts"])}
        prod = tr.call("transform.product", uk.product, o, parts)
        twins = tr.call("tiling.twins", uk.twins, back)
        tr.count("tiling.tile_pairs", _pairs(len(back)))
        flippable = tr.call("cube.flippable_edges", uk.flippable_edges, o)
        tr.count("cube.vertex_pairs", _pairs(1 << o.dim))
        return {
            "back": back,
            "named": named,
            "valid": valid,
            "seeded": seeded,
            "verdicts": verdicts,
            "uni": uni,
            "transformed": transformed,
            "partitions": partitions,
            "flipped": flipped,
            "flipped_ok": flipped_ok,
            "inherited": inherited,
            "product": prod,
            "twins": twins,
            "flippable": flippable,
        }

    def deterministic_digest(self, out) -> str:
        """Digest of the outputs that depend only on the catalogue entry."""
        return digest(
            *(uk.write_tiling(ts) for ts in out["named"]),
            uk.write_tiling(out["uni"]),
            *(uk.write_orientation(o) for o in out["transformed"]),
            *([sorted(cls) for cls in part.classes] for part in out["partitions"]),
            sorted(out["twins"]),
            sorted(out["flippable"]),
        )

    def check(self, st, spec, out, err):
        if err is not None:
            return [f"unexpected {type(err).__name__}: {err}"], digest("error", err)
        idx = spec["idx"]
        ts = st.cat3[idx]
        problems = []
        if out["back"] != ts:
            problems.append("write/read round trip changed the tiling")
        if not all(out["verdicts"]):
            problems.append("a sound rule produced a non-tiling")
        if out["valid"] != [[], []]:
            problems.append(f"a sound random rule failed validation: {out['valid']}")
        if out["uni"] != ts:
            problems.append("universality round trip missed the target")
        if not out["flipped_ok"]:
            problems.append("phase_flip left the space of USOs")
        if len(out["twins"]) != len(out["flippable"]):
            problems.append("twins and flippable edges disagree")
        # transforms against their rule emulations (acceptance criterion 09)
        kinds = ("flip", "mirror", "partial-swap", "take-lower-facet", "take-upper-facet")
        emulated = [
            uk.apply_simple(uk.named_rule(kind), ts, h) for h in H3 for kind in kinds
        ]
        if emulated != [uk.tiles_from_uso(o) for o in out["transformed"]]:
            problems.append("a transform differs from its rule emulation")
        collapsed = ts
        while collapsed.dim > spec["kprime"]:
            collapsed = uk.apply_simple(uk.named_rule("inherit"), collapsed, collapsed.dim)
        if collapsed != uk.tiles_from_uso(out["inherited"]):
            problems.append("inherited differs from the inherit rule")
        parts = [st.parts1[p] for p in spec["parts"]]
        rule = uk.product_rule([uk.tiles_from_uso(p) for p in parts])
        by_rule = uk.apply_generalized(rule, ts, uk.product_labelling(ts), 3)
        if by_rule != uk.tiles_from_uso(out["product"]):
            problems.append("product differs from its rule emulation")
        fixed = self.deterministic_digest(out)
        table = (st.golden or {}).get("catalogue3")
        if table and table[idx] != fixed:
            problems.append(f"catalogue entry {idx}: golden digest mismatch")
        full = digest(
            fixed,
            *(uk.write_tiling(x) for x in out["seeded"]),
            uk.write_orientation(out["flipped"]),
            uk.write_orientation(out["inherited"]),
            uk.write_orientation(out["product"]),
        )
        return problems, full


# ---------------------------------------------------------------------------
# big-cube: verification-bound calls at k = 8 and k = 10


# One block of operations.  Sorted by time the classes run
#   k8-bad (6) < k8 facet (5) < k8 flip, mirror (14) < k8 partial-swap (5)
#   < k10 facet (1) < k10 flip, mirror (6) < k10 partial-swap (1),
# and k10-bad (2), which stops early wherever its defect sorts, lands
# below or above the k8 flip and mirror operations.  Either way the median
# falls inside that group of 14 and the 90th percentile in the middle of
# the k10 flip and mirror operations, never on a class boundary.
BLOCK = (
    [("k8-bad", None)] * 6
    + [("k10-bad", None)] * 2
    + [("k8", "facet")] * 5
    + [("k8", "flip")] * 7
    + [("k8", "mirror")] * 7
    + [("k8", "partial-swap")] * 5
    + [("k10", "facet"), ("k10", "partial-swap")]
    + [("k10", "flip")] * 3
    + [("k10", "mirror")] * 3
)


class BigCube(Workload):
    """read, verify, transform, rewrite with checking, write; k = 8 and 10."""

    name = "big-cube"
    round_size = len(BLOCK)

    def setup(self, seed, workdir):
        rnd = random.Random(seed)
        pools = {}
        for k in (4, 5):
            pools[k] = [
                uk.uso_from_tiles(uk.sample_markov(k, 64, rnd.getrandbits(32)))
                for _ in range(6)
            ]
        inputs = {"k8": [], "k10": [], "k8-bad": [], "k10-bad": []}
        for k, n in ((4, 4), (5, 2)):
            pool = pools[k]
            for _ in range(n):
                frame = pool[rnd.randrange(len(pool))]
                parts = {v: pool[rnd.randrange(len(pool))] for v in range(1 << k)}
                o = uk.product(frame, parts)
                inputs[f"k{2 * k}"].append(tiles_text(o))
                inputs[f"k{2 * k}-bad"].append(tiles_text(corrupt(o, rnd)))
        cat1 = list(uk.enumerate_brute(1))
        rules = []
        for _ in range(16):
            simple = random_simple_rule(rnd, 1, {1: cat1})
            rules.append((simple, uk.as_generalized(simple)))
        return SimpleNamespace(seed=seed, inputs=inputs, rules=rules, blocks={}, golden=None)

    def spec(self, st, i):
        b, pos = divmod(i, len(BLOCK))
        order = st.blocks.get(b)
        if order is None:
            order = list(BLOCK)
            random.Random(f"{st.seed}:block:{b}").shuffle(order)
            st.blocks = {b: order}
        cls, kind = order[pos]
        rnd = op_random(st.seed, i)
        texts = st.inputs[cls]
        k = 8 if cls.startswith("k8") else 10
        spec = {"class": cls, "text": texts[rnd.randrange(len(texts))], "kind": kind}
        if kind is not None:
            spec["h"] = 1 + rnd.randrange(k)
            spec["side"] = rnd.choice(("lower", "upper"))
            spec["rule"] = rnd.randrange(len(st.rules))
            spec["h2"] = 1 + rnd.randrange(k - 1 if kind == "facet" else k)
        return spec

    def op_class(self, st, spec):
        return spec["class"] if spec["kind"] is None else f"{spec['class']}-{spec['kind']}"

    def run(self, st, spec, tr):
        text = spec["text"]
        ts = tr.call("formats.read_tiling", uk.read_tiling, text)
        tr.count("formats.bytes", len(text))
        o = _uso_from_tiles(tr, ts)
        kind, h = spec["kind"], spec["h"]
        if kind == "flip":
            o2 = tr.call("transform.flip_dimension", uk.flip_dimension, o, h)
        elif kind == "mirror":
            o2 = tr.call("transform.mirror", uk.mirror, o, h)
        elif kind == "partial-swap":
            o2 = tr.call("transform.partial_swap", uk.partial_swap, o, h)
        else:
            o2 = tr.call("transform.facet", uk.facet, o, h, spec["side"])
        ts2 = tr.call("tiling.tiles_from_uso", uk.tiles_from_uso, o2)
        tr.count("cube.vertex_pairs", _pairs(1 << o2.dim))
        labels = {s: 1 for s in ts2.strings()}
        rule = st.rules[spec["rule"]][1]
        ts3 = tr.call(
            "rewrite.apply", uk.apply_generalized, rule, ts2, labels, spec["h2"], checked=True
        )
        tr.count("rewrite.tiles_out", len(ts3))
        out = tr.call("formats.write_tiling", uk.write_tiling, ts3)
        tr.count("formats.bytes", len(out))
        return ts, out

    def check(self, st, spec, out, err):
        if spec["kind"] is None:
            k = 8 if spec["class"] == "k8-bad" else 10
            expected = f"{1 << k} tiles, dimension {k}: not a complete tiling"
            if not isinstance(err, uk.NotATilingError):
                return [f"corrupted k={k} input was not rejected as not-a-tiling"], digest(
                    "accepted", err
                )
            if err.category != "not-a-tiling" or str(err) != expected:
                return [f"wrong rejection: {err.category}: {err}"], digest("error", err)
            return [], digest(err.category, err)
        if err is not None:
            return [f"unexpected {type(err).__name__}: {err}"], digest("error", err)
        ts, text = out
        kind, h = spec["kind"], spec["h"]
        rule_name = f"take-{spec['side']}-facet" if kind == "facet" else kind
        emulated = uk.apply_simple(uk.named_rule(rule_name), ts, h)
        expected = uk.apply_simple(st.rules[spec["rule"]][0], emulated, spec["h2"])
        if uk.write_tiling(expected) != text:
            return [f"{kind} + rule differs from the rule emulation"], digest(text)
        return [], digest(text)


# ---------------------------------------------------------------------------
# enumerate-k4: the join counter, the join stream, the Pool and the sampler


class EnumerateK4(Workload):
    """Counts, one slice of the join stream and phase-walk chain pairs.

    A round holds one count with jobs=1, one with jobs=2, one stream slice
    and ``CHAINS`` chain pairs.  The chain pairs are the many short
    operations, so the median and the 90th percentile are chain times; the
    counts and the slice sit above the 90th percentile and weigh on
    ops_per_s.
    """

    name = "enumerate-k4"
    CHAIN_K = 5
    CHAIN_STEPS = 64
    CHAINS = 57
    SLICE = 20000
    round_size = CHAINS + 3

    def setup(self, seed, workdir):
        # Fill the 3-dimensional catalogue the join builds on, as any
        # caller's first enumeration call would.
        for _ in uk.enumerate_brute(3):
            pass
        return SimpleNamespace(seed=seed, stream=None, golden=None)

    def spec(self, st, i):
        r, pos = divmod(i, self.round_size)
        if pos == 0:
            return {"kind": "count", "jobs": 1}
        if pos == 1 + self.CHAINS // 2:
            return {"kind": "count", "jobs": 2}
        if pos == 1 + self.CHAINS // 4:
            return {"kind": "stream", "slice": r}
        seed = op_random(st.seed, i).getrandbits(63)
        return {"kind": "chain", "seed": seed, "sample_first": i % 2 == 0}

    def op_class(self, st, spec):
        if spec["kind"] == "count":
            return f"count-jobs{spec['jobs']}"
        return spec["kind"]

    def summary(self, ops):
        seconds = {}
        for op in ops:
            seconds.setdefault(op.cls, []).append(op.seconds)
        out = {}
        for cls, key in (("count-jobs1", "count_k4_s"), ("count-jobs2", "count_k4_jobs2_s")):
            if cls in seconds:
                out[key] = statistics.median(seconds[cls])
        if "stream" in seconds:
            out["stream_tilings_per_s"] = (
                self.SLICE * len(seconds["stream"]) / sum(seconds["stream"])
            )
        if "chain" in seconds:
            steps = 2 * self.CHAIN_STEPS * len(seconds["chain"])
            out["sample_steps_per_s"] = steps / sum(seconds["chain"])
        return out

    def run(self, st, spec, tr):
        kind = spec["kind"]
        if kind == "count":
            name = "enumeration.count" if spec["jobs"] == 1 else "enumeration.count_jobs2"
            return tr.call(name, uk.count_usos, 4, "join", spec["jobs"]).count
        if kind == "stream":
            if st.stream is None:
                st.stream = uk.enumerate_join(4)
            tilings = tr.call(
                "enumeration.stream", _take, st.stream, self.SLICE
            )
            tr.count("enumeration.stream.tilings", len(tilings))
            return tilings
        k, steps, seed = self.CHAIN_K, self.CHAIN_STEPS, spec["seed"]

        def sample():
            return tr.call("enumeration.sample", uk.sample_markov, k, steps, seed)

        def walk():
            return tr.call("enumeration.walk", _last_state, uk.markov_walk(k, steps, seed))

        tr.count("enumeration.sample.steps", 2 * steps)
        if spec["sample_first"]:
            sampled = sample()
            return sampled, walk()
        walked = walk()
        return sample(), walked

    def check(self, st, spec, out, err):
        if err is not None:
            return [f"unexpected {type(err).__name__}: {err}"], digest("error", err)
        kind = spec["kind"]
        if kind == "count":
            if out != COUNT_K4:
                return [f"count_usos(4) gave {out}, not {COUNT_K4}"], digest(out)
            return [], digest(out)
        if kind == "stream":
            dig = stream_digest(out)
            problems = []
            if len(out) != self.SLICE:
                problems.append(f"stream slice of {len(out)} tilings")
            golden = (st.golden or {}).get("stream", {}).get(str(self.SLICE), [])
            if spec["slice"] < len(golden):
                if golden[spec["slice"]] != dig:
                    problems.append(f"stream slice {spec['slice']}: golden digest mismatch")
            elif not (uk.is_tiling(out[0]) and uk.is_tiling(out[-1])):
                problems.append("the join stream yielded a non-tiling")
            return problems, dig
        sampled, walked = out
        problems = []
        if sampled != walked:
            problems.append("sample_markov and markov_walk disagree")
        if not uk.is_tiling(sampled):
            problems.append("the phase walk left the space of tilings")
        return problems, digest(uk.write_tiling(sampled))


def stream_digest(tilings) -> str:
    h = hashlib.blake2b(digest_size=8)
    for ts in tilings:
        h.update(bytes(sorted(ts.tiles)))
    return h.hexdigest()


def _take(stream, n):
    return list(itertools.islice(stream, n))


def _last_state(states):
    state = None
    for state in states:
        pass
    return state.current


# ---------------------------------------------------------------------------
# cli-verbs: a fixed script of verbs, one subprocess at a time


class CliVerbs(Workload):
    """Each operation is one ``python -m usokit.cli`` run on a file.

    Not a workload of its own: its run-to-run spread was too wide for a
    bound (see README.md).  Every traced run measures and checks one pass
    of the script for the ``cli.*`` layer figures.
    """

    name = "cli-verbs"
    round_size = 25
    CORRUPTED = ("c4.uso", "c5.uso", "c9.uso")

    def setup(self, seed, workdir):
        rnd = random.Random(seed)
        files = {}
        tilings = {}

        def put(name, ts):
            tilings[name] = ts
            files[name] = uk.write_tiling(ts)

        for k in (3, 4, 5):
            for tag in "ab":
                put(f"s{k}{tag}.uso", uk.sample_markov(k, 48, rnd.getrandbits(32)))
        frame = uk.uso_from_tiles(uk.sample_markov(4, 64, rnd.getrandbits(32)))
        pool = [
            uk.uso_from_tiles(uk.sample_markov(5, 64, rnd.getrandbits(32))) for _ in range(4)
        ]
        big = uk.product(frame, {v: pool[rnd.randrange(4)] for v in range(16)})
        files["b9.uso"] = tiles_text(big)
        tilings["b9.uso"] = uk.read_tiling(files["b9.uso"])
        for bad, good in zip(self.CORRUPTED, ("s4a.uso", "s5b.uso", "b9.uso")):
            o = corrupt(uk.uso_from_tiles(tilings[good]), rnd)
            files[bad] = tiles_text(o)
        put("ex.uso", uk.TileSet.from_strings(EX_INPUT))
        put("ps.uso", uk.TileSet.from_strings(PS_INPUT))
        put("uni.uso", uk.TileSet.from_strings(UNI_TARGET))
        put("frame.uso", uk.frame_tiles())
        files["ex.rule"] = uk.write_rule(EX_RULE)
        files["ps.rule"] = uk.write_rule(uk.named_rule("partial-swap"))
        files["uni.rule"] = uk.write_rule(uk.universality_rule(tilings["uni.uso"])[0])
        files["frame.labels"] = uk.write_labels(UNI_LABELS)
        cat1 = list(uk.enumerate_brute(1))
        w1 = random_simple_rule(rnd, 1, {1: cat1})
        files["w1.rule"] = uk.write_rule(w1)
        for name, text in files.items():
            (workdir / name).write_text(text)

        def h(name):
            return str(1 + rnd.randrange(tilings[name].dim))

        s5a = uk.uso_from_tiles(tilings["s5a.uso"])
        pf_h = 1 + rnd.randrange(5)
        n_classes = len(uk.phases(s5a, pf_h).classes)
        picked = sorted(rnd.sample(range(n_classes), 1 + rnd.randrange(n_classes)))
        # The five steps on the 9-dimensional file are a fifth of the script
        # and each makes several quadratic passes, so they are the slowest
        # class by a clear margin: the 90th percentile falls in its middle,
        # not in the tail of start-up noise.
        script = [
            ["validate", "s3a.uso"],
            ["convert", "s4a.uso", "--to", "orientation"],
            ["flip", "s5a.uso", "--h", h("s5a.uso")],
            ["mirror", "s3b.uso", "--h", h("s3b.uso")],
            ["partial-swap", "s4b.uso", "--h", h("s4b.uso")],
            ["facet", "s5b.uso", "--h", h("s5b.uso"), "--side", rnd.choice(("lower", "upper"))],
            ["inherit", "s4a.uso", "--kprime", str(rnd.randrange(4))],
            ["phases", "s4b.uso", "--h", h("s4b.uso")],
            ["phase-flip", "s5a.uso", "--h", str(pf_h), "--classes", ",".join(map(str, picked))],
            ["apply", "ex.uso", "--rule", "ex.rule", "--h", "1"],
            ["apply", "ps.uso", "--rule", "ps.rule", "--h", "2"],
            ["uni-rule", "uni.uso", "--labels-out", "out.labels"],
            ["apply", "frame.uso", "--rule", "uni.rule", "--labels", "frame.labels", "--h", "1"],
            ["sample", "--k", "4", "--steps", "64", "--seed", str(rnd.getrandbits(32))],
            ["count", "--k", "3", "--method", "brute"],
            ["validate", "c4.uso"],
            ["flip", "c5.uso", "--h", "1"],
            ["convert", "c9.uso", "--to", "tiles"],
            ["apply", "s3a.uso", "--rule", "w1.rule", "--h", h("s3a.uso")],
            ["phases", "s5b.uso", "--h", h("s5b.uso")],
            ["validate", "b9.uso"],
            ["flip", "b9.uso", "--h", h("b9.uso")],
            ["mirror", "b9.uso", "--h", h("b9.uso")],
            ["convert", "b9.uso", "--to", "orientation"],
            ["inherit", "b9.uso", "--kprime", "5"],
        ]
        if len(script) != self.round_size:
            raise ValueError(f"the script has {len(script)} steps, not {self.round_size}")
        return SimpleNamespace(
            seed=seed,
            workdir=workdir,
            files=files,
            tilings=tilings,
            w1=w1,
            script=script,
            expected={},
            golden=None,
        )

    def spec(self, st, i):
        return {"step": i % len(st.script), "argv": st.script[i % len(st.script)]}

    def op_class(self, st, spec):
        return spec["argv"][0]

    def command(self, argv):
        return [sys.executable, "-m", "usokit.cli", *argv]

    def run(self, st, spec, tr):
        proc = tr.call(
            "cli." + spec["argv"][0],
            subprocess.run,
            self.command(spec["argv"]),
            cwd=st.workdir,
            env=cli_env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout, proc.stderr

    def expected(self, st, step):
        """(exit code, stdout, stderr) the verb must produce, from the library."""
        if step not in st.expected:
            st.expected[step] = self._expected(st, st.script[step])
        return st.expected[step]

    def _expected(self, st, argv):
        verb = argv[0]
        if argv[1].startswith("--"):
            name, opts = None, dict(zip(argv[1::2], argv[2::2]))
        else:
            name, opts = argv[1], dict(zip(argv[2::2], argv[3::2]))
        if name in self.CORRUPTED:
            strings = st.files[name].splitlines()[1:]
            a, b = first_incompatible(strings)
            where = "" if verb == "convert" else f"{name}: "
            return 1, "", f"error: not-a-tiling: {where}incompatible tiles {a} and {b}\n"
        if verb == "sample":
            ts = uk.sample_markov(int(opts["--k"]), int(opts["--steps"]), int(opts["--seed"]))
            return 0, uk.write_tiling(ts), ""
        if verb == "count":
            return 0, f"count k=3 method=brute value={COUNT_K3}\n", ""
        ts = st.tilings[name]
        o = uk.uso_from_tiles(ts)
        h = int(opts.get("--h", 0))
        if verb == "validate":
            flips, pairs = len(uk.flippable_edges(o)), len(uk.twins(ts))
            return 0, f"uso dim={ts.dim} flippable={flips} twins={pairs}\n", ""
        if verb == "convert":
            return 0, uk.write_orientation(o), ""
        if verb == "phases":
            lines = [
                " ".join(f"{uk.vertex_bits(e.vertex, o.dim)}/{e.dim}" for e in sorted(cls)) + "\n"
                for cls in uk.phases(o, h).classes
            ]
            return 0, "".join(lines), ""
        if verb == "uni-rule":
            return 0, uk.write_rule(uk.universality_rule(ts)[0]), ""
        if verb == "apply":
            known = {"ex.uso": EX_OUTPUT, "ps.uso": PS_OUTPUT, "frame.uso": UNI_TARGET}
            if name in known:
                return 0, uk.write_tiling(uk.TileSet.from_strings(known[name])), ""
            return 0, uk.write_tiling(uk.apply_simple(st.w1, ts, h)), ""
        if verb == "phase-flip":
            classes = uk.phases(o, h).classes
            chosen = [classes[int(c)] for c in opts["--classes"].split(",")]
            result = uk.phase_flip(o, h, chosen)
        elif verb == "flip":
            result = uk.flip_dimension(o, h)
        elif verb == "mirror":
            result = uk.mirror(o, h)
        elif verb == "partial-swap":
            result = uk.partial_swap(o, h)
        elif verb == "facet":
            result = uk.facet(o, h, opts["--side"])
        elif verb == "inherit":
            result = uk.inherited(o, int(opts["--kprime"]))
        else:
            raise ValueError(f"no expectation for verb {verb!r}")
        return 0, uk.write_tiling(uk.tiles_from_uso(result)), ""

    def check(self, st, spec, out, err):
        if err is not None:
            return [f"unexpected {type(err).__name__}: {err}"], digest("error", err)
        code, stdout, stderr = out
        want = self.expected(st, spec["step"])
        problems = []
        if (code, stdout, stderr) != want:
            problems.append(
                f"{' '.join(spec['argv'])}: exit {code}, stderr {stderr.strip()!r}; "
                f"wanted exit {want[0]}, stderr {want[2].strip()!r}"
                + ("" if stdout == want[1] else ", stdout differs")
            )
        if spec["argv"][0] == "uni-rule" and "--labels-out" in spec["argv"]:
            labels = (st.workdir / "out.labels").read_text()
            if labels != uk.write_labels(UNI_LABELS):
                problems.append("uni-rule wrote the wrong frame labels")
        return problems, digest(code, stdout, stderr)


def cli_env():
    env = dict(os.environ)
    src = str(Path(uk.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src
    return env


# ---------------------------------------------------------------------------
# traced helpers: calls that carry counts


def _pairs(n: int) -> int:
    return n * (n - 1) // 2


def _is_tiling(tr, ts):
    ok = tr.call("tiling.is_tiling", uk.is_tiling, ts)
    tr.count("tiling.tile_pairs", _pairs(len(ts)))
    if not ok:
        tr.count("tiling.is_tiling.rejects")
    return ok


def _uso_from_tiles(tr, ts):
    tr.count("tiling.tile_pairs", _pairs(len(ts)))
    try:
        return tr.call("tiling.uso_from_tiles", uk.uso_from_tiles, ts)
    except uk.NotATilingError:
        tr.count("tiling.is_tiling.rejects")
        raise


def _is_uso(tr, o):
    tr.count("cube.vertex_pairs", _pairs(1 << o.dim))
    return tr.call("cube.is_uso", uk.is_uso, o)


WORKLOADS = {w.name: w for w in (RewriteSweep, BigCube, EnumerateK4)}
