"""The benchmark's four workloads.

Each workload draws its inputs from a seeded ``random.Random`` in rounds.
Every round has the same fixed shape mix (strands and crossings, system
dimensions and word lengths, operation kinds); the seed only fills in the
braid letters, matrices and labels.  A run executes whole rounds, so the
mix a run measures does not depend on where the clock stopped, and runs
on different seeds measure the same mix.

Every operation has a second route, run outside the timed region:
``reference`` computes an independent value once per distinct input and
``verify`` judges one output against it.  ``canon`` renders the canonical
part of an output for the recorded digests of the default seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Item:
    shape: str   # the input property the mix is stratified by
    data: tuple


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _fraction(rng) -> Fraction:
    q = rng.randint(1, 3)
    return Fraction(rng.randint(-3 * q, 3 * q), q)


def _matrix(lib, rng, rows, cols):
    return lib.linalg.Matrix(rows, cols,
                             tuple(_fraction(rng) for _ in range(rows * cols)))


def _invertible(lib, rng, n, entry=_fraction):
    while True:
        m = lib.linalg.Matrix(n, n, tuple(entry(rng) for _ in range(n * n)))
        if m.det():
            return m


def _singular(lib, rng, n):
    rows = _matrix(lib, rng, n, n).tolist()
    if n == 1:
        return lib.linalg.Matrix.zeros(1, 1)
    src, dst = rng.sample(range(n), 2)
    c = _fraction(rng) / 3
    rows[dst] = [c * x for x in rows[src]]
    return lib.linalg.Matrix.from_rows(rows)


class Workload:
    name = ""
    why = ""
    pool_rounds = 0  # rounds generated per seed; a run cycles through them

    def make_rounds(self, lib, rng, count: int) -> list:
        return [self.make_round(lib, rng) for _ in range(count)]

    def make_round(self, lib, rng) -> list:
        raise NotImplementedError

    def warm(self, lib):
        """Fill the lazy caches the workload's operations use."""

    def op(self, lib, data):
        raise NotImplementedError

    def reference(self, lib, data):
        return None

    def verify(self, lib, data, out, ref) -> bool:
        raise NotImplementedError

    def canon(self, out) -> str:
        raise NotImplementedError


class _Bracket(Workload):
    shapes: tuple = ()  # (strands, crossings) per round

    def make_round(self, lib, rng):
        items = []
        for n, c in self.shapes:
            word = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1)
                         for _ in range(c))
            t = lib.tangles.closed_braid_tangle(word, n)
            items.append(Item(f"{n}x{c}", (word, n, t)))
        rng.shuffle(items)
        return items

    def warm(self, lib):
        lib.tangles.kauffman_bracket(lib.tangles.closed_braid_tangle((1, 1, 1), 2))

    def op(self, lib, data):
        return lib.tangles.kauffman_bracket(data[2])

    def canon(self, out) -> str:
        return repr(out.terms)


class BracketWide(_Bracket):
    name = "bracket-wide"
    why = ("closed braids on 4-7 strands with 11-28 crossings: no default "
           "verify, so the slice fold, tl_compose and Laurent arithmetic "
           "take the time; no linalg or bimodule code runs")
    # strands and crossings trade off so that every shape costs about the
    # same (20-70 ms at this commit): a uniform 4-7 x 11-28 grid spends
    # most of a run on a few 7-strand braids of 0.3-0.9 s whose cost the
    # seed moves by half, and the run-to-run spread follows them
    shapes = ((4, 16), (4, 22), (4, 25), (4, 28), (5, 14), (5, 16), (5, 19),
              (5, 22), (6, 11), (6, 13), (6, 14), (6, 15), (7, 11), (7, 12),
              (7, 13))
    pool_rounds = 64

    def reference(self, lib, data):
        word, n, _t = data
        m = lib.tangles.interpret_tangle(lib.tangles.braid_to_slices(word, n))
        return lib.tl.plane_closure(m)

    def verify(self, lib, data, out, ref):
        return out == ref


class BracketChecked(_Bracket):
    name = "bracket-checked"
    why = ("closed braids on 2-4 strands with 3-10 crossings, the everyday "
           "bracket: the built-in 2^c state-sum verify takes most of the time")
    shapes = tuple((n, c) for n in (2, 3, 4) for c in (3, 5, 7, 9, 10))
    pool_rounds = 96

    def make_round(self, lib, rng):
        items = super().make_round(lib, rng)
        # at most 10 crossings and no coupons: the default verify runs, and
        # a disagreement raises InternalCheckError inside the operation
        if any(item.data[2].crossing_count() > 10 for item in items):
            raise ValueError("bracket-checked inputs must stay within the default verify")
        return items

    def verify(self, lib, data, out, ref):
        return isinstance(out, lib.laurent.LaurentPoly)


class HeisenbergWords(Workload):
    name = "heisenberg-words"
    why = ("closed words of up to 7 generators on systems of dimension 1-5: "
           "make_bimodule validation and tensor_over take the time; no "
           "diagram code runs")
    # (system dimension, word length, exponents t of the u(t) generators),
    # weighted toward dimensions 3-5.  The word alternates u(t) with
    # observables between its state and costate.  The cost of u(t) grows
    # with t and the dimension, so the exponents are fixed here, spread over
    # 1-39 and smaller on the larger systems, and every third step matrix is
    # singular: the seed fills in only the matrices and labels, and a run
    # does not follow how many large exponents its seed happened to draw.
    shapes = ((1, 7, (1, 38, 35)), (2, 5, (32, 29)), (2, 7, (26, 23, 20)),
              (3, 2, ()), (3, 3, (17,)), (3, 5, (14, 11)), (3, 6, (8, 5)),
              (3, 7, (2, 39, 36)), (4, 3, (33,)), (4, 4, (30,)),
              (4, 5, (27, 24)), (4, 7, (21, 18, 15)), (5, 2, ()), (5, 3, (12,)),
              (5, 4, (9,)))
    pool_rounds = 40

    def _system(self, lib, rng, n, singular):
        step = _singular(lib, rng, n) if singular else _matrix(lib, rng, n, n)
        states = {str(i): tuple(rng.randint(-3, 3) for _ in range(n))
                  for i in range(2)}
        costates = {str(i): tuple(rng.randint(-3, 3) for _ in range(n))
                    for i in range(2)}
        observables = {str(i): _matrix(lib, rng, n, n) for i in range(2)}
        return lib.tqft1d.make_system(n, step, states, costates, observables)

    def _word(self, lib, rng, length, exponents):
        middle = []
        for t in exponents:
            middle += [("u", t), ("a", str(rng.randrange(2)))]
        gens = [("w", str(rng.randrange(2)))] + middle[:length - 2] + \
            [("v", str(rng.randrange(2)))]
        assert len(gens) == length
        return lib.tqft1d.make_word(gens)

    def make_round(self, lib, rng):
        items = [Item(f"dim{n}/len{k}",
                      (self._system(lib, rng, n, i % 3 == 0),
                       self._word(lib, rng, k, ts)))
                 for i, (n, k, ts) in enumerate(self.shapes)]
        rng.shuffle(items)
        return items

    def warm(self, lib):
        for n in range(1, 6):
            lib.algebra.matrix_algebra(n)

    def op(self, lib, data):
        return lib.tqft1d.compare_pictures(*data)

    def verify(self, lib, data, out, ref):
        # the Schrodinger matrix product is the second route
        return out.agree and out.schrodinger_value == out.heisenberg_value

    def canon(self, out) -> str:
        return f"{out.schrodinger_value}|{out.heisenberg_value}"


class IsoSearch(Workload):
    name = "iso-search"
    why = ("conjugator search against the unpointed iso of modulations, the "
           "pointed conjugation lemma over M2 and M3, and end_compose_check: "
           "intertwiner solving and the randomized det search")
    compose_dims = ((1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 3, 3), (1, 3, 3),
                    (3, 1, 3), (3, 3, 1))
    # two M3 lemmas make the top 2/15 of the mix, so op_ms_p90 falls inside
    # their cluster and not on the edge of one seed-dependent conj/M2 item
    lemma_dims = (2, 2, 3, 3)
    pool_rounds = 96
    # disguised algebras per seed, and inner automorphisms per algebra:
    # validating them is most of the generation time, so pairs reuse them
    bank_algebras, bank_autos = 12, 3

    # -- inputs -------------------------------------------------------------

    def _inner(self, lib, rng, a):
        """Conjugation a -> b^-1 a b by a random unit b."""
        while True:
            b = tuple(rng.randint(-2, 2) for _ in range(a.dim))
            lb = a.left_mult_matrix(b)
            if lb.det():
                return lib.algebra.make_hom(a, a, lb.inverse() @ a.right_mult_matrix(b))

    def _bank(self, lib, rng, base):
        """Inner automorphisms of randomly disguised copies of base."""
        out = []
        for _ in range(self.bank_algebras):
            s = _invertible(lib, rng, base.dim, lambda r: r.randint(-2, 2))
            a = lib.algebra.transport_algebra(base, s)
            out.append([self._inner(lib, rng, a) for _ in range(self.bank_autos)])
        return out

    def _conj_pair(self, lib, rng, style, banks):
        """(f, g, whether an invertible conjugator exists) by construction."""
        alg, Matrix = lib.algebra, lib.linalg.Matrix
        if style in banks:
            # inner automorphisms of one algebra are always conjugate
            f, g = rng.sample(rng.choice(banks[style]), 2)
            return f, g, True
        n = 3
        a = alg.product_field_algebra(n)
        if style == "proj":
            # coordinate projections Q^n -> Q are conjugate only when equal
            i, j = rng.randrange(n), rng.randrange(n)
            k = alg.field_algebra()
            f, g = (alg.make_hom(a, k, Matrix(1, n, tuple(int(c == x) for c in range(n))))
                    for x in (i, j))
            return f, g, i == j
        # a coordinate permutation of Q^n is conjugate to the identity only
        # when it is the identity: Q^n is commutative
        perm = list(range(n))
        rng.shuffle(perm)
        images = [tuple(int(c == perm[i]) for c in range(n)) for i in range(n)]
        g = alg.hom_from_images(a, a, images)
        return alg.identity_hom(a), g, perm == sorted(perm)

    def make_rounds(self, lib, rng, count):
        banks = {"M2": self._bank(lib, rng, lib.algebra.matrix_algebra(2)),
                 "UT": self._bank(lib, rng, lib.algebra.upper_triangular_algebra())}
        return [self.make_round(lib, rng, banks) for _ in range(count)]

    def make_round(self, lib, rng, banks):
        items = []
        for style in ("M2", "UT", "proj", "perm"):
            f, g, exists = self._conj_pair(lib, rng, style, banks)
            items.append(Item(f"conj/{style}", ("conj", f, g, exists,
                                                rng.randrange(1 << 16))))
        for n in self.lemma_dims:
            items.append(Item(f"lemma/M{n}", ("lemma", n, _invertible(lib, rng, n),
                                               rng.randrange(1 << 16))))
        for nv, nw, nx in self.compose_dims:
            f, g = _matrix(lib, rng, nw, nv), _matrix(lib, rng, nx, nw)
            items.append(Item(f"compose/{nv}x{nw}x{nx}",
                              ("compose", f, g, rng.randrange(1 << 16))))
        rng.shuffle(items)
        return items

    def warm(self, lib):
        for n in range(1, 4):
            lib.algebra.matrix_algebra(n)

    # -- operation and checks -------------------------------------------------

    def op(self, lib, data):
        bm = lib.bimodule
        kind = data[0]
        if kind == "conj":
            _, f, g, _exists, seed = data
            return (bm.conjugator_between(f, g, seed=seed),
                    bm.bimodule_iso_unpointed(bm.modulate(f), bm.modulate(g),
                                              seed=seed))
        if kind == "lemma":
            _, n, u, seed = data
            alg = lib.algebra
            return bm.bimodule_iso_pointed(
                bm.modulate(alg.conjugation_hom(n, u)),
                bm.regular_bimodule(alg.matrix_algebra(n),
                                    pointing=alg.flatten_matrix(u)),
                seed=seed)
        _, f, g, seed = data
        return bm.end_compose_check(f, g, seed=seed)

    def _certified(self, lib, w) -> bool:
        """make_bimodule_map accepts the witness and its det is nonzero."""
        try:
            lib.bimodule.make_bimodule_map(w.source, w.target, w.matrix)
        except lib.errors.ValidationError:
            return False
        return bool(w.matrix.det())

    def verify(self, lib, data, out, ref):
        kind = data[0]
        if kind == "conj":
            _, f, g, exists, _seed = data
            b, mat = out
            if (b is not None) != exists or (mat is not None) != exists:
                return False
            if not exists:
                return True
            target = f.target
            if not target.left_mult_matrix(b).det():
                return False
            for i in range(f.source.dim):
                if target.multiply(b, f.matrix.col(i)) != \
                        target.multiply(g.matrix.col(i), b):
                    return False
            m1, m2 = lib.bimodule.modulate(f), lib.bimodule.modulate(g)
            return bool(mat.det()) and all(
                mat @ x == y @ mat
                for x, y in zip(m1.left_action + m1.right_action,
                                m2.left_action + m2.right_action))
        if kind == "lemma":
            _, n, u, _seed = data
            return (out is not None and self._certified(lib, out)
                    and tuple(out.target.pointing) == tuple(u.entries))
        _, f, g, _seed = data
        return (out.passed and self._certified(lib, out.witness)
                and tuple(out.witness.target.pointing) == tuple((g @ f).entries))

    def canon(self, out) -> str:
        if isinstance(out, tuple):
            return f"conj|{out[0] is not None}|{out[1] is not None}"
        if hasattr(out, "passed"):
            w = out.witness
            return f"compose|{out.passed}|{w.source.dim}|{w.target.dim}"
        # the pointed lemma witness is unique: the module is cyclic on its point
        return f"lemma|{out.matrix.entries!r}"


WORKLOADS = {w.name: w for w in (BracketWide(), BracketChecked(),
                                 HeisenbergWords(), IsoSearch())}
