"""The free graded module on Schubert classes and its operator calculus.

A ``SchubertVector`` is a finite formal sum of basis classes indexed by
group elements, graded by twice the length, and a ``TensorVector`` one of
ordered pairs of classes: ``rings.Combination``s that add only their key
order and the text of a term.  The annihilation operator for generator
``i`` sends the class of ``w`` to the class of ``w r_i`` when that is
shorter and to zero otherwise; composites along reduced words give the
full operator basis.  The coproduct of a basis class sums the tensors over
all length-additive factorizations of its element, read off the right
weak-order interval below it.

All operators here act by these combinatorial rules; no topology is ever
materialized.  Operations that lower degree are exact on any truncation,
and the coproduct of a class only touches the elements below it in the
weak order, so it is always exact.
"""

from __future__ import annotations

from . import intmat
from .errors import NotReduced
from .gcm import GeneralizedCartanMatrix
from .rings import ZZ, Combination
from .weyl import (
    WeylElement,
    _fold,
    _least_word,
    from_word,
    identity_element,
    min_coset_reps,
    right_descent,
)


def _word_text(w: WeylElement) -> str:
    return ",".join(map(str, w.word)) if w.length else "e"


class SchubertVector(Combination):
    """Finite formal sum of Schubert classes with exact coefficients."""

    __slots__ = ()

    @classmethod
    def zero(cls, ring):
        return cls(ring)

    @classmethod
    def basis(cls, ring, w: WeylElement):
        return cls(ring, {w: ring.one})

    def support(self):
        return sorted(self.coeffs, key=lambda w: (w.length, w.word))

    def _term(self, w, c) -> str:
        return f"{c}*d[{_word_text(w)}]"


class TensorVector(Combination):
    """Finite sum of ordered tensor pairs of Schubert classes."""

    __slots__ = ()

    def coefficient(self, u: WeylElement, v: WeylElement):
        return self.coeffs.get((u, v), self.ring.zero)

    def support(self):
        return sorted(self.coeffs, key=lambda p: (p[0].length, p[0].word, p[1].word))

    def _term(self, pair, c) -> str:
        return f"{c}*d[{_word_text(pair[0])}](x)d[{_word_text(pair[1])}]"


def _check_letter_positive(i) -> None:
    if intmat.as_int(i, "generator index") < 1:
        raise ValueError(f"generator index {i} out of range: indices start at 1")


def nil_a(i: int, v: SchubertVector) -> SchubertVector:
    """The degree-lowering operator for generator ``i``, extended linearly.

    Raises ValueError if ``i`` is not an integer or is below 1, or if it is
    outside the index set of a nonzero ``v``.  The zero vector names no
    group, so a letter above its rank cannot be checked there.
    """
    ring = v.ring
    if not v.coeffs:
        _check_letter_positive(i)
        return SchubertVector(ring)
    g = next(iter(v.coeffs)).gcm
    i = g.generator(i)
    out = {}
    for w, c in v.coeffs.items():
        if right_descent(w, i):
            if w.gcm != g:
                raise ValueError("elements belong to different groups")
            # w -> w r_i is injective, so no two terms land on one class
            out[WeylElement(g, _fold(g, w.key, (i,)), _least_word(g, w.word + (i,)))] = c
    return SchubertVector(ring, out)


def check_operator_word(gcm: GeneralizedCartanMatrix, word) -> None:
    """Raise ValueError for a letter outside the index set of ``gcm`` and
    NotReduced if ``word`` is not a reduced expression."""
    if from_word(gcm, word).length != len(word):
        raise NotReduced(f"word {list(word)} is not reduced")


def nil_aw(word, v: SchubertVector) -> SchubertVector:
    """Composite operator along a reduced word (rightmost letter acts first).

    Raises ValueError for a letter below 1 or outside the index set, and
    NotReduced if the word is not a reduced expression; composites along
    any two reduced words of the same element agree.  The zero vector names
    no group, so on it letters above the rank and non-reduced words cannot
    be checked; a caller that knows the group checks them with
    ``check_operator_word``.
    """
    word = tuple(intmat.as_int(i, "generator index") for i in word)
    if v.coeffs:
        check_operator_word(next(iter(v.coeffs)).gcm, word)
    else:
        for i in word:
            _check_letter_positive(i)
    out = v
    for i in reversed(word):
        out = nil_a(i, out)
        if out.is_zero():
            break
    return out


def l_functional(w: WeylElement, v: SchubertVector):
    """Coefficient of the class of ``w`` in ``v``."""
    return v.coefficient(w)


def peterson_coproduct(w: WeylElement) -> TensorVector:
    """Sum of tensors over all length-additive factorizations of ``w``, each
    with coefficient 1 in ``ZZ``.

    The left factors ``u`` of ``w = u v`` with ``l(u) + l(v) = l(w)`` are the
    right weak-order interval ``[e, w]``, walked level by level from
    ``(e, w)``: each left descent ``i`` of ``v`` (a negative pairing of ``v
    rho^vee``) steps to ``(u r_i, r_i v)``, one fold of ``u``'s key and of
    those pairings.  The interval is closed under prefixes and each level is
    walked in word order with ``i`` ascending, so the first word reaching a
    new ``u`` is its lex-least reduced word.  The word of ``v`` is its least
    left descent ``i`` followed by the word of ``v' = r_i v``, filled in from
    the far end of the walk.

    The key of ``v`` is stepped from that of ``v'`` too.  Let ``F_v`` be the
    fold by the word of ``v``, so ``key(v) = F_v(1, ..., 1)``, and let
    ``a_j`` be row ``j`` of the Cartan matrix.  The fold is linear, the fold
    by ``(i,) + word(v')`` is ``fold_i`` followed by ``F_v'``, and
    ``fold_i(x) = x - x_i a_i``, so

        key(v) = key(v') - F_v'(a_i),
        F_v(a_j) = F_v'(a_j) - a_ji F_v'(a_i),  F_v(a_i) = -F_v'(a_i),

    starting from ``F_e(a_j) = a_j``.  That is one vector step for the key
    and one for each ``j`` with ``a_ji != 0``, not ``l(v)`` folds, so the
    coproduct is linear in the size of the interval.  The images ``F_v(a_j)``
    are kept only for the ``v`` that another right factor is stepped from.
    Only elements below ``w`` are touched, so the result is exact.
    """
    g = w.gcm
    ones = (1,) * g.size
    # per level, u key -> (u word, pairings of v rho^vee)
    level = {ones: ((), _fold(g, ones, reversed(w.word)))}
    levels, least_step = [], {}
    while level:
        levels.append(level)
        nxt = {}
        for uk, (uword, vy) in level.items():
            for i, x in enumerate(vy, 1):
                if x < 0:
                    child = _fold(g, uk, (i,))
                    least_step.setdefault(uk, (i, child))
                    if child not in nxt:
                        nxt[child] = (uword + (i,), _fold(g, vy, (i,)))
        level = nxt
    rows = g.entries
    # per letter, the pairs (j, a_ji) with j != i and a_ji != 0, all 0-based
    moved = [[(j, a[i]) for j, a in enumerate(rows) if j != i and a[i]] for i in range(g.size)]
    stepped_from = {child for _, child in least_step.values()}
    # u key -> (v word, v key, the images F_v(a_j) or None)
    out, right = {}, {}
    for level in reversed(levels):
        for uk, (uword, _) in level.items():
            step = least_step.get(uk)
            if step is None:
                vword, vkey, images = (), ones, rows
            else:
                i, child = step
                cword, ckey, cimages = right[child]
                fi = cimages[i - 1]
                vword = (i,) + cword
                vkey = tuple([k - f for k, f in zip(ckey, fi)])
                images = None
                if uk in stepped_from:
                    images = list(cimages)
                    images[i - 1] = tuple([-x for x in fi])
                    for j, a in moved[i - 1]:
                        images[j] = tuple([x - a * y for x, y in zip(cimages[j], fi)])
            right[uk] = (vword, vkey, images)
            out[(WeylElement(g, uk, uword), WeylElement(g, vkey, vword))] = ZZ.one
    return TensorVector(ZZ, out)


def counit_collapse(t: TensorVector, side: str) -> SchubertVector:
    """Collapse one tensor factor at the identity (the counit)."""
    out = {}
    for (u, v), c in t.coeffs.items():
        if side == "left" and u.length == 0:
            out[v] = out.get(v, 0) + c
        elif side == "right" and v.length == 0:
            out[u] = out.get(u, 0) + c
    return SchubertVector(t.ring, out)


def parabolic_basis(gcm: GeneralizedCartanMatrix, subset, max_len: int):
    """Schubert basis of the partial flag variety for ``subset``.

    Exactly the minimal coset representatives; each returned element is
    annihilated by every operator indexed by the subset.
    """
    return min_coset_reps(gcm, subset, max_len)


def schubert_to_jsonable(v: SchubertVector) -> list:
    return [
        {"word": list(w.word), "coefficient": v.ring.to_json(c)}
        for w, c in v.items()
    ]


def jsonable_terms(data, key: str):
    """The ``(integers, coefficient)`` pairs of a JSON list of ``{key: [int,
    ...], "coefficient": int or str}`` objects, as ``json.loads`` gives it.

    Raises ValueError naming that schema for a payload of another shape or a
    coefficient that is neither an int nor a string (a bool is not an int
    here).  The integers themselves are read by the caller, through
    ``intmat.as_int``.
    """
    if not isinstance(data, list) or not all(
        isinstance(entry, dict)
        and isinstance(entry.get(key), list)
        and type(entry.get("coefficient")) in (int, str)
        for entry in data
    ):
        raise ValueError(f"expected a JSON list of {{{key}, coefficient}} objects")
    return [(entry[key], entry["coefficient"]) for entry in data]


def schubert_from_jsonable(gcm: GeneralizedCartanMatrix, ring, data) -> SchubertVector:
    """The vector of a JSON list of ``{word, coefficient}`` objects; raises
    ValueError for any other payload (see ``jsonable_terms``)."""
    acc = {}
    for word, c in jsonable_terms(data, "word"):
        w = from_word(gcm, word)
        acc[w] = acc.get(w, 0) + ring.promote(c)
    return SchubertVector(ring, acc)


def tensor_to_jsonable(t: TensorVector) -> list:
    return [
        {
            "left_word": list(u.word),
            "right_word": list(v.word),
            "coefficient": t.ring.to_json(c),
        }
        for (u, v), c in t.items()
    ]


def identity_vector(gcm: GeneralizedCartanMatrix, ring) -> SchubertVector:
    """The class of the identity, the unit of the Schubert basis."""
    return SchubertVector.basis(ring, identity_element(gcm))
