from itertools import permutations

import pytest

from checker import maj_numerator, matches_maj, q_image, series


def brute_maj(elements, below):
    """q^maj over linear extensions by enumerating every permutation."""
    label = {e: i for i, e in enumerate(elements)}
    out = {}
    for word in permutations(elements):
        seen = set()
        ok = True
        for e in word:
            if not below[e] <= seen:
                ok = False
                break
            seen.add(e)
        if not ok:
            continue
        maj = sum(i + 1 for i in range(len(word) - 1)
                  if label[word[i]] > label[word[i + 1]])
        out[maj] = out.get(maj, 0) + 1
    return [out.get(k, 0) for k in range(max(out) + 1)]


SMALL_POSETS = [
    ([1, 2, 3], {1: set(), 2: set(), 3: set()}),                  # antichain
    ([1, 2, 3, 4], {1: set(), 2: {1}, 3: {1, 2}, 4: {1, 2, 3}}),  # chain
    ([1, 2, 3, 4], {1: set(), 2: {1}, 3: {1}, 4: {1, 2, 3}}),     # diamond
    ([1, 2, 3, 4, 5], {1: set(), 2: set(), 3: {1, 2}, 4: {2}, 5: {1, 2, 3}}),
    ([1, 2, 3, 4, 5, 6], {1: set(), 2: set(), 3: {1}, 4: {2}, 5: {1, 3},
                          6: {2, 4}}),
]


@pytest.mark.parametrize("elements,below", SMALL_POSETS)
def test_maj_dp_matches_brute_force(elements, below):
    assert maj_numerator(elements, below) == brute_maj(elements, below)


def test_maj_dp_rejects_order_that_is_not_a_linear_extension():
    with pytest.raises(ValueError):
        maj_numerator([2, 1], {1: set(), 2: {1}})


def test_maj_of_antichain_is_q_factorial():
    # [3]_q! = (1 + q)(1 + q + q^2)
    assert maj_numerator([1, 2, 3], {1: set(), 2: set(), 3: set()}) == [1, 2, 2, 1]


def test_matches_maj_on_hand_rendered_functions():
    # two-element antichain: 1/(1-q)^2 = (1 + q)/((1-q)(1-q^2))
    rendered = {"num": [[1, {}]], "den": [{"x1": 1}, {"x2": 1}]}
    assert matches_maj(rendered, 2, [1, 1])
    assert not matches_maj(rendered, 2, [1, 2])
    perturbed = {"num": [[1, {}], [1, {"x1": 1}]], "den": [{"x1": 1}, {"x2": 1}]}
    assert not matches_maj(perturbed, 2, [1, 1])


def test_q_image_uses_total_degree():
    num, den = q_image({"num": [[2, {"x1": 1, "x2": 2}], [-1, {}]],
                        "den": [{"x1": 1, "x2": 1}]})
    assert num == [-1, 0, 0, 2]
    assert den == [2]


def test_series_of_geometric_factors():
    # 1/((1-x)(1-y)) to total degree 2
    got = series({"num": [[1, {}]], "den": [{"x": 1}, {"y": 1}]}, 2)
    want = {(): 1, (("x", 1),): 1, (("y", 1),): 1, (("x", 2),): 1,
            (("x", 1), ("y", 1)): 1, (("y", 2),): 1}
    assert got == want
