"""Optimal order-preserving (alphabetic) prefix codes — HOPE's Code Assigner.

The paper uses the Hu-Tucker algorithm [27] (via the O(N^2) variant
[50]). We implement the **Garsia–Wachs** algorithm, which produces the
same optimal alphabetic code lengths (identical total cost) with a much
better practical running time, followed by the canonical alphabetic
code construction that the Hu-Tucker "recombination" phase performs.
Tests validate optimality against an O(n^3) dynamic program on small
inputs and validate the alphabetic/prefix-free properties on large
random inputs.

Terminology: given weights ``w_0..w_{n-1}`` in axis order, find code
lengths ``l_i`` minimising ``sum(w_i * l_i)`` such that a binary tree
exists whose in-order leaves have exactly those depths — equivalently,
such that monotonically increasing prefix codes of those lengths exist.

ALM does not use these codes: ``assign_fixed`` gives it the other
strategy, monotone fixed-length codes.
"""
from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from .strutil import Code


def garsia_wachs_depths(weights: Sequence[float]) -> List[int]:
    """Leaf depths of an optimal alphabetic binary tree over ``weights``.

    Classic three-phase Garsia–Wachs: (1) repeatedly combine the
    leftmost *locally minimal pair* and float the combined node left
    past smaller weights; (2) read leaf depths off the combined tree.

    One resumable pass: a stack holds the working sequence's prefix, and
    input leaves are pushed only when a pair test reads them. After the
    combined node lands at ``i`` the search resumes at ``i - 1``; tests
    further left read unchanged entries and stay false. A round costs
    O(1) plus the distance its node floats: O(n^2) worst case,
    near-linear on frequency data.
    """
    n = len(weights)
    if n <= 1:
        return [0] * n

    # Stack entries are (weight, node). Leaves are ints (their index);
    # internal nodes are (left, right) tuples.
    seq: List[Tuple[float, object]] = []
    nxt = 0  # next input leaf
    k = 1  # next pair test: w[k-1] <= w[k+1] (w past the end = +inf)
    while len(seq) > 1 or nxt < n:
        while len(seq) <= k + 1 and nxt < n:
            seq.append((float(weights[nxt]), nxt))
            nxt += 1
        if k + 1 < len(seq) and seq[k - 1][0] > seq[k + 1][0]:
            k += 1
            continue
        s = seq[k - 1][0] + seq[k][0]
        node = (seq[k - 1][1], seq[k][1])
        del seq[k - 1 : k + 1]
        # Float the combined node left: insert after the rightmost
        # element (strictly left of the removal point) with weight >= s.
        i = k - 1
        while i > 0 and seq[i - 1][0] < s:
            i -= 1
        seq.insert(i, (s, node))
        k = max(1, i - 1)

    depths = [0] * n
    stack = [(seq[0][1], 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, tuple):
            stack.append((node[0], d + 1))
            stack.append((node[1], d + 1))
        else:
            depths[node] = d
    return depths


def canonical_alphabetic_codes(depths: Sequence[int]) -> List[Code]:
    """Monotone prefix codes from a realisable alphabetic depth sequence.

    Standard level-by-level construction (the Hu-Tucker recombination
    phase): ``c_0 = 0`` at depth ``l_0``; each next code is
    ``(prev + 1)`` shifted to the next depth. Produces strictly
    increasing (bitstring order) prefix-free codes whenever ``depths``
    came from an alphabetic tree.
    """
    n = len(depths)
    if n == 0:
        return []
    if n == 1:
        # A single leaf has depth 0, but a one-entry dictionary still needs a non-empty code.
        return [(0, 1)]
    codes: List[Code] = []
    val = 0
    prev = depths[0]
    codes.append((0, prev))
    for l in depths[1:]:
        val += 1
        val = val << (l - prev) if l >= prev else val >> (prev - l)
        codes.append((val, l))
        prev = l
    return codes


def hu_tucker_codes(weights: Sequence[float]) -> List[Code]:
    """Optimal order-preserving prefix codes for ``weights`` (axis order).

    Zero weights are clamped to a tiny positive value so every interval
    receives a code (completeness requires codes even for intervals the
    sample never hit).
    """
    if not weights:
        return []
    floor = max(max(weights), 1.0) * 1e-9
    w = [max(float(x), floor) for x in weights]
    return canonical_alphabetic_codes(garsia_wachs_depths(w))


def assign_fixed(n: int) -> List[Code]:
    """Monotone fixed-length codes 0..n-1, each ceil(log2 n) bits."""
    if n <= 0:
        return []
    nbits = max(1, math.ceil(math.log2(n))) if n > 1 else 1
    return [(i, nbits) for i in range(n)]


def optimal_alphabetic_cost(weights: Sequence[float]) -> float:
    """O(n^3) DP for the optimal alphabetic tree cost — test oracle only.

    Knuth-style interval DP: cost(i,j) = min_k cost(i,k)+cost(k+1,j) +
    sum(w[i..j]). Returns sum(w_i * depth_i) of the optimal tree.
    """
    n = len(weights)
    if n <= 1:
        return 0.0
    w = [float(x) for x in weights]
    pref = [0.0]
    for x in w:
        pref.append(pref[-1] + x)
    INF = float("inf")
    cost = [[0.0] * n for _ in range(n)]
    for span in range(1, n):
        for i in range(n - span):
            j = i + span
            best = INF
            for k in range(i, j):
                c = cost[i][k] + cost[k + 1][j]
                if c < best:
                    best = c
            cost[i][j] = best + (pref[j + 1] - pref[i])
    return cost[0][n - 1]
