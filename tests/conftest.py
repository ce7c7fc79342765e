"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.ir import parse_function

SUM_LOOP_SRC = """
func @sum(n) {
entry:
  i = 0
  acc = 0
  jmp loop
loop:
  i2 = phi [entry: i, body: i3]
  acc2 = phi [entry: acc, body: acc3]
  c = (i2 < n)
  br c ? body : exit
body:
  acc3 = (acc2 + i2)
  i3 = (i2 + 1)
  jmp loop
exit:
  ret acc2
}
"""

REDUNDANT_SRC = """
func @redundant(n, p) {
entry:
  k = (n * 4)
  i = 0
  acc = 0
  jmp loop
loop:
  i2 = phi [entry: i, body: i3]
  acc2 = phi [entry: acc, body: acc3]
  c = (i2 < n)
  br c ? body : exit
body:
  k2 = (n * 4)
  v = load (p + i2)
  acc3 = (acc2 + (v * k2))
  i3 = (i2 + 1)
  jmp loop
exit:
  ret acc2
}
"""

DIAMOND_SRC = """
func @diamond(a, b) {
entry:
  c = (a < b)
  br c ? then : else
then:
  x = (a * 2)
  jmp merge
else:
  x2 = (b * 3)
  jmp merge
merge:
  x3 = phi [then: x, else: x2]
  y = (x3 + 1)
  ret y
}
"""

# A guard in a block with two predecessors (`head`) and in one with a
# single predecessor (`body`).
GUARDED_LOOP_SRC = """
func @guarded_loop(n, k) {
entry:
  jmp head
head:
  %i.0 = phi [entry: 0, body: %i.1]
  guard (k != 5)
  %t0 = (%i.0 < n)
  br %t0 ? body : exit
body:
  guard (k != 3)
  %i.1 = (%i.0 + 1)
  jmp head
exit:
  ret %i.0
}
"""


@pytest.fixture
def sum_loop():
    """A simple SSA counting loop."""
    return parse_function(SUM_LOOP_SRC)


@pytest.fixture
def redundant_loop():
    """A loop with a redundant subexpression and a load (CSE/LICM fodder)."""
    return parse_function(REDUNDANT_SRC)


@pytest.fixture
def diamond():
    """An if/else diamond with a phi join."""
    return parse_function(DIAMOND_SRC)


@pytest.fixture
def guarded_loop():
    """A loop with guards in a two- and a one-predecessor block."""
    return parse_function(GUARDED_LOOP_SRC)
