"""The twelve named benchmark kernels (Table 2 / Figures 7–8 workloads).

The paper profiles the hottest function of a subset of SPEC CPU2006 and
Phoronix PTS benchmarks.  Those sources are proprietary or too large to
ship, so each benchmark is represented here by a hand-written MiniC kernel
that mimics the *kind* of hot loop the original program spends its time
in: block sorting and run-length encoding for bzip2, sum-of-absolute-
differences for h264ref, a dynamic-programming recurrence for hmmer,
n-body style arithmetic for namd, a hash/dispatch loop for perlbench,
board scanning for sjeng, a simplex-style pivot search for soplex, and so
on.  What matters for the evaluation is that the kernels exercise loops,
nested control flow, memory traffic and redundant arithmetic so the
OSR-aware passes have real work to do; the substitution is documented in
DESIGN.md.

``benchmark_function(name)`` compiles a kernel to its f_base form (SSA
with debug metadata), and ``benchmark_arguments`` provides input values
(plus array initialization) so tests and benchmarks can execute them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..frontend import compile_function, compile_program
from ..ir.function import Function, Module
from ..ir.interp import Memory

__all__ = [
    "BENCHMARK_NAMES",
    "BENCHMARK_SOURCES",
    "LOOP_KERNEL_NAMES",
    "STRAIGHT_LINE_NAMES",
    "STRAIGHT_LINE_SOURCES",
    "CALL_KERNEL_NAMES",
    "CALL_KERNEL_SOURCES",
    "CALL_KERNEL_ENTRIES",
    "benchmark_source",
    "benchmark_function",
    "benchmark_arguments",
    "straightline_function",
    "straightline_arguments",
    "call_kernel_module",
    "call_kernel_arguments",
]

#: The benchmarks of Table 2, in the paper's order.
BENCHMARK_NAMES: Tuple[str, ...] = (
    "bzip2",
    "h264ref",
    "hmmer",
    "namd",
    "perlbench",
    "sjeng",
    "soplex",
    "bullet",
    "dcraw",
    "ffmpeg",
    "fhourstones",
    "vp8",
)


BENCHMARK_SOURCES: Dict[str, str] = {
    # bzip2: block sort + run-length accumulation over a buffer.
    "bzip2": """
func bzip2(buf, n) {
  var freq[16];
  var i = 0;
  while (i < 16) { freq[i] = 0; i = i + 1; }
  var run = 0;
  var prev = 0 - 1;
  var total = 0;
  for (i = 0; i < n; i = i + 1) {
    var b = buf[i] % 16;
    var slot = b * 1;
    freq[slot] = freq[slot] + 1;
    if (b == prev) {
      run = run + 1;
      if (run >= 4) { total = total + run * 2; run = 0; }
    } else {
      run = 1;
      prev = b;
    }
    var weight = n * 3 + 7;
    total = total + b * weight;
  }
  var acc = 0;
  for (i = 0; i < 16; i = i + 1) {
    var w = n * 3 + 7;
    acc = acc + freq[i] * w + i;
  }
  return total + acc;
}
""",
    # h264ref: sum of absolute differences between two macroblock rows.
    "h264ref": """
func h264ref(cur, ref, n) {
  var sad = 0;
  var bias = n * 2 + 1;
  var i = 0;
  while (i < n) {
    var a = cur[i];
    var b = ref[i];
    var d = a - b;
    if (d < 0) { d = 0 - d; }
    var scale = n * 2 + 1;
    sad = sad + d * scale;
    if (sad > 100000) { sad = sad - bias; }
    i = i + 1;
  }
  return sad;
}
""",
    # hmmer: Viterbi-like dynamic programming recurrence over two arrays.
    "hmmer": """
func hmmer(emit, trans, n) {
  var match[32];
  var insert[32];
  var i = 0;
  while (i < 32) { match[i] = 0; insert[i] = 0; i = i + 1; }
  var best = 0;
  for (i = 1; i < n; i = i + 1) {
    var k = i % 32;
    var prev = (i - 1) % 32;
    var e = emit[i];
    var t = trans[i];
    var viaMatch = match[prev] + t;
    var viaInsert = insert[prev] + t * 2;
    var score = 0;
    if (viaMatch > viaInsert) { score = viaMatch + e; } else { score = viaInsert + e; }
    match[k] = score;
    insert[k] = viaMatch - e;
    if (score > best) { best = score; }
  }
  return best;
}
""",
    # namd: pairwise force accumulation with strength-reduced indexing.
    "namd": """
func namd(px, py, n) {
  var fx = 0;
  var fy = 0;
  var cutoff = n * n + 3;
  var i = 0;
  while (i < n) {
    var j = i + 1;
    while (j < n) {
      var dx = px[i] - px[j];
      var dy = py[i] - py[j];
      var r2 = dx * dx + dy * dy;
      var c = n * n + 3;
      if (r2 < c) {
        var inv = c - r2;
        fx = fx + dx * inv;
        fy = fy + dy * inv;
      } else {
        fx = fx - 1;
      }
      j = j + 1;
    }
    i = i + 1;
  }
  return fx * 3 + fy;
}
""",
    # perlbench: hash-and-dispatch interpreter-style loop.
    "perlbench": """
func perlbench(ops, n) {
  var acc = 0;
  var seed = 1469598103;
  var i = 0;
  while (i < n) {
    var op = ops[i];
    var h = (seed ^ op) * 16777619;
    h = h % 1024;
    if (h < 0) { h = 0 - h; }
    var kind = op % 4;
    if (kind == 0) {
      acc = acc + h;
    } else { if (kind == 1) {
      acc = acc - (h >> 2);
    } else { if (kind == 2) {
      acc = acc + h * 3;
    } else {
      acc = acc ^ h;
    } } }
    var norm = n * 5 + 11;
    acc = acc + norm;
    i = i + 1;
  }
  return acc;
}
""",
    # sjeng: board scan with attack counting.
    "sjeng": """
func sjeng(board, n) {
  var score = 0;
  var mobility = 0;
  var center = n / 2;
  var i = 0;
  while (i < n) {
    var piece = board[i];
    var dist = i - center;
    if (dist < 0) { dist = 0 - dist; }
    var c = n / 2;
    if (piece > 0) {
      score = score + piece * (8 - dist);
      mobility = mobility + piece % 3;
    } else {
      if (piece < 0) {
        score = score - (0 - piece) * (8 - dist);
      } else {
        mobility = mobility + c % 2;
      }
    }
    i = i + 1;
  }
  return score * 4 + mobility;
}
""",
    # soplex: pick the entering column by best reduced cost.
    "soplex": """
func soplex(cost, n) {
  var best = 0;
  var bestIndex = 0 - 1;
  var scale = n + 13;
  var i = 0;
  while (i < n) {
    var c = cost[i];
    var reduced = c * scale - i;
    if (reduced < best) {
      best = reduced;
      bestIndex = i;
    }
    i = i + 1;
  }
  return bestIndex * 1000 + best;
}
""",
    # bullet: AABB overlap tests in a broadphase sweep.
    "bullet": """
func bullet(mins, maxs, n) {
  var pairs = 0;
  var margin = n % 7 + 1;
  var i = 0;
  while (i < n) {
    var j = i + 1;
    while (j < n) {
      var m = n % 7 + 1;
      var lo = mins[i] - m;
      var hi = maxs[i] + m;
      var lo2 = mins[j];
      var hi2 = maxs[j];
      var overlap = 0;
      if (lo <= hi2) { if (lo2 <= hi) { overlap = 1; } }
      if (overlap == 1) {
        pairs = pairs + 1;
      }
      j = j + 1;
    }
    i = i + 1;
  }
  return pairs * margin;
}
""",
    # dcraw: demosaicing-like weighted neighbour interpolation.
    "dcraw": """
func dcraw(raw, n) {
  var out = 0;
  var gain = n * 2 + 5;
  var i = 2;
  while (i < n - 2) {
    var left = raw[i - 1];
    var right = raw[i + 1];
    var here = raw[i];
    var g = n * 2 + 5;
    var interp = (left + right + here * 2) / 4;
    var err = here - interp;
    if (err < 0) { err = 0 - err; }
    out = out + interp * g + err;
    i = i + 1;
  }
  return out;
}
""",
    # ffmpeg: IDCT-like butterfly with saturation and constant tables.
    "ffmpeg": """
func ffmpeg(block, n) {
  var sum = 0;
  var round = 32;
  var shift = 6;
  var i = 0;
  while (i < n) {
    var v = block[i];
    var even = v + block[(i + 2) % n];
    var odd = v - block[(i + 1) % n];
    var t0 = (even * 64 + round) >> shift;
    var t1 = (odd * 83 + round) >> shift;
    var clipped = t0 + t1;
    if (clipped > 255) { clipped = 255; }
    if (clipped < 0 - 256) { clipped = 0 - 256; }
    if (1 == 0) { clipped = clipped * 9999; }
    sum = sum + clipped;
    i = i + 1;
  }
  return sum;
}
""",
    # fhourstones: connect-4 transposition-table probing.
    "fhourstones": """
func fhourstones(history, n) {
  var hash = 2166136261;
  var hits = 0;
  var probes = 0;
  var i = 0;
  while (i < n) {
    var move = history[i];
    hash = (hash ^ move) * 16777619;
    var slot = hash % 8192;
    if (slot < 0) { slot = 0 - slot; }
    probes = probes + 1;
    var tag = slot % 64;
    if (tag == move % 64) {
      hits = hits + 1;
    } else {
      var penalty = n % 5 + 1;
      hits = hits - penalty % 2;
    }
    i = i + 1;
  }
  return hits * 100000 / (probes + 1);
}
""",
    # vp8: loop-filter style clamping along an edge.
    "vp8": """
func vp8(pixels, n) {
  var filtered = 0;
  var limit = 9;
  var i = 1;
  while (i < n - 1) {
    var p0 = pixels[i - 1];
    var q0 = pixels[i];
    var q1 = pixels[i + 1];
    var delta = (q0 - p0) * 3 + (q1 - q0);
    var lim = 9;
    if (delta > lim) { delta = lim; }
    if (delta < 0 - lim) { delta = 0 - lim; }
    var adjusted = q0 - delta;
    filtered = filtered + adjusted;
    i = i + 1;
  }
  return filtered + limit;
}
""",
}


#: Every Table-2 kernel is dominated by a hot loop — where an
#: OSR-capable compiled tier earns its keep.  The end-to-end benchmark
#: (``benchmarks/e2e``, ``steady_loops``) times each of these against a
#: native-Python twin.
LOOP_KERNEL_NAMES: Tuple[str, ...] = BENCHMARK_NAMES


#: Straight-line kernels: no loops, pure arithmetic and memory traffic.
#: They isolate per-instruction dispatch overhead (the part of the
#: interpreter a compiled backend eliminates even without loop residency).
STRAIGHT_LINE_SOURCES: Dict[str, str] = {
    # Horner evaluation of two fixed polynomials plus a mixing round —
    # a long dependency chain of register arithmetic.
    "poly8": """
func poly8(x, y) {
  var p = 7;
  p = p * x + 3;
  p = p * x + 11;
  p = p * x + 2;
  p = p * x + 9;
  p = p * x + 5;
  p = p * x + 1;
  p = p * x + 8;
  var q = 3;
  q = q * y + 13;
  q = q * y + 4;
  q = q * y + 6;
  q = q * y + 10;
  var m = (p ^ q) + (p & q) * 3;
  m = (m << 3) - (m >> 2);
  var r = p * 5 - q * 7 + m % 1000003;
  return r;
}
""",
    # Saturating blend of eight memory cells — straight-line loads,
    # compares and clamps (a loop-free slice of the vp8 filter).
    "blend8": """
func blend8(px) {
  var a = px[0] + px[1] * 2;
  var b = px[2] + px[3] * 2;
  var c = px[4] + px[5] * 2;
  var d = px[6] + px[7] * 2;
  var hi = 255;
  if (a > hi) { a = hi; }
  if (b > hi) { b = hi; }
  if (c > hi) { c = hi; }
  if (d > hi) { d = hi; }
  var mixed = (a * 9 + b * 3 + c * 3 + d) / 16;
  px[8] = mixed;
  return mixed * 4 + (a ^ d);
}
""",
}

STRAIGHT_LINE_NAMES: Tuple[str, ...] = tuple(STRAIGHT_LINE_SOURCES)


#: Call-heavy kernels for the interprocedural tier: every one spends its
#: time crossing function boundaries, which the speculative inliner
#: erases.  Each kernel is a *module* (entry function plus callees) so
#: the module-level adaptive runtime can tier every function and route
#: residual calls through itself.
CALL_KERNEL_SOURCES: Dict[str, str] = {
    # A hot loop calling one tiny helper per element — the classic
    # "small-helper" shape where call overhead dominates the work.
    "helper_loop": """
func weigh(v, scale) {
  var w = v * scale + 7;
  if (w < 0) { w = 0 - w; }
  return w;
}
func helper_loop(p, n, scale) {
  var acc = 0;
  var i = 0;
  while (i < n) {
    acc = acc + weigh(p[i], scale);
    i = i + 1;
  }
  return acc;
}
""",
    # Two chained helpers per iteration (nested call expressions), so
    # inlining must splice one body into another's continuation.
    "chain": """
func mix(a, b) {
  return (a ^ b) + (a & b) * 2;
}
func clamp8(v) {
  if (v > 255) { return 255; }
  if (v < 0) { return 0; }
  return v;
}
func chain(p, n) {
  var acc = 0;
  var i = 0;
  while (i < n) {
    acc = acc + clamp8(mix(p[i], acc));
    i = i + 1;
  }
  return acc;
}
""",
    # Self-recursive fib: inlining peels recursion levels, cutting the
    # number of runtime dispatches per call tree.
    "fib": """
func fib(n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
""",
    # A clamping helper whose saturation branch is cold while warm: the
    # speculative tier turns the branch *inside the inlined body* into a
    # guard, and a violating outlier element fires it mid-loop — the
    # canonical multi-frame deoptimization scenario.
    "clamp_call": """
func clampv(v, limit) {
  if (v > limit) { return limit; }
  return v;
}
func clamp_call(p, n, limit) {
  var acc = 0;
  var i = 0;
  while (i < n) {
    acc = acc + clampv(p[i], limit);
    i = i + 1;
  }
  return acc;
}
""",
}

#: Entry function of each call kernel's module.
CALL_KERNEL_ENTRIES: Dict[str, str] = {
    "helper_loop": "helper_loop",
    "chain": "chain",
    "fib": "fib",
    "clamp_call": "clamp_call",
}

CALL_KERNEL_NAMES: Tuple[str, ...] = tuple(CALL_KERNEL_SOURCES)


def call_kernel_module(name: str) -> Module:
    """A fresh f_base module (SSA, debug info) for one call-heavy kernel."""
    try:
        source = CALL_KERNEL_SOURCES[name]
    except KeyError:
        raise KeyError(
            f"unknown call kernel {name!r}; choose from {CALL_KERNEL_NAMES}"
        ) from None
    return compile_program(source, module_name=name)


def call_kernel_arguments(
    name: str, *, size: int = 24, seed: int = 9, violate: bool = False
) -> Tuple[List[int], Memory]:
    """Executable arguments (and memory) for one call-heavy kernel.

    ``violate=True`` produces inputs that break a fact the speculative
    interprocedural tier assumes after warming on the default regime
    (meaningful for ``clamp_call``, whose violation fires a guard inside
    the inlined callee body; the other kernels ignore the flag).
    """
    import random

    rng = random.Random(seed + len(name))
    memory = Memory()

    def array(values: Sequence[int]) -> int:
        base = memory.allocate(len(values))
        memory.write_array(base, list(values))
        return base

    if name == "helper_loop":
        values = [rng.randint(-40, 40) for _ in range(size)]
        return [array(values), size, 3], memory
    if name == "chain":
        values = [rng.randint(0, 300) for _ in range(size)]
        return [array(values), size], memory
    if name == "fib":
        return [12], memory
    if name == "clamp_call":
        limit = 100
        values = [rng.randint(0, limit - 1) for _ in range(size)]
        if violate:
            values[size // 2] = limit + 41  # one outlier saturates mid-loop
        return [array(values), size, limit], memory
    raise KeyError(f"unknown call kernel {name!r}")


def benchmark_source(name: str) -> str:
    """MiniC source of one named benchmark kernel."""
    try:
        return BENCHMARK_SOURCES[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; choose from {BENCHMARK_NAMES}") from None


def benchmark_function(name: str) -> Function:
    """The f_base (SSA + debug info) form of one named benchmark kernel."""
    return compile_function(benchmark_source(name), name)


def benchmark_arguments(name: str, *, size: int = 24, seed: int = 7) -> Tuple[List[int], Memory]:
    """Executable arguments (and pre-initialized memory) for one kernel.

    Array parameters are materialized in a fresh :class:`Memory` and passed
    by base address, mirroring how the original programs would receive
    pointers.
    """
    import random

    rng = random.Random(seed + len(name))
    memory = Memory()

    def array(values: Sequence[int]) -> int:
        base = memory.allocate(len(values))
        memory.write_array(base, list(values))
        return base

    data = [rng.randint(0, 255) for _ in range(size)]
    signed = [rng.randint(-50, 50) for _ in range(size)]

    if name == "bzip2":
        return [array(data), size], memory
    if name == "h264ref":
        return [array(data), array(list(reversed(data))), size], memory
    if name == "hmmer":
        return [array(signed), array(data), size], memory
    if name == "namd":
        return [array(signed), array(list(reversed(signed))), min(size, 12)], memory
    if name == "perlbench":
        return [array(data), size], memory
    if name == "sjeng":
        return [array(signed), size], memory
    if name == "soplex":
        return [array(signed), size], memory
    if name == "bullet":
        lows = sorted(rng.randint(0, 100) for _ in range(size))
        highs = [lo + rng.randint(1, 20) for lo in lows]
        return [array(lows), array(highs), min(size, 12)], memory
    if name == "dcraw":
        return [array(data), size], memory
    if name == "ffmpeg":
        return [array(signed), size], memory
    if name == "fhourstones":
        return [array(data), size], memory
    if name == "vp8":
        return [array(data), size], memory
    raise KeyError(f"unknown benchmark {name!r}")


def straightline_function(name: str) -> Function:
    """The f_base form of one straight-line (loop-free) kernel."""
    try:
        source = STRAIGHT_LINE_SOURCES[name]
    except KeyError:
        raise KeyError(
            f"unknown straight-line kernel {name!r}; choose from {STRAIGHT_LINE_NAMES}"
        ) from None
    return compile_function(source, name)


def straightline_arguments(name: str, *, seed: int = 5) -> Tuple[List[int], Memory]:
    """Executable arguments (and memory) for one straight-line kernel."""
    import random

    rng = random.Random(seed + len(name))
    memory = Memory()
    if name == "poly8":
        return [rng.randint(-9, 9), rng.randint(-9, 9)], memory
    if name == "blend8":
        base = memory.allocate(9)
        memory.write_array(base, [rng.randint(0, 255) for _ in range(8)] + [0])
        return [base], memory
    raise KeyError(f"unknown straight-line kernel {name!r}")
