"""Hand-written Python twins of the MiniC kernels the benchmark runs.

Each twin is the same algorithm written directly in Python — what
CPython itself allows for that kernel — with array parameters taken as
lists.  The twins are the expected values for every kernel that has one
and the denominator of ``vs_native_geomean``; they share no code with
the compiler under test.  MiniC semantics kept by hand: ``/`` and ``%``
truncate toward zero (``tdiv``/``trem`` where an operand can be
negative on the inputs the benchmark generates; plain ``//``/``%`` where
both are non-negative there, e.g. pixel and opcode data in 0..255) and
shift counts are masked with ``& 63`` (every shift below is by a small
constant, so the mask is the identity).
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["TWINS", "ARRAY_PARAMS", "native_arguments", "twin_source"]


def tdiv(a: int, b: int) -> int:
    """MiniC ``a / b``: quotient truncated toward zero."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def trem(a: int, b: int) -> int:
    """MiniC ``a % b``: remainder whose sign follows the dividend."""
    return a - tdiv(a, b) * b


# ---------------------------------------------------------------------- #
# The twelve loop kernels (repro.workloads.LOOP_KERNEL_NAMES).
# ---------------------------------------------------------------------- #


def bzip2(buf, n):
    freq = [0] * 16
    run = 0
    prev = -1
    total = 0
    weight = n * 3 + 7
    for i in range(n):
        b = buf[i] % 16
        freq[b] += 1
        if b == prev:
            run += 1
            if run >= 4:
                total += run * 2
                run = 0
        else:
            run = 1
            prev = b
        total += b * weight
    acc = 0
    for i in range(16):
        acc += freq[i] * weight + i
    return total + acc


def h264ref(cur, ref, n):
    sad = 0
    bias = n * 2 + 1
    for i in range(n):
        d = cur[i] - ref[i]
        if d < 0:
            d = -d
        sad += d * bias
        if sad > 100000:
            sad -= bias
    return sad


def hmmer(emit, trans, n):
    match = [0] * 32
    insert = [0] * 32
    best = 0
    for i in range(1, n):
        k = i % 32
        prev = (i - 1) % 32
        e = emit[i]
        t = trans[i]
        via_match = match[prev] + t
        via_insert = insert[prev] + t * 2
        if via_match > via_insert:
            score = via_match + e
        else:
            score = via_insert + e
        match[k] = score
        insert[k] = via_match - e
        if score > best:
            best = score
    return best


def namd(px, py, n):
    fx = 0
    fy = 0
    c = n * n + 3
    for i in range(n):
        for j in range(i + 1, n):
            dx = px[i] - px[j]
            dy = py[i] - py[j]
            r2 = dx * dx + dy * dy
            if r2 < c:
                inv = c - r2
                fx += dx * inv
                fy += dy * inv
            else:
                fx -= 1
    return fx * 3 + fy


def perlbench(ops, n):
    acc = 0
    seed = 1469598103
    norm = n * 5 + 11
    for i in range(n):
        op = ops[i]
        h = (seed ^ op) * 16777619 % 1024
        if h < 0:
            h = -h
        kind = op % 4
        if kind == 0:
            acc += h
        elif kind == 1:
            acc -= h >> 2
        elif kind == 2:
            acc += h * 3
        else:
            acc ^= h
        acc += norm
    return acc


def sjeng(board, n):
    score = 0
    mobility = 0
    center = n // 2
    for i in range(n):
        piece = board[i]
        dist = i - center
        if dist < 0:
            dist = -dist
        if piece > 0:
            score += piece * (8 - dist)
            mobility += piece % 3
        elif piece < 0:
            score -= (-piece) * (8 - dist)
        else:
            mobility += center % 2
    return score * 4 + mobility


def soplex(cost, n):
    best = 0
    best_index = -1
    scale = n + 13
    for i in range(n):
        reduced = cost[i] * scale - i
        if reduced < best:
            best = reduced
            best_index = i
    return best_index * 1000 + best


def bullet(mins, maxs, n):
    pairs = 0
    margin = n % 7 + 1
    for i in range(n):
        lo = mins[i] - margin
        hi = maxs[i] + margin
        for j in range(i + 1, n):
            if lo <= maxs[j] and mins[j] <= hi:
                pairs += 1
    return pairs * margin


def dcraw(raw, n):
    out = 0
    gain = n * 2 + 5
    for i in range(2, n - 2):
        here = raw[i]
        interp = (raw[i - 1] + raw[i + 1] + here * 2) // 4
        err = here - interp
        if err < 0:
            err = -err
        out += interp * gain + err
    return out


def ffmpeg(block, n):
    total = 0
    for i in range(n):
        v = block[i]
        even = v + block[(i + 2) % n]
        odd = v - block[(i + 1) % n]
        clipped = ((even * 64 + 32) >> 6) + ((odd * 83 + 32) >> 6)
        if clipped > 255:
            clipped = 255
        if clipped < -256:
            clipped = -256
        total += clipped
    return total


def fhourstones(history, n):
    hash_ = 2166136261
    hits = 0
    probes = 0
    penalty = (n % 5 + 1) % 2
    for i in range(n):
        move = history[i]
        hash_ = (hash_ ^ move) * 16777619
        slot = hash_ % 8192
        if slot < 0:
            slot = -slot
        probes += 1
        if slot % 64 == move % 64:
            hits += 1
        else:
            hits -= penalty
    return tdiv(hits * 100000, probes + 1)


def vp8(pixels, n):
    filtered = 0
    for i in range(1, n - 1):
        q0 = pixels[i]
        delta = (q0 - pixels[i - 1]) * 3 + (pixels[i + 1] - q0)
        if delta > 9:
            delta = 9
        if delta < -9:
            delta = -9
        filtered += q0 - delta
    return filtered + 9


# ---------------------------------------------------------------------- #
# The seven short-bodied kernels of ``steady_calls``.
# ---------------------------------------------------------------------- #


def add(a, b):
    return a + b


def poly8(x, y):
    p = 7
    p = p * x + 3
    p = p * x + 11
    p = p * x + 2
    p = p * x + 9
    p = p * x + 5
    p = p * x + 1
    p = p * x + 8
    q = 3
    q = q * y + 13
    q = q * y + 4
    q = q * y + 6
    q = q * y + 10
    m = (p ^ q) + (p & q) * 3
    m = (m << 3) - (m >> 2)
    return p * 5 - q * 7 + trem(m, 1000003)


def blend8(px):
    a = min(px[0] + px[1] * 2, 255)
    b = min(px[2] + px[3] * 2, 255)
    c = min(px[4] + px[5] * 2, 255)
    d = min(px[6] + px[7] * 2, 255)
    mixed = (a * 9 + b * 3 + c * 3 + d) // 16
    px[8] = mixed
    return mixed * 4 + (a ^ d)


def _weigh(v, scale):
    w = v * scale + 7
    return -w if w < 0 else w


def helper_loop(p, n, scale):
    acc = 0
    for i in range(n):
        acc += _weigh(p[i], scale)
    return acc


def _mix(a, b):
    return (a ^ b) + (a & b) * 2


def _clamp8(v):
    if v > 255:
        return 255
    if v < 0:
        return 0
    return v


def chain(p, n):
    acc = 0
    for i in range(n):
        acc += _clamp8(_mix(p[i], acc))
    return acc


def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)


def _clampv(v, limit):
    return limit if v > limit else v


def clamp_call(p, n, limit):
    acc = 0
    for i in range(n):
        acc += _clampv(p[i], limit)
    return acc


# ---------------------------------------------------------------------- #
# The polymorphic and speculative kernels of ``phase_shift``.
# ---------------------------------------------------------------------- #


def modal_sum(mode, xs, n):
    acc = 0
    for i in range(n):
        v = xs[i]
        if mode == 0:
            acc += v
        elif mode == 1:
            acc += v * 2
        elif mode == 2:
            acc -= v
        elif mode == 3:
            acc += v * 3 - i
        elif mode == 4:
            acc ^= v
        elif mode == 5:
            acc += v * v
        elif mode == 6:
            acc = acc * 2 - v
        else:
            acc += v + i
    return acc


def shape_walk(mode, xs, n):
    acc = 0
    for i in range(n):
        if mode == 0:
            j = i
        elif mode == 1:
            j = n - 1 - i
        elif mode == 2:
            j = (i * 2) % n
        elif mode == 3:
            j = (i * 3) % n
        elif mode == 4:
            j = (i + n // 2) % n
        elif mode == 5:
            j = (i * 5) % n
        else:
            j = (n - 1 - i * 2 % n + n) % n
        acc += xs[j] - i
    return acc


def op_mix(mode, xs, n):
    acc = 1
    for i in range(n):
        v = xs[i]
        if mode == 0:
            acc += v & 255
        elif mode == 1:
            acc ^= v + i
        elif mode == 2:
            acc += v | i
        elif mode == 3:
            acc = acc * 3 + v
        elif mode == 4:
            acc += v - (i & 7)
        else:
            acc = (acc ^ v) + i
    return acc


def dispatch(kind, vals, n):
    acc = 0
    for i in range(n):
        v = vals[i]
        if kind == 0:
            acc += v
        elif kind == 1:
            acc += v * 3 - i
        else:
            acc ^= v + i
    return acc


def clamp_sum(xs, n, limit):
    acc = 0
    for i in range(n):
        v = xs[i]
        acc += limit if v > limit else v
    return acc


def phase_field(cfg, xs, n):
    mode = cfg[0]
    acc = 0
    for i in range(n):
        if mode == 1:
            acc += xs[i] * 2
        else:
            acc -= xs[i]
    return acc


#: Kernel name → twin.
TWINS: Dict[str, Callable[..., int]] = {
    fn.__name__: fn
    for fn in (
        bzip2, h264ref, hmmer, namd, perlbench, sjeng, soplex, bullet, dcraw,
        ffmpeg, fhourstones, vp8,
        add, poly8, blend8, helper_loop, chain, fib, clamp_call,
        modal_sum, shape_walk, op_mix, dispatch, clamp_sum, phase_field,
    )
}

#: Kernel name → positions of its array (base-address) parameters.
ARRAY_PARAMS: Dict[str, Tuple[int, ...]] = {
    "bzip2": (0,), "h264ref": (0, 1), "hmmer": (0, 1), "namd": (0, 1),
    "perlbench": (0,), "sjeng": (0,), "soplex": (0,), "bullet": (0, 1),
    "dcraw": (0,), "ffmpeg": (0,), "fhourstones": (0,), "vp8": (0,),
    "add": (), "poly8": (), "blend8": (0,), "helper_loop": (0,), "chain": (0,),
    "fib": (), "clamp_call": (0,),
    "modal_sum": (1,), "shape_walk": (1,), "op_mix": (1,),
    "dispatch": (1,), "clamp_sum": (0,), "phase_field": (0, 1),
}

#: Helper functions a twin calls (part of its module source).
_HELPERS: Dict[str, Tuple[Callable[..., int], ...]] = {
    "helper_loop": (_weigh,),
    "chain": (_mix, _clamp8),
    "clamp_call": (_clampv,),
}


def native_arguments(name: str, args: Sequence[int], memory, length: int) -> List[object]:
    """``args`` with each array base address replaced by a list of its cells.

    ``length`` is the allocation size the input generator used; an array
    is read up to the next allocation or ``length`` cells, whichever the
    generator made (``phase_field``'s one-cell ``cfg`` sits right before
    its data array).
    """
    arrays = ARRAY_PARAMS[name]
    bases = sorted(args[index] for index in arrays)
    out: List[object] = list(args)
    for index in arrays:
        base = args[index]
        later = [other for other in bases if other > base]
        size = min(length, later[0] - base) if later else length
        out[index] = memory.read_array(base, size)
    return out


def twin_source(name: str) -> str:
    """Python source text of one twin (with its helpers and tdiv/trem)."""
    parts = [tdiv, trem, *_HELPERS.get(name, ()), TWINS[name]]
    return "\n\n".join(inspect.getsource(part) for part in parts)
