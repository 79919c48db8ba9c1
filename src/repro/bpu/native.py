"""Native kernels: JIT-compiled column builders and state walks.

``native`` — the default of :data:`repro.bpu.runner.VALID_KERNELS` —
replays through batch kernels over the SoA columns of a
:class:`~repro.bpu.vector.ReplayBatch`.  Everything trace-pure is
hoisted out of the replay and built here in one compiled pass per
column family, each the compiled form of one scalar definition:

* :func:`fold_columns` — :class:`~repro.bpu.base.FoldedHistory`
  registers for any (length, width) pairs; Whisper's XOR-hashed
  histories (:meth:`ReplayBatch.hashed_column`) read them;
* :func:`tage_columns` — every tagged table's entry index and tag
  before each branch (``TagePredictor._compute``) plus the post-run
  folded registers, with no per-register column in between;
* :func:`sc_columns` — the statistical corrector's index rows
  (``StatisticalCorrector._indices``) and its post-run 32-bit history.

What remains is the sequential table-state walk of TAGE, TAGE-SC-L and
the perceptron, which this module runs as compiled C over those columns
(cached per batch and table geometry), bit-identical to the scalar
oracle (the equivalence suite is the contract).  The flow's other
sequential walks run here too, each the compiled form of one scalar
definition:

* :func:`gen_outcomes` — the trace generator's outcome pass
  (``_walk_scalar``'s ``outcome`` calls), driven by
  :mod:`repro.workloads.generator`;
* :func:`hint_walk` — the hint buffer's LRU walk
  (:class:`~repro.core.hint_buffer.HintBuffer` under ``on_block`` and
  ``predict``), driven by ``WhisperRuntime.predict_batch``;
* :func:`lru_walk` and :func:`fdip_merge` — the timing model's I-cache
  and BTB LRU walks and its FDIP stall merge (``_timing_scalar``),
  driven by :mod:`repro.sim.simulator`;
* :func:`split_search` and :func:`split_winners` — the formula search's
  root split over every 8-input encoding (``_RootSplit`` and the
  NumPy argmin), driven by :class:`repro.core.search.FormulaSearch`.

Backend
-------
``src/repro/bpu/_replay.c`` is compiled on first use with the system C
toolchain (``cc``/``gcc``/``clang``) into a shared library cached per
user and per source digest (:func:`library_path`), then loaded through
:mod:`ctypes` — a just-in-time build with a one-off cost of roughly a
second per machine.

Every entry point here needs the library.  Callers reach them only
through :func:`repro.bpu.runner.use_native`, the one test for the fast
path: when the library cannot be built or loaded, :func:`load` returns
None after a single :class:`RuntimeWarning` per process, and every call
of replay, timing, trace generation, the training tables and the
exhaustive formula search runs its scalar definition
(``_simulate_scalar``, ``_timing_scalar``, ``_walk_scalar``,
``_collect_scalar``, the NumPy root split) end to end: slower, with
identical results.  The kernels registered here also name :func:`load`
as their ``needs`` probe, so :func:`repro.bpu.runner.kernel_for`
resolves them to None without it.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import tempfile
import warnings
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .loop import _LoopEntry
from .perceptron import PerceptronPredictor
from .runner import register_kernel
from .tage import TagePredictor
from .tage_sc_l import TageScLPredictor
from .vector import ReplayBatch

#: Environment override for the compiled-library cache directory.
CACHE_ENV_VAR = "REPRO_NATIVE_CACHE"

#: C compilers probed, in order.
_COMPILERS = ("cc", "gcc", "clang")

_SOURCE = Path(__file__).with_name("_replay.c")

_lib: Optional[ctypes.CDLL] = None
#: Why the library could not load; set once, on the first failure.
_load_error: Optional[str] = None


def _cache_dir() -> Path:
    """Directory holding compiled kernel libraries (per user by default)."""
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    uid = os.getuid() if hasattr(os, "getuid") else "any"
    return Path(tempfile.gettempdir()) / f"repro-native-{uid}"


def library_path() -> Path:
    """Where :func:`load` looks for the compiled library: the cache
    directory, under a name carrying the digest of the kernel source."""
    digest = hashlib.sha256(_SOURCE.read_bytes()).hexdigest()[:16]
    return _cache_dir() / f"replay-{digest}.so"


def find_compiler() -> Optional[str]:
    """Path of the first available C compiler, or None."""
    for name in _COMPILERS:
        path = shutil.which(name)
        if path:
            return path
    return None


def _compile(compiler: str, so_path: Path) -> None:
    """Compile the kernel source to ``so_path`` (atomic via rename)."""
    # Imported here: every cold start loads the cached library, and only
    # the first build on a machine needs a subprocess.
    import subprocess

    so_path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        suffix=".so", prefix="replay-build-", dir=str(so_path.parent)
    )
    os.close(fd)
    try:
        subprocess.run(
            [compiler, "-O2", "-fPIC", "-shared", "-o", tmp_name, str(_SOURCE), "-lm"],
            check=True,
            capture_output=True,
            text=True,
        )
        os.replace(tmp_name, so_path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _declare(lib: ctypes.CDLL) -> None:
    """Attach argtypes/restype to the kernel entry points."""
    i64 = ctypes.c_int64
    ptr = ctypes.c_void_p
    lib.replay_perceptron.restype = None
    lib.replay_perceptron.argtypes = [
        i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
    ]
    lib.replay_tage.restype = i64
    lib.replay_tage.argtypes = [
        i64, i64, i64, i64,          # n, n_tables, n_entries, n_bimodal
        ptr, ptr, ptr,               # idx_mat, tag_mat, bim_idx
        ptr, ptr, ptr,               # taken, hinted, hint_ok
        i64,                         # allocate_hinted
        ptr, ptr, ptr, ptr,          # ctrs, tags, us, bimodal
        ptr,                         # scalars
        i64, i64, i64,               # has_sc, n_sc, sc_entries
        ptr, ptr, i64, i64,          # sc_idx_mat, sc_tables, weight, threshold
        ptr, i64, i64,               # keys, n_keys, loop_cap
        ptr,                         # loop_rows
        ptr,                         # correct
    ]
    lib.lru_walk.restype = i64
    lib.lru_walk.argtypes = [i64, ptr, i64, i64, ptr]
    lib.fold_columns.restype = None
    lib.fold_columns.argtypes = [i64, ptr, i64, ptr, ptr, ptr, ptr]
    lib.tage_columns.restype = None
    lib.tage_columns.argtypes = [
        i64, i64, ptr, i64, i64,     # n, n_tables, histories, log_entries, tag_bits
        ptr, ptr,                    # pcs, taken
        ptr, ptr, ptr,               # idx_mat, tag_mat, finals
    ]
    lib.sc_columns.restype = None
    lib.sc_columns.argtypes = [i64, i64, ptr, i64, ptr, ptr, ptr, ptr]
    lib.gen_outcomes.restype = None
    lib.gen_outcomes.argtypes = [i64] + [ptr] * 9
    lib.hint_walk.restype = i64
    lib.hint_walk.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, i64, i64, ptr, ptr, ptr, ptr]
    lib.fdip_merge.restype = None
    lib.fdip_merge.argtypes = [i64, ptr, ptr, i64, ptr, ptr, ctypes.c_double, i64, ptr, ptr]
    lib.split_search.restype = None
    lib.split_search.argtypes = [i64, ptr, i64, ptr, i64, ptr, ptr]
    lib.split_winners.restype = None
    lib.split_winners.argtypes = [i64, ptr, ptr, i64, i64, ptr, i64, ptr, ptr, ptr]


def load() -> Optional[ctypes.CDLL]:
    """The compiled kernel library, building it on first use.

    Returns None — after a single per-process warning — when no C
    compiler is available or the build/load fails; every call then runs
    its scalar definition (:func:`repro.bpu.runner.use_native`).  The
    warning names the line that called the replay, timing, generator,
    training or search entry point only when the first load goes through
    ``use_native``; a first load from anywhere else (a direct call, a
    ``needs`` probe) is attributed three frames above ``load``.
    """
    global _lib, _load_error
    if _lib is not None:
        return _lib
    if _load_error is not None:
        return None
    try:
        so_path = library_path()
        if not so_path.exists():
            compiler = find_compiler()
            if compiler is None:
                raise RuntimeError("no C compiler (cc/gcc/clang) on PATH")
            _compile(compiler, so_path)
        lib = ctypes.CDLL(str(so_path))
        _declare(lib)
        _lib = lib
        return lib
    except Exception as error:
        _load_error = str(error) or type(error).__name__
        warnings.warn(
            f"native replay kernels unavailable ({_load_error}); "
            "falling back to the scalar replay loop (results are identical)",
            RuntimeWarning,
            # load <- use_native <- entry point <- the line to blame.
            stacklevel=4,
        )
        return None


def load_error() -> Optional[str]:
    """Why the library could not load, or None when it has not failed."""
    return _load_error


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    """Raw data pointer of a (contiguous) numpy array for ctypes."""
    return ctypes.c_void_p(array.ctypes.data)


def _u8(array: np.ndarray) -> np.ndarray:
    """Contiguous uint8 copy/view of a boolean column."""
    return np.ascontiguousarray(array, dtype=np.uint8)


def lru_walk(keys: np.ndarray, n_sets: int, assoc: int) -> np.ndarray:
    """Hit flags of ``keys`` walked through an LRU set-associative array.

    The compiled form of :meth:`repro.sim.caches.SetAssociativeCache.access`
    (and of the BTB's) over a whole stream, from empty sets: key ``k``
    maps to set ``k % n_sets`` of ``assoc`` ways.  Needs the library
    (:func:`load` not None).
    """
    _within("n_sets", (n_sets,), 1, math.inf)
    _within("assoc", (assoc,), 1, math.inf)
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    n = int(keys.shape[0])
    hit = np.empty(max(n, 1), dtype=np.uint8)
    if load().lru_walk(n, _ptr(keys), n_sets, assoc, _ptr(hit)) < 0:
        raise MemoryError("native lru_walk failed to allocate its sets")
    return hit[:n].view(bool)


def gen_outcomes(
    slots: np.ndarray,
    uniforms: np.ndarray,
    kinds: np.ndarray,
    iparam: np.ndarray,
    fparam: np.ndarray,
    positions: np.ndarray,
    bits: bytes,
    state: np.ndarray,
) -> np.ndarray:
    """Outcomes of a generated trace's conditional events, in order.

    The compiled form of :func:`repro.workloads.generator._walk_scalar`'s
    ``outcome`` calls: event ``i`` resolves through the behaviour in slot
    ``slots[i]`` with draw ``uniforms[i]`` and the outcomes before it as
    its global history.  Each slot's ``kinds`` code names its behaviour
    (0 biased, 1 bursty, 2 sparse, 3 pattern, 4 loop, 5 local);
    ``iparam`` (m, 3), ``fparam`` (m, 2), ``positions`` and ``bits``
    hold its parameters as ``_replay.c`` documents, and ``state`` (m,)
    its mutable state, updated in place to the post-run values.  Returns
    a bool column.  Needs the library.
    """
    slots = np.ascontiguousarray(slots, dtype=np.int64)
    uniforms = np.ascontiguousarray(uniforms, dtype=np.float64)
    kinds = np.ascontiguousarray(kinds, dtype=np.int64)
    n, m = int(slots.shape[0]), int(kinds.shape[0])
    if uniforms.shape[0] < n:
        raise ValueError(f"{uniforms.shape[0]} draws for {n} events")
    if state.dtype != np.int64 or not state.flags.c_contiguous or state.shape != (m,):
        raise ValueError(f"state must be a contiguous int64 array of {m} slots")
    if iparam.shape != (m, 3) or fparam.shape != (m, 2):
        raise ValueError("parameter columns disagree on the slot count")
    if n and not 0 <= int(slots.min()) <= int(slots.max()) < m:
        raise ValueError("slot outside the behaviour columns")
    out = np.empty(max(n, 1), dtype=np.uint8)
    load().gen_outcomes(
        n, _ptr(slots), _ptr(uniforms), _ptr(kinds),
        _ptr(np.ascontiguousarray(iparam, dtype=np.int64)),
        _ptr(np.ascontiguousarray(fparam, dtype=np.float64)),
        _ptr(np.ascontiguousarray(positions, dtype=np.int64)),
        _ptr(np.frombuffer(bytes(bits) or b"\0", dtype=np.uint8)), _ptr(state), _ptr(out),
    )
    return out[:n].view(bool)


def hint_walk(
    block_ids: np.ndarray,
    block_pcs: np.ndarray,
    is_conditional: np.ndarray,
    load_first: np.ndarray,
    load_pcs: np.ndarray,
    capacity: Optional[int],
):
    """The hint buffer's LRU walk over a trace, from an empty buffer.

    The compiled form of :class:`~repro.core.hint_buffer.HintBuffer`
    driven by ``WhisperRuntime.on_block`` and ``predict``: each event
    loads ``load_pcs[load_first[b]:load_first[b + 1]]`` for its block
    ``b``, then, when the block is conditional, probes ``block_pcs[b]``.
    ``capacity`` None is unlimited.  Returns ``(hit, counts,
    final_pcs, final_loads)``: per conditional event, the index of the
    load whose entry it hit, or -1; the (loads, hits, evictions) counts;
    the buffered PCs after the walk, least recent first, and the loads
    that parked them.  Needs the library.
    """
    block_ids = np.ascontiguousarray(block_ids, dtype=np.int32)
    block_pcs = np.asarray(block_pcs, dtype=np.int64)
    is_cond = _u8(is_conditional)
    load_first = np.ascontiguousarray(load_first, dtype=np.int64)
    n_blocks = int(block_pcs.shape[0])
    if is_cond.shape != block_pcs.shape or load_first.shape != (n_blocks + 1,):
        raise ValueError("per-block columns disagree on the block count")
    if block_ids.size and not 0 <= int(block_ids.min()) <= int(block_ids.max()) < n_blocks:
        raise ValueError("block id outside the program")
    keys, load_key = np.unique(np.asarray(load_pcs, dtype=np.int64), return_inverse=True)
    load_key = np.ascontiguousarray(load_key.reshape(-1), dtype=np.int64)
    if load_first[0] != 0 or load_first[-1] != load_key.shape[0] or (
        np.diff(load_first) < 0
    ).any():
        raise ValueError("load_first is not an offset column over load_pcs")
    n_keys = int(keys.shape[0])
    where = np.minimum(np.searchsorted(keys, block_pcs), max(n_keys - 1, 0))
    covered = keys[where] == block_pcs if n_keys else np.zeros(n_blocks, dtype=bool)
    probe_key = np.where(covered, where, -1).astype(np.int64)
    if capacity is not None and capacity < 1:
        raise ValueError("capacity must be positive (or None for unlimited)")
    cap = n_keys if capacity is None else int(capacity)
    n_cond = int(is_cond[block_ids].sum())
    hit = np.empty(max(n_cond, 1), dtype=np.int64)
    counts = np.zeros(3, dtype=np.int64)
    final_key = np.empty(max(n_keys, 1), dtype=np.int64)
    final_load = np.empty(max(n_keys, 1), dtype=np.int64)
    m = load().hint_walk(
        int(block_ids.shape[0]), _ptr(block_ids), _ptr(is_cond), _ptr(load_first),
        _ptr(load_key), _ptr(probe_key), n_keys, cap, _ptr(hit), _ptr(counts),
        _ptr(final_key), _ptr(final_load),
    )
    if m < 0:
        raise MemoryError("native hint_walk failed to allocate its buffer")
    return hit[:n_cond], tuple(counts.tolist()), keys[final_key[:m]], final_load[:m]


def fdip_merge(
    events: np.ndarray,
    latencies: np.ndarray,
    squashes: np.ndarray,
    prefix: np.ndarray,
    cap: float,
    fdip: bool,
) -> Tuple[float, int]:
    """I-cache stall cycles and covered misses of one timing run.

    The compiled form of ``_timing_scalar``'s miss accounting over the
    sparse merge of L1i misses (``events``, sorted, with their
    ``latencies``) and squashes (``squashes``, sorted events): run-ahead
    is anchored just past the latest earlier squash, read off the
    exclusive cycle ``prefix`` and capped at ``cap``.  Needs the
    library.
    """
    events = np.ascontiguousarray(events, dtype=np.int64)
    latencies = np.ascontiguousarray(latencies, dtype=np.int64)
    squashes = np.ascontiguousarray(squashes, dtype=np.int64)
    prefix = np.ascontiguousarray(prefix, dtype=np.float64)
    if events.shape != latencies.shape:
        raise ValueError(f"{events.shape} misses against {latencies.shape} latencies")
    for column in (events, squashes):
        if column.size and not 0 <= int(column.min()) <= int(column.max()) < prefix.size - 1:
            raise ValueError("event outside the cycle prefix")
    stalls = np.zeros(1, dtype=np.float64)
    covered = np.zeros(1, dtype=np.int64)
    load().fdip_merge(
        int(events.shape[0]), _ptr(events), _ptr(latencies),
        int(squashes.shape[0]), _ptr(squashes), _ptr(prefix),
        float(cap), int(fdip), _ptr(stalls), _ptr(covered),
    )
    return float(stalls[0]), int(covered[0])


# ----------------------------------------------------------------------
# Formula search: the root split of 8-input formulas
# ----------------------------------------------------------------------
#: Values of one history nibble and subformula columns of the compiled
#: root split (``_replay.c``'s SPLIT_W and SPLIT_SUB).
SPLIT_WIDTH = 16
SPLIT_SUB = 64
#: :func:`split_winners` position of a cell that holds no candidate.
SPLIT_NONE = np.iinfo(np.int64).max
#: Largest ``|nt - t|`` and row sample total the root split takes, so
#: that every sum in it stays inside an int64.
_SPLIT_MAX_D = 1 << 52
_SPLIT_MAX_TOTAL = 1 << 60


def _split_args(d, n_sub, mask, coef):
    """Contiguous int64 ``d``, ``mask`` and ``coef`` for the compiled
    root split, refused unless they are in the shapes and bounds
    ``_replay.c`` documents."""
    d = np.ascontiguousarray(d, dtype=np.int64)
    mask = np.ascontiguousarray(mask, dtype=np.int64)
    coef = np.ascontiguousarray(coef, dtype=np.int64)
    if d.ndim != 2 or d.shape[1] != SPLIT_WIDTH**2:
        raise ValueError(f"rows of {SPLIT_WIDTH**2} sample counts expected, got {d.shape}")
    _within("subformulas", (n_sub,), 1, SPLIT_SUB)
    if mask.shape != (SPLIT_WIDTH, SPLIT_SUB) or not np.isin(mask, (0, -1)).all():
        raise ValueError(f"mask must be a {SPLIT_WIDTH} x {SPLIT_SUB} table of 0 and -1")
    if coef.ndim != 2 or coef.shape[1] != 4 or not len(coef) or any(
        abs(one) > 1 or abs(y) > 1 or abs(xy) != 1 or x not in (0, -xy)
        for one, x, y, xy in coef.tolist()
    ):
        raise ValueError("coefficient rows must take the forms of the four root ops")
    if d.size:
        _within("nt - t", (int(d.min()), int(d.max())), -_SPLIT_MAX_D, _SPLIT_MAX_D)
    return d, mask, coef


def split_search(d: np.ndarray, n_sub: int, mask: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Each row's least and greatest dot product ``f . d`` over the whole
    op space of 8-input formulas, as a (rows, 2) int64 array.

    The compiled form of :meth:`repro.core.search._RootSplit.dots`
    reduced to its extremes: ``d`` holds rows of ``nt - t`` over the 256
    hashed histories, ``mask`` (16 x 64) is ``-S.T`` of the ``n_sub``
    subformulas' truth tables ``S``, its columns padded with copies of
    subformula 0, and ``coef`` has one (one, x, y, xy) row per root op.
    Needs the library.
    """
    d, mask, coef = _split_args(d, n_sub, mask, coef)
    rows = int(d.shape[0])
    out = np.empty((max(rows, 1), 2), dtype=np.int64)
    load().split_search(rows, _ptr(d), n_sub, _ptr(mask), len(coef), _ptr(coef), _ptr(out))
    return out[:rows]


def split_winners(
    d: np.ndarray,
    totals: np.ndarray,
    invert: bool,
    n_sub: int,
    mask: np.ndarray,
    coef: np.ndarray,
    positions: np.ndarray,
) -> np.ndarray:
    """Algorithm 1's winner per row: the least of ``positions`` over the
    encodings whose error equals the row's minimum.

    The compiled form of the argmin in
    :meth:`repro.core.search.FormulaSearch.best_formulas`, over the whole
    op space: ``d``, ``n_sub``, ``mask`` and
    ``coef`` as :func:`split_search` takes them, ``totals`` each row's
    (sum(t), sum(nt)), ``invert`` whether the space has the inversion
    stage, and ``positions[v][r][a][b]`` (2 x roots x 64 x 64) the
    permutation position of op (r, a, b) with invert value ``v``, or
    :data:`SPLIT_NONE` where no candidate is.  Needs the library.
    """
    d, mask, coef = _split_args(d, n_sub, mask, coef)
    totals = np.ascontiguousarray(totals, dtype=np.int64)
    positions = np.ascontiguousarray(positions, dtype=np.int64)
    rows = int(d.shape[0])
    if totals.shape != (rows, 2):
        raise ValueError(f"{totals.shape} totals for {rows} rows")
    if positions.shape != (2, len(coef), SPLIT_SUB, SPLIT_SUB):
        raise ValueError(f"positions of shape {positions.shape} for {len(coef)} root ops")
    if rows:
        bounds = (int(totals.min()), int(totals.max()))
        _within("row sample total", bounds, -_SPLIT_MAX_TOTAL, _SPLIT_MAX_TOTAL)
    out = np.empty(max(rows, 1), dtype=np.int64)
    load().split_winners(
        rows, _ptr(d), _ptr(totals), int(invert), n_sub, _ptr(mask), len(coef), _ptr(coef),
        _ptr(positions), _ptr(out),
    )
    return out[:rows]


# ----------------------------------------------------------------------
# Column builders: the trace-pure inputs of the replay
# ----------------------------------------------------------------------
#: Widest register or index the compiled builders take, so that every
#: shift in them stays inside an int64.
_MAX_BITS = 62


def _within(name: str, values, low: int, high: float = _MAX_BITS) -> None:
    """Refuse a parameter the compiled kernels cannot take without an
    undefined shift, a division by zero or a read outside their arrays."""
    for value in values:
        if not low <= value <= high:
            raise ValueError(f"{name} {value} outside {low}..{high}")


def _branches(pcs: np.ndarray, taken: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Contiguous int64 PCs and uint8 outcomes of one branch stream."""
    pcs = np.ascontiguousarray(pcs, dtype=np.int64)
    taken = _u8(taken)
    if pcs.shape != taken.shape or pcs.ndim != 1:
        raise ValueError(f"{pcs.shape} PCs against {taken.shape} outcomes")
    return pcs, taken


def fold_columns(taken: np.ndarray, pairs) -> Tuple[np.ndarray, np.ndarray]:
    """:class:`~repro.bpu.base.FoldedHistory` registers over an outcome
    stream, one per ``(length, width)`` pair, built in one call.

    Returns ``(cols, finals)``: a ``(len(pairs), n)`` int64 matrix whose
    row ``c`` holds register ``c`` before each outcome, and the post-run
    registers.  Length 0 is an empty window, a row of zeros.  Needs the
    library (:func:`load` not None).
    """
    taken = _u8(taken)
    lengths = np.array([length for length, _ in pairs], dtype=np.int64)
    widths = np.array([width for _, width in pairs], dtype=np.int64)
    _within("history length", lengths.tolist(), 0, math.inf)
    _within("register width", widths.tolist(), 1)
    n = int(taken.shape[0])
    cols = np.empty((len(pairs), n), dtype=np.int64)
    finals = np.empty(len(pairs), dtype=np.int64)
    load().fold_columns(
        n, _ptr(taken), len(pairs), _ptr(lengths), _ptr(widths),
        _ptr(cols), _ptr(finals),
    )
    return cols, finals


def tage_columns(
    pcs: np.ndarray, taken: np.ndarray, histories, log_entries: int, tag_bits: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every tagged table's entry index and tag before each branch.

    The compiled form of ``TagePredictor._compute`` over a whole stream:
    table ``i`` walks its index and two tag registers of length
    ``histories[i]`` once.  Returns ``(idx_mat, tag_mat, finals)``: two
    ``(len(histories), n)`` int64 matrices and, per table, the post-run
    (index, tag0, tag1) registers.  Needs the library.
    """
    pcs, taken = _branches(pcs, taken)
    lengths = np.array(histories, dtype=np.int64)
    _within("history length", lengths.tolist(), 1, math.inf)
    _within("log_entries", (log_entries,), 3)
    _within("tag_bits", (tag_bits,), 1)
    n, n_tables = int(pcs.shape[0]), len(lengths)
    idx_mat = np.empty((n_tables, n), dtype=np.int64)
    tag_mat = np.empty((n_tables, n), dtype=np.int64)
    finals = np.empty((n_tables, 3), dtype=np.int64)
    load().tage_columns(
        n, n_tables, _ptr(lengths), log_entries, tag_bits, _ptr(pcs), _ptr(taken),
        _ptr(idx_mat), _ptr(tag_mat), _ptr(finals),
    )
    return idx_mat, tag_mat, finals


def sc_columns(
    pcs: np.ndarray, taken: np.ndarray, history_lengths, log_entries: int
) -> Tuple[np.ndarray, int]:
    """The statistical corrector's index rows before each branch.

    The compiled form of ``StatisticalCorrector._indices`` over a whole
    stream, from a 32-bit history that starts at zero.  Returns the
    ``(len(history_lengths), n)`` int64 matrix and the post-run history.
    Needs the library.
    """
    pcs, taken = _branches(pcs, taken)
    lengths = np.array(history_lengths, dtype=np.int64)
    _within("history length", lengths.tolist(), 0, math.inf)
    _within("log_entries", (log_entries,), 0)
    n = int(pcs.shape[0])
    mat = np.empty((len(lengths), n), dtype=np.int64)
    ghr = np.zeros(1, dtype=np.int64)
    load().sc_columns(
        n, len(lengths), _ptr(lengths), log_entries, _ptr(pcs), _ptr(taken),
        _ptr(mat), _ptr(ghr),
    )
    return mat, int(ghr[0])


def tage_column_arrays(tage, batch: ReplayBatch):
    """:func:`tage_columns` for one TAGE's geometry, plus the bimodal
    index column, cached per batch and geometry:
    ``(idx_mat, tag_mat, bim_col, finals)``."""

    def build():
        idx_mat, tag_mat, finals = tage_columns(
            batch.pcs, batch.taken, tage.histories, tage.log_entries, tage.tag_bits
        )
        return idx_mat, tag_mat, (batch.pcs >> 2) & tage._bimodal_mask, finals

    geometry = (
        tage.log_entries,
        tage.tag_bits,
        tage._bimodal_mask,
        tuple(tage.histories),
    )
    return batch.cached(("tage-cols",) + geometry, build)


def sc_column_arrays(sc, batch: ReplayBatch) -> Tuple[np.ndarray, int]:
    """:func:`sc_columns` for one corrector's geometry, cached per batch:
    ``(idx_mat, final_ghr)``."""
    return batch.cached(
        ("sc-cols", sc.log_entries, tuple(sc.history_lengths)),
        lambda: sc_columns(batch.pcs, batch.taken, sc.history_lengths, sc.log_entries),
    )


def writeback_tage_state(
    tage, batch: ReplayBatch, finals, use_alt_ctr: int, tick: int, rand: int
) -> None:
    """Restore derived TAGE history/scalar state after a batched replay.

    Kernels mutate the table contents; everything else — the
    USE_ALT_ON_NA / tick / LCG scalars, the folded-history registers and
    the global-history ring — is recomposed here from the batch so a
    predictor that went through a batched kernel is indistinguishable
    from one that replayed the scalar path.
    """
    tage._use_alt_on_na = use_alt_ctr
    tage._tick = tick
    tage._rand = rand
    tage._last_pc = None
    tage._last_state = None
    for i, (f_idx, f_tag0, f_tag1) in enumerate(finals.tolist()):
        tage._fold_idx[i].comp = f_idx
        tage._fold_tag0[i].comp = f_tag0
        tage._fold_tag1[i].comp = f_tag1
    # Rebuild the global-history ring from the trace tail.
    n = batch.n
    size = tage._hist_size
    mask = size - 1
    taken_arr = batch.taken
    tage._hist_ptr = 0
    hist = tage._hist
    for d in range(1, size + 1):
        hist[(1 - d) & mask] = int(taken_arr[n - d]) if n - d >= 0 else 0


# ----------------------------------------------------------------------
# Perceptron
# ----------------------------------------------------------------------
@register_kernel(PerceptronPredictor, needs=load)
def _native_perceptron(predictor, batch: ReplayBatch, hinted, hint_preds, suppress):
    """Native perceptron replay: compiled dot-product/train loop."""
    lib = load()
    n = batch.n
    idx = batch.cached(
        ("perceptron-idx-arr", predictor.n_perceptrons),
        lambda: np.ascontiguousarray(
            (batch.pcs >> 2) % predictor.n_perceptrons, dtype=np.int64
        ),
    )
    weights = np.array(predictor._weights, dtype=np.int64)
    recent = np.array(predictor._history, dtype=np.int64)
    taken = _u8(batch.taken)
    hinted_u8 = _u8(hinted)
    hint_ok = _u8(hint_preds == batch.taken)
    correct = np.empty(max(n, 1), dtype=np.uint8)

    lib.replay_perceptron(
        n,
        predictor.history_length,
        predictor.theta,
        _ptr(idx),
        _ptr(taken),
        _ptr(hinted_u8),
        _ptr(hint_ok),
        _ptr(weights),
        _ptr(recent),
        _ptr(correct),
    )

    for row, new in zip(predictor._weights, weights.tolist()):
        row[:] = new
    predictor._history = recent.tolist()
    predictor._last = None
    return correct[:n].astype(bool)


# ----------------------------------------------------------------------
# TAGE / TAGE-SC-L
# ----------------------------------------------------------------------
@register_kernel(TagePredictor, TageScLPredictor, needs=load)
def _native_tage_family(predictor, batch: ReplayBatch, hinted, hint_preds, suppress):
    """Native TAGE / TAGE-SC-L replay.

    Marshals the predictor's table state into flat int64 matrices, runs
    the compiled state-update loop over the trace-pure columns
    (:func:`tage_column_arrays` / :func:`sc_column_arrays`), and writes
    the mutated state back onto the predictor objects.  The loop
    predictor's table starts empty (:func:`repro.bpu.runner.simulate`
    resets the predictor first); the walk keys it by each branch's block
    and returns it least recent first, mapped back to PCs through the
    program's ``branch_pcs``.
    """
    lib = load()
    if isinstance(predictor, TageScLPredictor):
        tage, sc, loop = predictor.tage, predictor.sc, predictor.loop
    else:
        tage, sc, loop = predictor, None, None

    n = batch.n
    n_tables = tage.n_tables
    n_entries = 1 << tage.log_entries
    idx_mat, tag_mat, bim_arr, fold_finals = tage_column_arrays(tage, batch)

    ctrs = np.array(tage._ctrs, dtype=np.int64)
    tags = np.array(tage._tags, dtype=np.int64)
    us = np.array(tage._us, dtype=np.int64)
    bimodal = np.array(tage._bimodal, dtype=np.int64)
    scalars = np.array(
        [tage._use_alt_on_na, tage._tick, tage._rand], dtype=np.int64
    )
    taken = _u8(batch.taken)
    hinted_u8 = _u8(hinted)
    hint_ok = _u8(hint_preds == batch.taken)
    correct = np.empty(max(n, 1), dtype=np.uint8)

    has_sc = sc is not None
    if has_sc:
        if loop.n_entries < 1:
            raise ValueError("native kernel requires a loop table capacity >= 1")
        if loop._table:
            raise ValueError("native kernel requires an empty loop table")
        sc_idx_mat, sc_ghr = sc_column_arrays(sc, batch)
        sc_tables = np.array(sc._tables, dtype=np.int64)
        n_sc = len(sc.history_lengths)
        sc_entries = 1 << sc.log_entries
        program = batch.trace.program
        n_keys = program.n_blocks
        keys = np.ascontiguousarray(
            batch.trace.block_ids[batch.cond_event_indices], dtype=np.int32
        )
        if n and not 0 <= int(keys.min()) <= int(keys.max()) < n_keys:
            raise ValueError("block id outside the program")
        cap = loop.n_entries
    else:
        sc_idx_mat = sc_tables = np.zeros(1, dtype=np.int64)
        keys = np.zeros(1, dtype=np.int32)
        n_sc = sc_entries = n_keys = cap = 0
    loop_rows = np.empty((max(cap, 1), 4), dtype=np.int64)

    m = lib.replay_tage(
        n,
        n_tables,
        n_entries,
        len(tage._bimodal),
        _ptr(idx_mat),
        _ptr(tag_mat),
        _ptr(bim_arr),
        _ptr(taken),
        _ptr(hinted_u8),
        _ptr(hint_ok),
        int(not suppress),
        _ptr(ctrs),
        _ptr(tags),
        _ptr(us),
        _ptr(bimodal),
        _ptr(scalars),
        int(has_sc),
        n_sc,
        sc_entries,
        _ptr(sc_idx_mat),
        _ptr(sc_tables),
        sc.tage_weight if has_sc else 0,
        sc.threshold if has_sc else 0,
        _ptr(keys),
        n_keys,
        cap,
        _ptr(loop_rows),
        _ptr(correct),
    )
    if m < 0:
        raise MemoryError("native replay_tage failed to allocate its loop table")

    for i in range(n_tables):
        tage._ctrs[i][:] = ctrs[i].tolist()
        tage._tags[i][:] = tags[i].tolist()
        tage._us[i][:] = us[i].tolist()
    tage._bimodal[:] = bimodal.tolist()
    writeback_tage_state(
        tage, batch, fold_finals, int(scalars[0]), int(scalars[1]), int(scalars[2])
    )

    if has_sc:
        for k in range(n_sc):
            sc._tables[k][:] = sc_tables[k].tolist()
        sc._ghr = sc_ghr
        sc._last = None
        predictor._last = None
        rows = loop_rows[:m]
        for pc, (trip, count, conf) in zip(
            program.branch_pcs[rows[:, 0]].tolist(), rows[:, 1:].tolist()
        ):
            entry = loop._table[pc] = _LoopEntry()
            entry.trip, entry.count, entry.conf = trip, count, conf

    return correct[:n].astype(bool)
