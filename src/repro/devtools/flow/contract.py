"""The dataflow contract: sources, sinks, sanitizers, and budgets, as data.

Everything the deep analysis treats as meaningful lives here so a
review of "what counts as nondeterminism" or "what is a result field"
is a review of this file, not of the engine.  The shape mirrors
:mod:`repro.devtools.contract` (the shallow linter's allowlists): the
engine consumes these tables and adds no judgement of its own.

Taint **kinds** are short uppercase tags carried through the dataflow::

    CLOCK  wall-clock reads outside repro.obs.clock
    RNG    OS-entropy random streams (seeded streams are clean)
    ORDER  set-iteration order escaping into an ordered collection
    ENV    process environment and OS entropy (os.environ, os.urandom)
    ADDR   object identity (id(), hash() of non-literals, object.__repr__)
    POOL   pool completion order (as_completed / wait arrival order)
"""

from __future__ import annotations

__all__ = [
    "BLAKE2B_CONSTRUCTORS",
    "CALL_SOURCES",
    "DISPATCHERS",
    "FORK_UNSAFE_CONSTRUCTORS",
    "KIND_ADDR",
    "KIND_CLOCK",
    "KIND_ENV",
    "KIND_ORDER",
    "KIND_POOL",
    "KIND_RNG",
    "METHOD_SINKS",
    "ORDER_NEUTRAL_CALLS",
    "SANITIZERS",
    "SINK_CALL_NAMES",
    "SINK_RECORD_CLASSES",
    "SOURCE_EXEMPT_MODULES",
    "TAINT_EXEMPT_FIELDS",
    "UNRESOLVED_CALL_BUDGET",
    "WORKER_FORBIDDEN_CALLS",
]

KIND_CLOCK = "CLOCK"
KIND_RNG = "RNG"
KIND_ORDER = "ORDER"
KIND_ENV = "ENV"
KIND_ADDR = "ADDR"
KIND_POOL = "POOL"

#: Dotted call name -> taint kinds its return value carries.  Names are
#: matched against the spelling at the call site after import aliasing
#: (``from time import time`` still reads ``time.time`` here because the
#: symbol layer rewrites imported names to their defining module).
CALL_SOURCES: dict[str, frozenset[str]] = {
    # wall clocks
    "time.time": frozenset({KIND_CLOCK}),
    "time.time_ns": frozenset({KIND_CLOCK}),
    "time.monotonic": frozenset({KIND_CLOCK}),
    "time.monotonic_ns": frozenset({KIND_CLOCK}),
    "time.perf_counter": frozenset({KIND_CLOCK}),
    "time.perf_counter_ns": frozenset({KIND_CLOCK}),
    "time.process_time": frozenset({KIND_CLOCK}),
    "datetime.datetime.now": frozenset({KIND_CLOCK}),
    "datetime.datetime.utcnow": frozenset({KIND_CLOCK}),
    "datetime.datetime.today": frozenset({KIND_CLOCK}),
    "datetime.date.today": frozenset({KIND_CLOCK}),
    "datetime.now": frozenset({KIND_CLOCK}),
    "datetime.utcnow": frozenset({KIND_CLOCK}),
    # OS entropy / process environment
    "os.urandom": frozenset({KIND_ENV, KIND_RNG}),
    "os.getenv": frozenset({KIND_ENV}),
    "os.environ.get": frozenset({KIND_ENV}),
    "os.getpid": frozenset({KIND_ENV}),
    "uuid.uuid1": frozenset({KIND_RNG}),
    "uuid.uuid4": frozenset({KIND_RNG}),
    "secrets.token_bytes": frozenset({KIND_RNG}),
    "secrets.token_hex": frozenset({KIND_RNG}),
    # object identity
    "id": frozenset({KIND_ADDR}),
    # pool completion order — iterating these yields arrival order
    "concurrent.futures.as_completed": frozenset({KIND_POOL}),
    "futures.as_completed": frozenset({KIND_POOL}),
    "as_completed": frozenset({KIND_POOL}),
}

#: Unseeded RNG constructors: tainted only when called with no
#: arguments (an explicit seed makes the stream deterministic).
UNSEEDED_RNG_CONSTRUCTORS: frozenset[str] = frozenset(
    {
        "np.random.default_rng",
        "numpy.random.default_rng",
        "random.Random",
    }
)

#: Modules whose *internal* source reads are sanctioned and therefore
#: produce no taint: the clock implementations themselves (wall-clock
#: reads are their whole job; callers get determinism by injecting a
#: ManualClock), and the deadline sites already allowlisted for the
#: shallow CLOCK-INJECT rule (wall-clock *policies*, not measurements).
SOURCE_EXEMPT_MODULES: frozenset[str] = frozenset(
    {
        "repro.obs.clock",
        "repro.runtime.parallel",
        "repro.solver.branch_and_bound",
        "repro.solver.parallel_bb",
    }
)

#: Calls that *cut* taint kinds from their result.  ``sorted`` is the
#: canonical ORDER sanitizer (a sorted list of set elements no longer
#: depends on iteration order); the aggregations are order-insensitive
#: reductions; the seed-discipline helpers return streams that are a
#: pure function of the explicit seed, cutting RNG.
SANITIZERS: dict[str, frozenset[str]] = {
    "sorted": frozenset({KIND_ORDER}),
    "min": frozenset({KIND_ORDER}),
    "max": frozenset({KIND_ORDER}),
    "sum": frozenset({KIND_ORDER}),
    "len": frozenset({KIND_ORDER, KIND_CLOCK, KIND_RNG, KIND_ENV, KIND_ADDR, KIND_POOL}),
    "any": frozenset({KIND_ORDER}),
    "all": frozenset({KIND_ORDER}),
    "frozenset": frozenset({KIND_ORDER}),
    "set": frozenset({KIND_ORDER}),
    "repro.runtime.parallel.spawn_seeds": frozenset({KIND_RNG}),
    "repro.runtime.parallel.spawn_generators": frozenset({KIND_RNG}),
}

#: Result-record classes whose constructor arguments are sinks: these
#: are the records the differential suites compare bit-for-bit (modulo
#: the exempt fields below), so nondeterminism reaching a field breaks
#: the reproducibility contract.  Values are the *defining modules* so
#: the symbol layer can resolve call sites through import aliases.
SINK_RECORD_CLASSES: dict[str, str] = {
    "OptimizationResult": "repro.optimize.deployment",
    "LoadReport": "repro.service.loadgen",
    "MapReport": "repro.runtime.resilience",
}

#: Fields of sink records that are *expected* to carry wall-clock time:
#: solve/wall timings are reported for humans and excluded from every
#: bit-identity comparison.  A CLOCK flow into these is not a finding;
#: any other kind (ORDER, RNG, ...) still is.
TAINT_EXEMPT_FIELDS: dict[str, frozenset[str]] = {
    "OptimizationResult": frozenset({"solve_seconds"}),
    "LoadReport": frozenset(
        {"wall_seconds", "jobs_per_minute", "solves_per_minute",
         "p50_seconds", "p99_seconds"}
    ),
    "MapReport": frozenset(),
}

#: Resolved callee qualnames whose arguments are sinks (any argument:
#: a tainted value anywhere in an exported payload or digest preimage
#: makes the artifact nondeterministic).
SINK_CALL_NAMES: dict[str, str] = {
    "repro.export.jsonsafe.dumps": "jsonsafe export",
    "repro.export.jsonsafe.dump": "jsonsafe export",
    "repro.export.jsonsafe.sanitize": "jsonsafe export",
    "hashlib.blake2b": "digest input",
}

#: Constructors whose instances' ``.update(x)`` method is a digest sink.
BLAKE2B_CONSTRUCTORS: frozenset[str] = frozenset({"hashlib.blake2b", "blake2b"})

#: method name -> (owning classes, human label): method-call sinks on
#: the service caches.  The *keys* passed in become lookup identity; a
#: nondeterministic key silently splits cache entries across runs.
METHOD_SINKS: dict[str, tuple[frozenset[str], str]] = {
    "checkout": (frozenset({"SessionCache"}), "session-cache key"),
    "put": (frozenset({"ResultCache"}), "result-cache key"),
}

#: Order-insensitive contexts for set-typed values: calls in this set
#: consume a set without exposing iteration order.
ORDER_NEUTRAL_CALLS: frozenset[str] = frozenset(
    {"len", "sum", "min", "max", "any", "all", "sorted", "frozenset", "set", "bool"}
)

#: dispatcher dotted name -> index of the task-callable argument.
#: FORK-CAPTURE resolves that argument to program functions and treats
#: them (and everything they reach) as worker-side code.
DISPATCHERS: dict[str, int] = {
    "parallel_map": 0,
    "repro.runtime.parallel.parallel_map": 0,
    "submit": 0,  # executor().submit(fn, ...)
}

#: Module-global constructors that do not survive a fork/spawn into a
#: worker: locks and pools become dead weight or deadlocks, executors
#: must never be re-entered from a child.
FORK_UNSAFE_CONSTRUCTORS: frozenset[str] = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "PersistentPool",
        "repro.runtime.pool.PersistentPool",
        "ProcessPoolExecutor",
        "concurrent.futures.ProcessPoolExecutor",
        "ThreadPoolExecutor",
        "concurrent.futures.ThreadPoolExecutor",
    }
)

#: Calls forbidden inside worker-task code: constructing a nested pool
#: (each task would fork its own process tree) or re-routing the
#: ambient pool from within a worker.
WORKER_FORBIDDEN_CALLS: dict[str, str] = {
    "PersistentPool": "constructs a nested PersistentPool",
    "repro.runtime.pool.PersistentPool": "constructs a nested PersistentPool",
    "ProcessPoolExecutor": "constructs a nested process pool",
    "use_pool": "re-routes the ambient pool",
    "repro.runtime.pool.use_pool": "re-routes the ambient pool",
}

#: Hard ceiling on UNRESOLVED call edges over ``src/repro``.  The
#: analysis is honest about its soundness gaps — every call it cannot
#: resolve to a program function, prove external, or recognize as a
#: stdlib container method is counted here and reported.  The budget
#: turns creeping dynamism into a CI failure: raising it is a reviewed
#: contract change, like widening an allowlist.  The tree sits at ~650
#: today (dominated by dynamic call-of-call sites and duck-typed
#: callable attributes); the headroom to 700 absorbs normal growth
#: without letting a new dynamic layer land unnoticed.
UNRESOLVED_CALL_BUDGET = 700

#: Attribute-method names assumed to be stdlib/ndarray plumbing when the
#: receiver's type is unknown: calling one of these does not count
#: against the UNRESOLVED budget.  Everything here is a method of str /
#: list / dict / set / bytes / ndarray / Path or similarly ubiquitous.
KNOWN_SAFE_METHODS: frozenset[str] = frozenset(
    {
        # str
        "join", "split", "rsplit", "strip", "lstrip", "rstrip", "upper",
        "lower", "replace", "startswith", "endswith", "format", "encode",
        "decode", "title", "ljust", "rjust", "zfill", "casefold", "splitlines",
        "format_map", "removeprefix", "removesuffix", "hexdigest", "hex",
        # list / tuple
        "append", "extend", "insert", "pop", "remove", "clear", "index",
        "count", "reverse", "copy",
        # dict
        "get", "items", "keys", "values", "setdefault", "update",
        # set
        "add", "discard", "union", "intersection", "difference",
        "issubset", "issuperset", "symmetric_difference",
        # numpy-ish
        "astype", "reshape", "ravel", "flatten", "tolist", "item", "nonzero",
        "argsort", "argmin", "argmax", "cumsum", "dot", "transpose", "squeeze",
        "view", "tobytes", "byteswap", "newbyteorder",
        "sum", "min", "max", "mean", "std", "all", "any", "round", "clip",
        "fill", "sort", "partition", "put", "itemset", "resize", "setfield",
        "setflags", "searchsorted", "repeat", "take", "choose", "compress",
        # io / path
        "read", "write", "readline", "readlines", "close", "flush", "seek",
        "open", "exists", "is_dir", "is_file", "mkdir", "rglob", "glob",
        "resolve", "relative_to", "with_suffix", "with_name", "read_text",
        "write_text", "read_bytes", "write_bytes", "iterdir", "unlink",
        "touch", "as_posix", "absolute", "expanduser", "samefile",
        # numpy.random.Generator draws — determinism is a property of
        # the stream's *seed*, which the RNG rules police; the draw
        # methods themselves are plumbing.
        "choice", "integers", "random", "normal", "standard_normal",
        "uniform", "shuffle", "permutation", "exponential", "poisson",
        "spawn",
        # scipy.sparse / OrderedDict / ast plumbing
        "tocsr", "tocsc", "toarray", "todense", "move_to_end",
        "visit", "generic_visit",
        # argparse builder surface
        "add_argument", "add_parser", "add_subparsers", "set_defaults",
        "parse_args", "parse_known_args", "add_mutually_exclusive_group",
        "print_help", "print_usage",
        # misc ubiquitous
        "isoformat", "total_seconds", "timestamp", "most_common",
        "popleft", "appendleft", "rotate", "heappush", "heappop",
        "groups", "group", "match", "search", "findall", "finditer", "sub",
        "fullmatch", "compile", "digest", "getvalue", "getbuffer",
        "qsize", "empty", "full", "put_nowait", "get_nowait", "task_done",
    }
)
