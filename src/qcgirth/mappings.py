"""Permutations and complete mappings of Z/N: predicates, enumeration, and
explicit constructions.

A complete mapping is a permutation p of Z/N with p(0) = 0 whose difference
sequence i -> p(i) - i mod N is itself a permutation.  Rows of a girth-6
shift matrix at lifting factor N = L are exactly such mappings, and a pair
of rows can coexist in a 4-row matrix only when each row is a complete
mapping of the other.

The census backtracks over p(1), p(2), ... when it keeps witnesses.  A
count alone does not walk the tree: the subtree below a prefix depends
only on the images and the differences the prefix has used, so the count
propagates the number of prefixes per such state, one position at a time.

The mate scan computes no differences: rows a and b are complete mappings
of each other exactly when b o a^-1 is a complete mapping, so against a
census that keeps every witness each pair is one set lookup.

Only a fan-out over workers starts processes, and it imports
multiprocessing when it does.  Each worker owns one pipe and shares no
lock with the parent, so closing the fan-out early, or a worker dying,
never leaves the parent waiting: it kills and joins its workers.
"""

from __future__ import annotations

import math
from functools import partial
from itertools import compress, repeat
from typing import Callable, Iterator, Optional, Sequence

DEFAULT_WITNESS_CAP = 10**6


class BudgetError(RuntimeError):
    """A budgeted run stopped early; partial holds the work done so far: a
    MappingCensus, the pairs found, or a SearchResult with min_n None."""

    def __init__(self, message: str, partial: object):
        super().__init__(message)
        self.partial = partial


_MISSING = object()  # the default of a field that has none


def _record(cls: type) -> type:
    """Make cls an immutable record with the methods @dataclass(frozen=True)
    would generate, shared by every record instead of generated per class.

    The fields are the annotated names of cls and its bases, bases first;
    a class attribute of the same name is the field's default.  __init__
    binds positional and keyword arguments to the fields, raising
    TypeError on a missing, unknown or repeated one, and then calls
    __post_init__ if the class has one.  Records are equal only to records
    of the same class with equal fields, hash and repr as the tuple of
    their fields, and raise AttributeError on assignment and deletion.
    """
    names: list[str] = []
    for klass in reversed(cls.__mro__):
        for name in vars(klass).get("__annotations__", ()):
            if name not in names:
                names.append(name)
    cls._record_fields = cls.__match_args__ = tuple(names)
    cls._record_defaults = {a: getattr(cls, a, _MISSING) for a in names}
    cls._record_post_init = getattr(cls, "__post_init__", None)
    cls.__init__ = _record_init
    cls.__eq__ = _record_eq
    cls.__hash__ = _record_hash
    cls.__repr__ = _record_repr
    cls.__setattr__ = _record_setattr
    cls.__delattr__ = _record_delattr
    return cls


def _record_values(self) -> tuple:
    return tuple(map(self.__dict__.__getitem__, self._record_fields))


def _record_init(self, *args, **kwargs) -> None:
    cls = type(self)
    names = cls._record_fields
    # the fields go straight into the instance dict, as object.__setattr__
    # would put them, past the __setattr__ that refuses assignment
    fields = self.__dict__
    if kwargs or len(args) != len(names):
        # every field, in order, with its default or _MISSING; then the
        # arguments over them
        fields.update(cls._record_defaults)
        if args:
            fields.update(zip(names, args))
        fields.update(kwargs)
        if (
            len(fields) > len(names)
            or len(args) > len(names)
            or (args and not kwargs.keys().isdisjoint(names[: len(args)]))
        ):
            why = _record_misfit(names, args, kwargs)
            raise TypeError(f"{cls.__qualname__}() {why}")
        for field in names:
            if fields[field] is _MISSING:
                why = f"missing required argument: {field!r}"
                raise TypeError(f"{cls.__qualname__}() {why}")
    else:
        fields.update(zip(names, args))
    if cls._record_post_init is not None:
        cls._record_post_init(self)


def _record_misfit(names: tuple, args: tuple, kwargs: dict) -> str:
    """Why args and kwargs do not bind to names: too many positional
    arguments, or an unknown or repeated keyword."""
    if len(args) > len(names):
        return f"takes {len(names)} positional arguments but {len(args)} were given"
    field = next(f for f in kwargs if f not in names or f in names[: len(args)])
    if field not in names:
        return f"got an unexpected keyword argument {field!r}"
    return f"got multiple values for argument {field!r}"


def _record_eq(self, other: object):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _record_values(self) == _record_values(other)


def _record_hash(self) -> int:
    return hash(_record_values(self))


def _record_repr(self) -> str:
    pairs = zip(self._record_fields, _record_values(self))
    return f"{type(self).__qualname__}({', '.join(f'{a}={v!r}' for a, v in pairs)})"


def _record_setattr(self, name: str, value: object) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


@_record
class Permutation:
    """A bijection on Z/N stored as the image sequence (p(0), ..., p(N-1))."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if n == 0:
            raise ValueError("permutation needs at least one point")
        object.__setattr__(self, "images", tuple(map(int, self.images)))
        if sorted(self.images) != list(range(n)):
            raise ValueError(f"images {self.images} are not a permutation of 0..{n - 1}")

    @property
    def modulus(self) -> int:
        return len(self.images)


@_record
class CompleteMapping(Permutation):
    """A permutation fixing 0 whose difference sequence is a permutation."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not is_complete_mapping(self):
            raise ValueError(f"{self.images} is not a complete mapping")


@_record
class MappingCensus:
    """Exact count of complete mappings of Z/N plus retained witnesses.

    samples holds the witnesses as image tuples (p(0), ..., p(N-1)), exactly
    as the census kernel built them, in ascending lexicographic order.
    """

    modulus: int
    count: int
    samples: tuple[tuple[int, ...], ...]
    nodes: int

    @property
    def truncated(self) -> bool:
        """True iff the witness cap cut retention short."""
        return self.count > len(self.samples)


def difference_sequence(p: Permutation) -> tuple[int, ...]:
    """The sequence (p(i) - i mod N) for i = 0..N-1."""
    n = p.modulus
    return tuple([(v - i) % n for i, v in enumerate(p.images)])


def is_complete_mapping(p: Permutation) -> bool:
    """True iff p fixes 0 and its difference sequence is a permutation of Z/N."""
    return p.images[0] == 0 and len(set(difference_sequence(p))) == p.modulus


def _map_branches(fn: Callable, branches: Sequence, workers: int) -> Iterator:
    """Yield fn(branch) for each branch in order: in this process when
    workers or the number of branches is 1, else from min(workers,
    len(branches)) worker processes.

    Each worker is started (forked, on Linux) with fn and branches, owns
    one pipe to this process and shares no lock with it.  A worker receives a branch index,
    sends back its result and gets the next index not yet handed out; the
    results are yielded in branch order.  An exception raised by fn in a
    worker is raised here at its branch's turn, and a worker that dies
    raises RuntimeError.  However the generator ends (exhausted, closed
    early, or raising), it kills and joins every worker it started, so
    closing it stops the branches still in flight instead of waiting for
    them, and no worker can leave it waiting.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    processes = min(workers, len(branches))
    if processes <= 1:
        yield from map(fn, branches)
        return
    from multiprocessing.connection import wait

    running = {}  # parent end of each worker's pipe -> its process
    try:
        for k in range(processes):
            process, conn = _start_worker(fn, branches)
            running[conn] = process
            conn.send(k)
        handed = processes
        done = {}  # branch index -> (raised, result or exception)
        for k in range(len(branches)):
            while k not in done:
                for conn in wait(list(running)):
                    try:
                        i, raised, value = conn.recv()
                        if handed < len(branches):
                            conn.send(handed)
                            handed += 1
                    except (EOFError, OSError):
                        process = running[conn]
                        process.join()
                        raise RuntimeError(
                            f"branch worker {process.pid} died "
                            f"with exit code {process.exitcode}"
                        ) from None
                    done[i] = raised, value
            raised, value = done.pop(k)
            if raised:
                raise value
            yield value
    finally:
        for process in running.values():
            process.kill()
        for conn, process in running.items():
            process.join()
            process.close()
            conn.close()


def _start_worker(fn: Callable, branches: Sequence):
    """Start one _branch_worker process; returns it and the parent end of
    its pipe.  The pipe is made here and the child end closed once the
    worker holds it, so the parent sees end of file when the worker dies."""
    import multiprocessing

    conn, child_conn = multiprocessing.Pipe()
    process = multiprocessing.Process(
        target=_branch_worker, args=(child_conn, fn, branches), daemon=True
    )
    process.start()
    child_conn.close()
    return process, conn


def _branch_worker(conn, fn: Callable, branches: Sequence) -> None:
    """Worker loop of _map_branches: for each branch index received, send
    (index, False, fn(branch)), or (index, True, exception) if fn raised;
    return when the parent's end closes."""
    while True:
        try:
            k = conn.recv()
        except EOFError:
            return
        try:
            reply = (k, False, fn(branches[k]))
        except Exception as exc:
            # the traceback does not pickle; its text goes along as a note
            import traceback

            text = f"raised in the worker of branch {k}:\n{traceback.format_exc()}"
            exc.__notes__ = [*getattr(exc, "__notes__", ()), text]
            reply = (k, True, exc)
        try:
            conn.send(reply)
        except Exception as exc:  # the result or the exception does not pickle
            conn.send((k, True, RuntimeError(f"branch {k}: {exc!r}")))


def _enumerate_branch(
    n: int, witness_cap: int, max_nodes: Optional[int], prefix: tuple[int, ...]
) -> tuple[int, list[tuple[int, ...]], int, bool]:
    """Backtracking census of the mappings whose images start with prefix.

    The prefix is (0,) at N = 1 and (0, v) with v in 2..N-1 otherwise;
    placing it is one node, which counts against max_nodes like any other.
    Every later node is one image placement that passes both masks: the
    image is unused, and so is its difference v - pos mod N.  Position pos
    draws its images, ascending, from full & ~(used_images | forbid), where
    forbid is the used-difference set rotated up by pos (the images whose
    difference is taken), so every image drawn is a node.  The last
    position counts the mapping where it places it.  Returns (count,
    witnesses, nodes, budget_hit); witnesses come out in lexicographic
    order.
    """
    full = (1 << n) - 1
    last = n - 1
    count = 0
    nodes = 1
    witnesses: list[tuple[int, ...]] = []
    images = list(prefix) + [0] * (n - len(prefix))
    budget_hit = False

    if max_nodes is not None and nodes > max_nodes:
        return 0, [], nodes, True
    pos = len(prefix)
    if pos == n:  # N = 1: the prefix is the whole mapping
        return 1, [prefix] if witness_cap else [], nodes, False
    # a prefix repeats no image and no difference, so sums are unions;
    # image v is forbidden at pos when v - pos = p(i) - i for some i
    used_images = sum(1 << v for v in prefix)
    forbid = sum(1 << ((v - i + pos) % n) for i, v in enumerate(prefix))

    def rec(pos: int, used_images: int, forbid: int) -> bool:
        nonlocal count, nodes, budget_hit
        avail = full & ~(used_images | forbid)
        while avail:
            bit = avail & -avail
            avail ^= bit
            nodes += 1
            if max_nodes is not None and nodes > max_nodes:
                budget_hit = True
                return False
            images[pos] = bit.bit_length() - 1
            if pos == last:
                count += 1
                if len(witnesses) < witness_cap:
                    witnesses.append(tuple(images))
                continue
            # bit's difference is used now; at pos + 1 each used difference
            # forbids the image one higher
            f = forbid | bit
            if not rec(pos + 1, used_images | bit, ((f << 1) & full) | (f >> last)):
                return False
        return True

    rec(pos, used_images, forbid)
    # rec reaches itself through its closure cell; clearing the cell frees
    # the closure, and the witness list it holds, without the cycle collector
    del rec
    return count, witnesses, nodes, budget_hit


def _count_by_states(
    n: int, prefixes: Sequence[tuple[int, ...]], max_nodes: Optional[int]
) -> Optional[tuple[int, int]]:
    """(count, nodes) of the census whose searched branches are prefixes,
    by propagating multiplicities layer by layer instead of backtracking;
    None as soon as nodes passes max_nodes.

    The nodes of a branch at depth k are its valid prefixes of length k:
    no image and no difference repeats.  Which images may extend a valid
    prefix, and the state of each extension, depend only on the prefix's
    state: its used images and its used differences rotated up to the next
    position (the forbid mask of _enumerate_branch), packed as
    used << n | forbid.  A layer maps each state to its multiplicity, the
    weighted number of valid prefixes that reach it.  A child state then
    receives the sum of its parents' multiplicities over the images that
    lead to it, which is again that number.  So the multiplicities of a
    layer sum to the weighted nodes at its depth.  The last layer, with
    position N - 1 placed, is the single state with every image and
    difference used, and its multiplicity is the count.  A searched branch
    weighs 2, for itself and its mirror (enumerate_complete_mappings proves
    the two equal depth by depth), except the self-mirrored 2v = 1 mod N;
    the prefix (0,) of N = 1 weighs 1.  nodes is checked once per parent,
    so a layer never holds more than max_nodes + N states.
    """
    full = (1 << n) - 1
    last = n - 1
    pos = len(prefixes[0]) if prefixes else n
    layer: dict[int, int] = {}
    for prefix in prefixes:
        used = sum(1 << x for x in prefix)
        forbid = sum(1 << ((x - i + pos) % n) for i, x in enumerate(prefix))
        layer[used << n | forbid] = 1 if (2 * prefix[-1] - 1) % n == 0 else 2
    nodes = sum(layer.values())
    budget = math.inf if max_nodes is None else max_nodes
    if nodes > budget:
        return None
    for _ in range(pos, n):
        children: dict[int, int] = {}
        get = children.get
        for key, mult in layer.items():
            forbid = key & full
            high = key ^ forbid
            avail = full & ~(key | key >> n)
            nodes += mult * avail.bit_count()
            while avail:
                bit = avail & -avail
                avail ^= bit
                # as in _enumerate_branch: bit's difference is used now
                f = forbid | bit
                child = high | bit << n | ((f << 1) & full) | (f >> last)
                children[child] = get(child, 0) + mult
            if nodes > budget:
                return None
        layer = children
    return sum(layer.values()), nodes


def enumerate_complete_mappings(
    n: int,
    limit: Optional[int] = None,
    max_nodes: Optional[int] = None,
    workers: int = 1,
) -> MappingCensus:
    """Exact census of complete mappings of Z/N.

    limit caps retained witnesses (default 10^6); the count stays exact
    either way.  max_nodes bounds the nodes of the whole census and raises
    BudgetError carrying the partial census when exceeded.  The census runs
    as one branch per pinned prefix (p(0), p(1)) and nodes counts the nodes
    of every branch, but only the branches with p(1) = v <= (1 - v) mod N
    are searched; workers fans those out over processes.  The census,
    partial or not, is identical for every worker count.

    limit = 0 keeps no witness, so only count and nodes are needed:
    _count_by_states computes both in this process, without backtracking,
    and starts no process whatever workers is.  If nodes passes max_nodes
    there, the backtracking branch loop runs instead, so the BudgetError
    carries the partial census of the node where the budget ran out.

    Each other branch is the mirror of a searched one under p -> q with
    q(i) = i - p(i) mod N (Evans, Orthomorphism Graphs of Groups, LNM 1535,
    1992).  The images of q are the differences of p negated, and the
    differences of q, q(i) - i = -p(i), are the images of p negated.  So
    a prefix of p repeats no image and no difference exactly when the
    prefix of q of the same length repeats none: the map is a bijection
    between the nodes of branch (0, v) and those of branch (0, 1 - v), and
    between their complete mappings.  The mirrored branch thus has the
    count and the nodes of its source, and its witnesses are the source's
    mapped by q and sorted.  Its source precedes it in branch order, so it
    was complete when the loop reaches the mirror, and the mirror needs no
    witness the source did not keep: a source cut short by the witness cap
    has already filled the cap.
    """
    if n < 1:
        raise ValueError(f"modulus must be >= 1, got {n}")
    if limit is not None and limit < 0:
        raise ValueError(f"witness limit must be >= 0, got {limit}")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError(f"node budget must be >= 0, got {max_nodes}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    witness_cap = DEFAULT_WITNESS_CAP if limit is None else limit
    count, nodes, budget_hit = 0, 0, False
    witnesses: list[tuple[int, ...]] = []
    # p(0) = 0, and p(1) = 1 would repeat difference 0; N = 1 has no p(1)
    prefixes = [(0,)] if n == 1 else [(0, v) for v in range(2, n)]
    # every searched branch precedes every mirrored one
    searched = [pre for pre in prefixes if pre[-1] <= (1 - pre[-1]) % n]
    if witness_cap == 0:
        counted = _count_by_states(n, searched, max_nodes)
        if counted is not None:
            return MappingCensus(n, counted[0], (), counted[1])
        # nodes passed the budget: backtrack to the node where it ran out
    branch = partial(_enumerate_branch, n, witness_cap, max_nodes)
    results = _map_branches(branch, searched, workers)
    sources = {}  # searched parts by p(1)
    for prefix in prefixes:
        v, source = prefix[-1], (1 - prefix[-1]) % n
        if v <= source:
            part = sources[v] = next(results)
        else:
            s_count, s_witnesses, s_nodes, _ = sources[source]
            mirrored = []
            if len(witnesses) < witness_cap:
                mirrored = sorted(
                    tuple([(i - x) % n for i, x in enumerate(w)]) for w in s_witnesses
                )
            part = s_count, mirrored, s_nodes, False
        if max_nodes is not None and nodes and nodes + part[2] > max_nodes:
            # a serial census stops inside this branch: redo it in-process
            # with what is left of the budget, so it hits the budget there
            # (with nothing spent yet, part already stopped at that node)
            part = _enumerate_branch(n, witness_cap, max_nodes - nodes, prefix)
        b_count, b_witnesses, b_nodes, budget_hit = part
        count += b_count
        nodes += b_nodes
        witnesses.extend(b_witnesses)
        if budget_hit:
            break
    results.close()  # stops the branches a pool still runs past the budget
    census = MappingCensus(n, count, tuple(witnesses[:witness_cap]), nodes)
    if budget_hit:
        raise BudgetError(
            f"node budget exhausted after {nodes} nodes "
            f"(partial count {count} for modulus {n})",
            census,
        )
    return census


def product_mapping(h: int, n: int) -> CompleteMapping:
    """The mapping i -> h*i mod N, complete whenever h and h-1 are units.

    Requires odd N >= 3 and 2 <= h <= N-1 with gcd(h, N) = gcd(h-1, N) = 1.
    h = 2 gives the classic array-code rows; h = N-1 reverses 1..N-1.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError(f"modulus must be odd and >= 3, got {n}")
    if not 2 <= h <= n - 1:
        raise ValueError(f"h must be in [2, {n - 1}], got {h}")
    g = math.gcd(h, n)
    if g != 1:
        raise ValueError(f"gcd(h, N) = gcd({h}, {n}) = {g} != 1")
    g = math.gcd(h - 1, n)
    if g != 1:
        raise ValueError(f"gcd(h-1, N) = gcd({h - 1}, {n}) = {g} != 1")
    return CompleteMapping(tuple((h * i) % n for i in range(n)))


def valid_product_multipliers(n: int) -> list[int]:
    """All h in [2, N-1] satisfying the product-mapping premises."""
    return [h for h in range(2, n) if math.gcd(h * (h - 1), n) == 1]


def almost_complete_mapping(n: int) -> Permutation:
    """Lexicographically first permutation fixing 0 with N-1 distinct differences.

    Exists for every even N; exactly one difference value repeats, which is
    the best possible for even order and pins the lifted 4-cycle count at N.
    """
    if n < 2 or n % 2:
        raise ValueError(f"modulus must be even and >= 2, got {n}")
    full = (1 << n) - 1
    images = [0] * n

    def rec(pos: int, used_images: int, used_diffs: int, reused: bool) -> bool:
        if pos == n:
            return reused  # exactly N-1 distinct differences, not N
        avail = full & ~used_images
        while avail:
            bit = avail & -avail
            avail ^= bit
            v = bit.bit_length() - 1
            dbit = 1 << ((v - pos) % n)
            repeat = bool(used_diffs & dbit)
            if repeat and reused:
                continue
            images[pos] = v
            if rec(pos + 1, used_images | bit, used_diffs | dbit, reused or repeat):
                return True
        return False

    found = rec(1, 1, 1, False)
    del rec  # rec reaches itself through its closure cell
    if not found:
        raise RuntimeError(f"no almost-complete mapping found for N={n}")
    return Permutation(tuple(images))


def is_complete_mapping_of(row_a: Sequence[int], row_b: Sequence[int]) -> bool:
    """True iff the columnwise differences row_b - row_a mod N are all distinct.

    Both rows must be permutations of Z/N of the same length; this is the
    condition for two shift-matrix rows to create no 4-cycle between them
    at lifting factor N.  It is symmetric: row_a - row_b is the negation of
    row_b - row_a, and negation permutes Z/N.
    """
    if len(row_a) != len(row_b):
        raise ValueError(f"length mismatch: {len(row_a)} vs {len(row_b)}")
    n = len(row_a)
    if sorted(row_a) != list(range(n)) or sorted(row_b) != list(range(n)):
        raise ValueError("rows must be permutations of 0..N-1")
    return len({(b - a) % n for a, b in zip(row_a, row_b)}) == n


def compatible_pairs(
    census: MappingCensus, max_checks: Optional[int] = None
) -> list[tuple[int, int]]:
    """Unordered index pairs of census witnesses that are complete mappings
    of each other.

    Requires the census to retain every witness.  Pairs are checked in
    lexicographic order; after max_checks checks, raises BudgetError
    carrying the pairs found so far.

    Witnesses a and b are mates iff c = b o a^-1 is a complete mapping.  Put
    y = a(x): then b(x) - a(x) = c(y) - y, so the differences of the pair
    are all distinct iff those of c are, and c(0) = b(a^-1(0)) = b(0) = 0.
    An untruncated census holds every complete mapping of Z/N, so a pair
    check is one lookup of c among the witnesses.  With a^-1 as bytes and b
    as a 256-byte translation table, c is a^-1 translated by b's table, so
    the checks of one row run inside bytes.translate and a set probe.  The
    bytes need N < 256, which holds for every census under the default
    witness cap (Z/13 is the largest).
    """
    if census.truncated:
        raise ValueError(
            f"census kept {len(census.samples)} of {census.count} witnesses; "
            "the pair scan needs all of them"
        )
    if max_checks is not None and max_checks < 0:
        raise ValueError(f"check budget must be >= 0, got {max_checks}")
    n, k = census.modulus, census.count
    total = math.comb(k, 2)
    rows = [bytes(row) for row in census.samples]
    is_witness = set(rows).__contains__
    pad = bytes(256 - n)
    tables = [row + pad for row in rows]
    left = total if max_checks is None else max_checks
    out: list[tuple[int, int]] = []
    for i, row in enumerate(rows):
        if left <= 0:
            break
        stop = min(k, i + 1 + left)
        left -= stop - i - 1
        # a^-1(y) is the position of y in row a
        inverse = bytes(map(row.index, range(n)))
        found = map(is_witness, map(inverse.translate, tables[i + 1 : stop]))
        out.extend(zip(repeat(i), compress(range(i + 1, stop), found)))
    if max_checks is not None and max_checks < total:
        raise BudgetError(
            f"check budget exhausted after {max_checks} pair checks "
            f"({len(out)} compatible pairs so far)",
            out,
        )
    return out
