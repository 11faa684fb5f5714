"""Synthetic comparison corpora from mixed-membership Mallows populations.

Each user m draws a weight vector theta_m over the K shared components.
Every comparison then draws an unordered item pair from the pair
distribution, a component from theta_m, and reports the pair in the order
the sampled component ranks it.  Per-user RNG streams are derived from
(seed, user id), so generation is reproducible and independent of any
worker schedule.
"""

from __future__ import annotations

import errno
import itertools
import json
import os
import stat
import tempfile
from dataclasses import dataclass

import numpy as np

from . import pairs
from .mallows import MallowsComponent, build_ranking_matrix, shared_Q
from .permutations import Permutation


def _probability_vector(name: str, values, size: int | None = None) -> np.ndarray:
    """``values`` as a float vector, checked to be nonempty (of length
    ``size``, if given), finite, nonnegative and summing to one."""
    p = np.asarray(values, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"{name} must be a nonempty vector")
    if size is not None and p.size != size:
        raise ValueError(f"{name} must have length {size}")
    if not np.all(np.isfinite(p)) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must be a finite probability vector: "
                         "nonnegative and summing to one")
    return p


@dataclass(frozen=True)
class DirichletPrior:
    """Symmetric Dirichlet over the K-simplex with concentration alpha0."""

    alpha0: float

    def __post_init__(self):
        if not (np.isfinite(self.alpha0) and self.alpha0 > 0):
            raise ValueError(f"alpha0 must be positive and finite, got {self.alpha0}")

    def sample(self, rng: np.random.Generator, K: int) -> np.ndarray:
        # Gamma draws normalized to the simplex; redraw the (measure-zero,
        # but floating-point-possible) all-underflow case.
        while True:
            g = rng.gamma(self.alpha0, 1.0, K)
            s = g.sum()
            if s > 0:
                return g / s

    def mean(self, K: int) -> np.ndarray:
        return np.full(K, 1.0 / K)

    def correlation(self, K: int) -> np.ndarray:
        a0 = self.alpha0
        total = K * a0
        off = a0 * a0
        diag = a0 * (a0 + 1.0)
        R = np.full((K, K), off)
        np.fill_diagonal(R, diag)
        return R / (total * (total + 1.0))


@dataclass(frozen=True)
class VertexPrior:
    """Point masses on the simplex vertices: each user follows one component."""

    probs: tuple[float, ...]

    def __post_init__(self):
        _probability_vector("probs", self.probs)

    def sample(self, rng: np.random.Generator, K: int) -> np.ndarray:
        z = int(np.searchsorted(np.cumsum(self.mean(K)), rng.random(), side="right"))
        theta = np.zeros(K)
        theta[min(z, K - 1)] = 1.0
        return theta

    def mean(self, K: int) -> np.ndarray:
        if len(self.probs) != K:
            raise ValueError("class probabilities do not match K")
        return np.asarray(self.probs, dtype=float)

    def correlation(self, K: int) -> np.ndarray:
        return np.diag(self.mean(K))


@dataclass(frozen=True)
class FixedWeights:
    """Every user shares one explicit weight vector."""

    weights: tuple[float, ...]

    def __post_init__(self):
        _probability_vector("weights", self.weights)

    def sample(self, rng: np.random.Generator, K: int) -> np.ndarray:
        return self.mean(K)

    def mean(self, K: int) -> np.ndarray:
        if len(self.weights) != K:
            raise ValueError("weights do not match K")
        return np.asarray(self.weights, dtype=float)

    def correlation(self, K: int) -> np.ndarray:
        w = self.mean(K)
        return np.outer(w, w)


@dataclass
class MixedMembershipModel:
    """K Mallows components, a weight prior, and a pair distribution.

    ``pair_probs`` holds one probability per unordered pair in the order of
    :func:`pairs.unordered_arrays`; None means uniform.
    """

    components: list[MallowsComponent]
    prior: object
    pair_probs: np.ndarray | None = None

    def __post_init__(self):
        Q = shared_Q(self.components)
        if Q < 2:
            raise ValueError("need at least two items")
        if self.prior is not None:
            self.prior.mean(self.K)  # a prior of fixed length must have K entries
        if self.pair_probs is not None:
            self.pair_probs = _probability_vector("pair_probs", self.pair_probs,
                                                 pairs.num_unordered(Q))

    @property
    def Q(self) -> int:
        return self.components[0].Q

    @property
    def K(self) -> int:
        return len(self.components)

    def pair_distribution(self) -> np.ndarray:
        """Probability of each unordered pair, uniform when unspecified."""
        n = pairs.num_unordered(self.Q)
        if self.pair_probs is None:
            return np.full(n, 1.0 / n)
        return self.pair_probs

    def ranking_matrix(self) -> np.ndarray:
        """beta: the (W, K) order probabilities of the components."""
        return build_ranking_matrix(self.components)

    def observation_matrix(self) -> np.ndarray:
        """B: probability of observing each ordered pair given a component.

        Row (i, j) is the unordered-pair probability times the chance the
        component orders i above j, so every column sums to one.
        """
        mu_row = self.pair_distribution()[pairs.unordered_index(self.Q)]
        return mu_row[:, None] * self.ranking_matrix()


class RecordError(ValueError):
    """A corpus record breaks a rule; ``record`` is its index."""

    def __init__(self, record: int, rule: str):
        super().__init__(f"record {record}: {rule}")
        self.record = record
        self.rule = rule


# The corpus limits.  Under them every id fits the stored record form,
# int32 users and int16 items, 8 bytes a record, and every key that joins a
# pair row and a user, below M * Q(Q-1) < 2**61, fits int64.
MAX_USERS = 2**31 - 1  # M
MAX_ITEMS = 2**15 - 1  # Q
USER_LIMIT = f"M must be at most {MAX_USERS} and user ids below it"
ITEM_LIMIT = f"Q and item ids must be at most {MAX_ITEMS}"
# of the user, winner and loser columns: the stored type, the largest id
# the limits allow, and the rule an id past it breaks
_DTYPES = (np.int32, np.int16, np.int16)
_LARGEST = (MAX_USERS - 1, MAX_ITEMS, MAX_ITEMS)
_LIMITS = (USER_LIMIT, ITEM_LIMIT, ITEM_LIMIT)


def limit_rule(Q: int, M: int) -> str | None:
    """The corpus limit that Q items or M users break, or None."""
    if M > MAX_USERS:
        return USER_LIMIT
    if Q > MAX_ITEMS:
        return ITEM_LIMIT
    return None


@dataclass
class ComparisonCorpus:
    """Flat record arrays of one corpus: who compared what and who won.

    The records are stored in one fixed form of 8 bytes: ``user`` as int32
    and ``winner`` and ``loser`` as int16.  That is lossless under the
    corpus limits, M at most ``MAX_USERS`` = 2**31 - 1 and Q at most
    ``MAX_ITEMS`` = 32767; a Q or M past them raises ValueError with the
    rule ``USER_LIMIT`` or ``ITEM_LIMIT``.  Every record must hold integer
    ids, items in 1..Q, a winner other than its loser and a user in 0..M-1,
    checked on the arrays as given, before they are narrowed.  A record
    that breaks a rule raises ``RecordError``, which names the first such
    record and, of the rules it breaks, the one first in alphabetical
    order.  Consumers that do arithmetic on ids widen them to int64 first.
    """

    Q: int
    M: int
    user: np.ndarray
    winner: np.ndarray
    loser: np.ndarray
    N: int | None = None  # comparisons per user, if constant

    def __post_init__(self):
        columns = [np.asarray(ids) for ids in (self.user, self.winner, self.loser)]
        n = columns[0].size
        if any(ids.size != n for ids in columns):
            raise ValueError("record arrays must have equal length")
        rule = limit_rule(self.Q, self.M)
        if rule:
            raise ValueError(rule)
        # a non-integer array breaks this rule at every record, so first at record 0
        if n and not all(ids.dtype.kind in "iu" and np.can_cast(ids.dtype, np.int64)
                         for ids in columns):
            raise RecordError(0, "user, winner and loser must be integer arrays")
        user, winner, loser = columns
        Q, M = self.Q, self.M
        # min and max first: a valid corpus then allocates only the winner == loser mask
        if n and (min(winner.min(), loser.min()) < 1 or max(winner.max(), loser.max()) > Q
                  or user.min() < 0 or user.max() >= M or np.any(winner == loser)):
            items = (winner < 1) | (winner > Q) | (loser < 1) | (loser > Q)
            rules = ((items, f"item ids must lie in 1..{Q}"),
                     (winner == loser, "winner and loser must differ"),
                     ((user < 0) | (user >= M), f"user ids must lie in 0..{M - 1}"))
            raise RecordError(*min((int(np.argmax(bad)), rule) for bad, rule in rules if bad.any()))
        # every id now lies within the limits, so narrowing loses nothing
        self.user, self.winner, self.loser = (ids.astype(dtype, copy=False)
                                              for ids, dtype in zip(columns, _DTYPES))

    @property
    def n_records(self) -> int:
        return self.user.size

    def pair_rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Ordered-pair row index of every record, or of records start:stop."""
        return pairs.pair_row(self.winner[start:stop], self.loser[start:stop], self.Q)


# Stream id for drawing the model itself (references etc.); user streams use
# ids 0..M-1, so any id at least M stays collision-free.
MODEL_STREAM = 2**63 - 1


def _user_rng(seed: int, user: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=(seed, user)))


def generate(
    model: MixedMembershipModel,
    M: int,
    N: int,
    seed: int,
    threads: int = 1,
) -> tuple[ComparisonCorpus, np.ndarray]:
    """Sample a corpus of M users with N comparisons each.

    Returns the corpus and the (M, K) matrix of sampled user weights.
    Each comparison's order is drawn from the closed-form pair marginal of
    its component, the law of that pair's order in a full ranking drawn by
    ``rim_sample``.  The records are those of ``_user_blocks``, gathered
    into one corpus.  ``threads`` has no effect; it is kept so that callers
    passing it keep working.
    """
    thetas = _weights_array(model, M, N)
    columns = user, winner, loser = [np.empty(M * N, dtype) for dtype in _DTYPES]
    at = 0
    for block in _user_blocks(model, M, N, seed, thetas):
        for column, ids in zip(columns, (block.user, block.winner, block.loser)):
            column[at:at + ids.size] = ids
        at += block.n_records
    return ComparisonCorpus(model.Q, M, user, winner, loser, N=N), thetas


def generate_corpus_file(path: str, model: MixedMembershipModel, M: int, N: int, seed: int,
                         meta_extra: dict | None = None) -> np.ndarray:
    """``generate`` followed by ``write_corpus`` to ``path``, with the same
    bytes, holding no array of the corpus's size: each block of users is
    drawn, checked, formatted and written before the next one is drawn.
    Returns the (M, K) matrix of sampled user weights."""
    thetas = _weights_array(model, M, N)
    blocks = ((block.user, block.winner, block.loser)
              for block in _user_blocks(model, M, N, seed, thetas))
    _write_records(path, {"Q": model.Q, "M": M, "N": N}, meta_extra, blocks)
    return thetas


def _weights_array(model: MixedMembershipModel, M: int, N: int) -> np.ndarray:
    """The (M, K) array that ``_user_blocks`` fills, once the arguments of
    a draw of M users with N comparisons each are checked."""
    if M < 1 or N < 1:
        raise ValueError("M and N must be positive")
    rule = limit_rule(model.Q, M)
    if rule:
        raise ValueError(rule)
    if model.prior is None:
        raise ValueError("model carries no weight prior; cannot generate")
    return np.empty((M, model.K))


def _user_blocks(model: MixedMembershipModel, M: int, N: int, seed: int, thetas: np.ndarray):
    """The records of M users with N comparisons each, as one checked
    ``ComparisonCorpus`` per block of whole users, at most ``_WRITE_CHUNK``
    records or one user; each user's weights go into its row of ``thetas``.

    Each user's weights and uniforms come from the user's own stream, and
    the rest runs once per block, so the records and weights do not depend
    on the block size.
    """
    K, Q = model.K, model.Q
    beta = model.ranking_matrix()
    cum_mu = np.cumsum(model.pair_distribution())
    uI, uJ = pairs.unordered_arrays(Q)
    per_block = max(1, _WRITE_CHUNK // N)
    for start in range(0, M, per_block):
        stop = min(start + per_block, M)
        r = np.empty((stop - start, 3, N))
        for u in range(start, stop):
            rng = _user_rng(seed, u)
            thetas[u] = model.prior.sample(rng, K)
            rng.random(out=r[u - start])  # the pair, component and order draws
        upair = np.minimum(np.searchsorted(cum_mu, r[:, 0], side="right"), cum_mu.size - 1)
        # per user, the number of cumulative weights at most the draw:
        # searchsorted(side="right") over each user's cumsum
        cum_theta = np.cumsum(thetas[start:stop], axis=1)
        z = np.minimum((cum_theta[:, None, :] <= r[:, 1, :, None]).sum(-1), K - 1)
        i = uI[upair]
        j = uJ[upair]
        # The order of one fresh ranking restricted to {i, j} is a Bernoulli
        # draw with the closed-form pair marginal, so sample that directly.
        first = r[:, 2] < beta[pairs.pair_row(i, j, Q), z]
        user = np.repeat(np.arange(start, stop, dtype=np.int64), N)
        yield ComparisonCorpus(Q, M, user, np.where(first, i, j).ravel(),
                               np.where(first, j, i).ravel(), N=N)


# ---------------------------------------------------------------------------
# file formats


def atomic_write(path: str, blocks) -> None:
    """Write the bytes-like blocks to a temporary file beside ``path``, then
    rename it to ``path``, so readers never observe a partial file.  If a
    block fails, the temporary file goes and ``path`` is left as it was.
    The file gets the permission bits ``open(path, "w")`` would leave: an
    existing file's own, else 0o666 less the umask.  A ``path`` that exists
    and is not a regular file (a folder, a FIFO, a device) is refused, with
    no temporary file made, since the rename would replace it.

    An OSError that names the temporary file, or no file, is raised again
    naming ``path``: the temporary file is gone by then, and its name means
    nothing to the caller."""
    path = os.fspath(path)
    try:
        st = os.stat(path)
    except FileNotFoundError:
        umask = os.umask(0)  # read by setting it, so set it back at once
        os.umask(umask)
        mode = 0o666 & ~umask
    else:
        if stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not stat.S_ISREG(st.st_mode):
            raise OSError(errno.EINVAL, "not a regular file", path)
        mode = st.st_mode & 0o777
    d = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix=os.path.basename(path))
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fd, mode)
            fh.writelines(blocks)  # drops each block before drawing the next
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        # before mkstemp returns, the file it names is the temporary one
        if (isinstance(exc, OSError) and exc.errno is not None
                and (tmp is None or exc.filename in (tmp, None))):
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def atomic_write_text(path: str, text: str) -> None:
    """``atomic_write`` of one text, encoded as UTF-8."""
    atomic_write(path, [text.encode()])


def write_json(path: str | None, obj: dict) -> str:
    """``obj`` as indented JSON, written atomically with a final newline to
    ``path`` when one is given."""
    text = json.dumps(obj, indent=1)
    if path:
        atomic_write_text(path, text + "\n")
    return text


# One corpus record line.  write_corpus formats every record with it, and
# read_corpus parses the lines of exactly this form in bulk.
_RECORD = '{"user": %d, "win": %d, "lose": %d}\n'
# Records per block.  generate draws users in blocks of at most this many
# records (or one user), generate_corpus_file writes each block before it
# draws the next, and write_corpus formats this many records at a time.
# Measured for the `generate` command at Q=20, M=3000, N=300 on a 2-core
# host: peak RSS 38.2, 40.3, 44.2 and 51.9 MB at 2**13 to 2**16 records,
# and at 2**13 the per-block work starts to cost time.
_WRITE_CHUNK = 1 << 14
_READ_BLOCK = 1 << 18  # bytes read per block by read_corpus
# _RECORD's text before, between and after its three ids
_TEMPLATE = tuple(part.encode() for part in _RECORD.split("%d"))
_POWERS = 10 ** np.arange(19, dtype=np.int64)  # of each digit position of an int64 id
_SMALLEST = np.concatenate(([0], _POWERS[1:]))  # the smallest id with a digit there
_PAD = 0xFF  # a byte no record line holds


def write_corpus(corpus: ComparisonCorpus, path: str, meta_extra: dict | None = None) -> None:
    """One JSON object per line; first line carries corpus metadata."""
    blocks = ([ids[start:start + _WRITE_CHUNK]
               for ids in (corpus.user, corpus.winner, corpus.loser)]
              for start in range(0, corpus.n_records, _WRITE_CHUNK))
    _write_records(path, {"Q": corpus.Q, "M": corpus.M, "N": corpus.N}, meta_extra, blocks)


def _write_records(path: str, meta: dict, meta_extra: dict | None, blocks) -> None:
    """``atomic_write`` the meta line of ``meta`` updated by ``meta_extra``,
    then the ``_RECORD`` lines of each block of (user, winner, loser) ids."""
    if meta_extra:
        meta.update(meta_extra)
    atomic_write(path, itertools.chain([(json.dumps({"meta": meta}) + "\n").encode()],
                                       (_record_bytes(*columns) for columns in blocks)))


def _record_bytes(*columns: np.ndarray) -> np.ndarray:
    """The ``_RECORD`` lines of the records whose nonnegative ids are
    ``columns``, as one uint8 array of their bytes.

    Each record gets a row of a byte grid: the template's bytes in fixed
    columns, and each id right-aligned in a field as wide as its column's
    widest id, with ``_PAD`` before its digits.  The grid's bytes that are
    not ``_PAD``, in row order, are the lines.
    """
    widths = [len(str(int(ids.max()))) for ids in columns]
    grid = np.full((columns[0].size, sum(map(len, _TEMPLATE)) + sum(widths)), _PAD, np.uint8)
    at = 0
    for part, ids, width in zip(_TEMPLATE, columns, widths):
        grid[:, at:at + len(part)] = np.frombuffer(part, np.uint8)
        at += len(part)
        digits = (ids[:, None] // _POWERS[width - 1::-1] % 10 + ord("0")).astype(np.uint8)
        grid[:, at:at + width] = np.where(ids[:, None] >= _SMALLEST[width - 1::-1], digits, _PAD)
        at += width
    grid[:, at:] = np.frombuffer(_TEMPLATE[-1], np.uint8)
    return grid[grid != _PAD]


class CorpusError(ValueError):
    """A corpus file breaks a format rule; the message names file and line."""


# The shortest record line, '{"user":0,"win":1,"lose":2}' with its newline,
# takes 28 bytes, so a file of S bytes holds at most S // 28 + 1 records.
_MIN_RECORD_BYTES = 28


def read_corpus(path: str) -> ComparisonCorpus:
    """Read a JSON Lines corpus, rejecting any record that breaks a rule.

    Every record must be a JSON object whose user, win and lose are JSON
    integers that fit in 64 bits, and lie within the corpus limits (user ids
    below ``MAX_USERS``, item ids at most ``MAX_ITEMS``); the records must
    then pass the rules of ``ComparisonCorpus``, with Q and M taken from the
    meta line or, without one, from the largest ids.  A meta line must be an
    object with integer Q and M within the limits (and N, if given, null or
    a positive integer); its M must not exceed the largest user id plus
    one, since users without records cannot be split, and every user in
    0..M-1 must have N records when N is an integer.  Errors read
    ``{path}:{line}: {rule}``, naming the meta line or the first record
    that breaks the rule.

    Lines in ``write_corpus``'s form are parsed in bulk, a block of lines
    at a time; every other line is decoded as UTF-8 and goes through the
    JSON decoder.  A line ends at a newline, a carriage return and newline,
    or a lone carriage return, as in Python's text mode.  The records are
    held in the corpus's own 8-byte form from the start: each block's ids
    are checked against the limits before they are stored.
    """
    meta = None
    meta_line = 0
    skipped: list[int] = []  # file lines that hold no record: blank and meta
    decode = json.JSONDecoder().decode  # json.loads without its per-call argument handling
    n = 0  # records read
    base = 0  # file lines before the current block
    top = [-2**63] * 3  # the largest user, win and lose id read
    limit = None  # (record, rule) of the first record past a corpus limit
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size // _MIN_RECORD_BYTES + 1
        ids = [np.empty(size, dtype) for dtype in _DTYPES]  # user, win and lose of each record
        for raw in _line_blocks(fh):
            ends = _line_ends(raw)
            starts = np.concatenate(([0], ends[:-1] + 1))
            lines, values = _writer_lines(raw, starts, ends)
            rest = np.ones(ends.size, bool)  # lines for the JSON decoder
            rest[lines] = False
            rest = np.flatnonzero(rest)
            first_writer = lines[0] if lines.size else ends.size
            found: list[tuple] = []  # block line and ids of each record decoded here
            for i, start, stop in zip(rest.tolist(), starts[rest].tolist(), ends[rest].tolist()):
                lineno = base + i + 1
                try:
                    line = raw[start:stop].decode().strip()
                except UnicodeDecodeError:
                    raise CorpusError(f"{path}:{lineno}: line is not valid UTF-8") from None
                if not line:
                    skipped.append(lineno)
                    continue
                try:
                    obj = decode(line)
                    # a meta line counts only before the first record
                    if (meta is None and '"meta"' in line and not n and not found
                            and i < first_writer and "meta" in obj):
                        meta = obj["meta"]
                        meta_line = lineno
                        skipped.append(lineno)
                        rule = _meta_rule(meta)
                        if rule:
                            raise CorpusError(f"{path}:{lineno}: {rule}")
                        continue
                    user, win, lose = obj["user"], obj["win"], obj["lose"]
                except json.JSONDecodeError as exc:
                    raise CorpusError(
                        f"{path}:{lineno}: invalid JSON: {exc.msg} (column {exc.colno})") from None
                except KeyError as exc:
                    raise CorpusError(
                        f"{path}:{lineno}: record has no {exc.args[0]!r} field") from None
                except TypeError:
                    raise CorpusError(f"{path}:{lineno}: record is not a JSON object") from None
                # bool, float and str ids would otherwise convert silently below
                if not type(user) is type(win) is type(lose) is int:
                    raise CorpusError(f"{path}:{lineno}: user, win and lose must be JSON integers")
                if not (user in _INT64 and win in _INT64 and lose in _INT64):
                    raise CorpusError(f"{path}:{lineno}: user, win and lose must fit in 64 bits")
                found.append((i, user, win, lose))
            total = n + lines.size + len(found)
            if total > ids[0].size:  # a pipe has no size, and a file may grow while read
                ids = [np.concatenate((column[:n], np.empty(total, column.dtype)))
                       for column in ids]
            # the block's records in line order, bulk-parsed and decoded
            decoded = np.array(found, np.int64).reshape(-1, 4).T
            order = np.argsort(np.concatenate((lines, decoded[0])))
            values = np.concatenate((values, decoded[1:]), 1)
            limit = limit or _store(ids, n, values[:, order], top)
            n = total
            base += ends.size
    if not n:
        raise ValueError(f"no comparison records in {path}")

    def broken_record(record: int, rule: str) -> CorpusError:
        line = record + 1  # the record's file line: step past the skipped lines up to it
        for s in skipped:
            if s > line:
                break
            line += 1
        return CorpusError(f"{path}:{line}: {rule}")

    if limit:
        raise broken_record(*limit)
    for column in ids:
        # the buffers are never viewed, so each shrinks to its n records in
        # place (realloc), with no copy of them beside it
        column.resize(n, refcheck=False)
    user, winner, loser = ids
    if meta is not None:
        Q = meta["Q"]
        M = meta["M"]
        N = meta.get("N")
    else:
        Q = max(top[1:])
        M = top[0] + 1
        N = None
    try:
        corpus = ComparisonCorpus(Q, M, user, winner, loser, N=N)
    except RecordError as exc:
        raise broken_record(exc.record, exc.rule) from None
    if meta is not None and M > top[0] + 1:
        raise CorpusError(f"{path}:{meta_line}: meta M={M} but the largest user id is {top[0]}")
    if N is not None:
        # n records cannot give N each to users 0..n // N, so one of them is short
        bound = min(M, n // N + 1)
        counts = np.zeros(bound, dtype=np.int64)
        for lo in range(0, n, _WRITE_CHUNK):  # no int64 copy of the users
            ids = user[lo:lo + _WRITE_CHUNK]
            np.add.at(counts, ids[ids < bound], 1)
        off = np.flatnonzero(counts != N)
        if off.size:
            raise CorpusError(f"{path}:{meta_line}: meta N={N} but user {off[0]} has "
                              f"{counts[off[0]]} records")
    return corpus


def _store(ids: list[np.ndarray], start: int, values: np.ndarray, top: list[int]):
    """Store the (3, m) int64 ``values`` of the records start..start+m-1 in
    the narrow user, win and lose buffers ``ids``, and raise ``top`` to
    each column's largest id.  Returns (record, rule) of the first of these
    records with an id past a corpus limit, or None.

    An id below its buffer's type is stored as the type's least value: it
    breaks the same rule of ``ComparisonCorpus`` either way, since user ids
    must not be negative and item ids must be positive."""
    m = values.shape[1]
    if not m:
        return None
    past = []
    for j, (column, value) in enumerate(zip(ids, values)):
        top[j] = max(top[j], int(value.max()))
        over = value > _LARGEST[j]
        if over.any():
            past.append((start + int(np.argmax(over)), _LIMITS[j]))
        bounds = np.iinfo(column.dtype)
        column[start:start + m] = np.clip(value, bounds.min, bounds.max)
    return min(past, default=None)


def _line_blocks(fh):
    """The bytes of the binary file ``fh`` in blocks of whole lines, each
    ending in a line end (see ``_line_ends``)."""
    carry = b""
    while chunk := fh.read(_READ_BLOCK):
        # a carriage return that ends the chunk may be half of a "\r\n"
        cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, len(chunk) - 1)) + 1
        if cut:
            yield carry + chunk[:cut]
            carry = chunk[cut:]
        else:
            carry += chunk
    if carry:
        yield carry + b"\n"


def _line_ends(raw: bytes) -> np.ndarray:
    """The index of the byte that ends each line of ``raw``: a newline, or a
    carriage return not followed by one.  In UTF-8 these bytes are always
    those characters."""
    b = np.frombuffer(raw, np.uint8)
    end = b == ord("\n")
    if b"\r" in raw:
        lone = b == ord("\r")
        lone[:-1] &= ~end[1:]
        end |= lone
    return np.flatnonzero(end)


_MAX_DIGITS = 18  # every id of at most 18 digits fits in int64
_INT64 = range(-2**63, 2**63)


def _writer_lines(raw: bytes, starts: np.ndarray, ends: np.ndarray):
    """The lines of ``raw`` in ``_RECORD``'s form whose ids are JSON
    integers of at most 18 digits: their indices and their (3, m) ids.

    ``raw`` holds the bytes of whole lines; line i starts at ``starts[i]``
    and ends with the line end at ``ends[i]``.  A line is in the form when it
    has exactly three runs of digits, each starting where the template's
    text before it ends, and the template's bytes around them.  A negative
    id breaks the form: no valid corpus holds one, and the JSON decoder
    reads it as well.
    """
    padded = raw + bytes(_MAX_DIGITS)  # room to read each part and digit step past the end
    b = np.frombuffer(padded, np.uint8)
    digit = (b[:len(raw)] - ord("0")) <= 9
    # the last byte, a line end, ends every run
    bounds = np.flatnonzero(np.diff(digit, prepend=False))
    first, last = bounds[0::2], bounds[1::2]  # run r is b[first[r]:last[r]]
    upto = np.searchsorted(first, ends)  # runs that start before each line's newline
    lines = np.flatnonzero(np.diff(upto, prepend=0) == 3)
    ids = np.zeros((3, lines.size), np.int64)
    ok = np.ones(lines.size, bool)
    at = starts[lines]  # where the template's next part starts
    for j, part in enumerate(_TEMPLATE):
        text = np.ndarray(buffer=padded, dtype=f"S{len(part)}", shape=(len(raw),), strides=(1,))
        ok &= text[at] == part
        if j == 3 or not ok.any():  # the last part, "}\n", ends the line; or no line is left
            break
        at = at + len(part)
        run = upto[lines] - 3 + j
        s, e = first[run], last[run]
        size = e - s
        # no leading zero, and at most 18 digits so that the value fits
        ok &= (at == s) & (size <= _MAX_DIGITS) & ((b[s] != ord("0")) | (size == 1))
        for k in range(min(int(size.max(initial=0)), _MAX_DIGITS)):  # one step per digit
            ids[j] = np.where(k < size, ids[j] * 10 + (b[s + k] - ord("0")), ids[j])
        at = e
    return lines[ok], ids[:, ok]


def _meta_rule(meta) -> str | None:
    """The rule a corpus meta value breaks, or None."""
    if not isinstance(meta, dict):
        return "meta is not a JSON object"
    for key in ("Q", "M"):
        if key not in meta:
            return f"meta has no {key!r}"
    for key in ("Q", "M", "N"):
        value = meta.get(key)
        if type(value) is not int and not (key == "N" and value is None):
            return f"meta {key} must be a JSON integer"
    if meta.get("N") is not None and meta["N"] < 1:
        return "meta N must be at least 1"
    return limit_rule(meta["Q"], meta["M"])


def _prior_to_json(prior) -> dict | None:
    if prior is None:  # an estimated model carries no weight prior
        return None
    if isinstance(prior, DirichletPrior):
        return {"type": "dirichlet", "alpha0": prior.alpha0}
    if isinstance(prior, VertexPrior):
        return {"type": "vertex", "probs": list(prior.probs)}
    if isinstance(prior, FixedWeights):
        return {"type": "fixed", "weights": list(prior.weights)}
    raise ValueError(f"unknown prior type {type(prior).__name__}")


def _prior_from_json(obj):
    def entries(key: str) -> tuple[float, ...]:
        return tuple(_json_number(x, f"prior {key} entry")
                     for x in _json_list(_field(obj, key, "prior"), f"prior {key}"))

    t = _field(obj, "type", "prior")
    if t == "dirichlet":
        return DirichletPrior(_json_number(_field(obj, "alpha0", "prior"), "prior alpha0"))
    if t == "vertex":
        return VertexPrior(entries("probs"))
    if t == "fixed":
        return FixedWeights(entries("weights"))
    raise ValueError(f"unknown prior type {t!r}")


def _field(obj, key: str, what: str):
    """``obj[key]`` if ``obj`` is a JSON object with that field, else a
    ValueError naming ``what``."""
    if type(obj) is not dict:
        raise ValueError(f"{what} is not a JSON object")
    if key not in obj:
        raise ValueError(f"{what} has no {key!r} field")
    return obj[key]


def _json_list(value, what: str) -> list:
    """``value`` if it is a JSON list, else a ValueError naming ``what``."""
    if type(value) is not list:
        raise ValueError(f"{what} is not a JSON list")
    return value


def _json_integer(value, field: str) -> int:
    """``value`` if it is a JSON integer, else a ValueError naming ``field``."""
    if type(value) is not int:  # bool, float and str would otherwise convert
        raise ValueError(f"{field} must be a JSON integer, got {value!r}")
    return value


def _json_number(value, field: str) -> float:
    """``value`` as a float if it is a JSON number, else a ValueError naming ``field``."""
    if type(value) not in (int, float):
        raise ValueError(f"{field} must be a JSON number, got {value!r}")
    return float(value)


def model_to_dict(model: MixedMembershipModel, seed: int | None = None) -> dict:
    out = {
        "Q": model.Q,
        "K": model.K,
        "components": [
            {"ranking": list(c.reference.ranking), "phi": c.dispersion}
            for c in model.components
        ],
        "prior": _prior_to_json(model.prior),
        "seed": seed,
    }
    if model.pair_probs is not None:
        uI, uJ = pairs.unordered_arrays(model.Q)
        out["pair_dist"] = [[int(i), int(j), float(p)] for i, j, p in zip(uI, uJ, model.pair_probs)]
    return out


def model_from_dict(obj: dict) -> MixedMembershipModel:
    """The model of a model file's JSON object, whose values are checked,
    not converted: the model, its components and its prior must be JSON
    objects with their fields, lists JSON lists, Q, K and ranking entries
    JSON integers, and dispersions and probabilities JSON numbers."""
    Q = _json_integer(_field(obj, "Q", "model"), "Q")
    comps = []
    for k, c in enumerate(_json_list(_field(obj, "components", "model"), "components")):
        what = f"component {k}"
        ranking = [_json_integer(x, f"{what} ranking entry")
                   for x in _json_list(_field(c, "ranking", what), f"{what} ranking")]
        ref = Permutation.from_ranking(ranking)
        if len(ref) != Q:
            raise ValueError("component ranking length disagrees with Q")
        comps.append(MallowsComponent(ref, _json_number(_field(c, "phi", what), f"{what} phi")))
    if "K" in obj and _json_integer(obj["K"], "K") != len(comps):
        raise ValueError("K disagrees with the number of components")
    # Estimated-model files carry no weight prior; such models can be
    # evaluated and used for prediction but not for generation.
    prior = _prior_from_json(obj["prior"]) if obj.get("prior") is not None else None
    pair_probs = None
    pair_dist = obj.get("pair_dist")
    if pair_dist is not None and _json_list(pair_dist, "pair_dist"):
        pair_probs = np.zeros(pairs.num_unordered(Q))
        named = np.zeros(pair_probs.size, dtype=bool)
        unordered = pairs.unordered_index(Q)
        for entry in pair_dist:
            if type(entry) is not list or len(entry) != 3:
                raise ValueError(f"pair_dist entry {entry!r} must be [i, j, p]")
            i, j, p = entry
            if not (type(i) is int and type(j) is int and 1 <= i <= Q and 1 <= j <= Q
                    and i != j):
                raise ValueError(f"pair_dist entry {entry} must name two distinct items in 1..{Q}")
            p = _json_number(p, "pair_dist probability")
            u = unordered[pairs.pair_row(i, j, Q)]
            if named[u]:
                raise ValueError(f"pair_dist entry {entry} repeats the pair "
                                 f"({min(i, j)}, {max(i, j)})")
            named[u] = True
            pair_probs[u] = p
    return MixedMembershipModel(comps, prior, pair_probs)


def read_model(path: str) -> MixedMembershipModel:
    """Read a model file; a file that is not JSON or breaks a model rule
    fails with ``{path}: {rule}``."""
    with open(path) as fh:
        try:
            return model_from_dict(json.load(fh))
        except ValueError as exc:  # json.JSONDecodeError is one
            raise ValueError(f"{path}: {exc}") from None
