"""Seeded client traffic shared by the serving workloads.

A :class:`Mix` turns a workload seed into a request stream: a pool of
returning benign clients interleaved with a bot flood in which every bot
arrives from an address never seen before.  Benign clients solve their
puzzle; bots send a solution that misses the difficulty target.  The
stream carries logical timestamps, so admission decisions depend on the
seed alone, never on the wall clock.

Every address lies in ``127.0.0.0/8`` so the gateway workload can bind
each connection to its client's own source address over loopback.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random

from repro.core.records import ClientRequest
from repro.pow.difficulty import meets_difficulty
from repro.pow.hashers import get_hasher
from repro.pow.puzzle import Puzzle, Solution, nonce_bytes
from repro.pow.solver import HashSolver
from repro.reputation.dataset import generate_corpus

RESOURCE = "/index.html"
#: Logical seconds between consecutive requests of a stream.
REQUEST_GAP = 0.002
#: Logical seconds a client spends between puzzle and solution.
SOLVE_GAP = 0.02
#: Seed of the returning benign population.  The population is fixed,
#: like a service's customer base; the workload seed draws who visits
#: when and the bot flood.  A per-seed population would make the mean
#: puzzle cost -- heavy-tailed in difficulty -- differ by ~15% between
#: seeds, which the closed-loop gateway workload would report as spread.
POPULATION_SEED = 7

_SOLVER = HashSolver()


def benign_ip(index: int) -> str:
    """Address of returning client ``index`` (``127.255.0.0/16``)."""
    return f"127.255.{1 + index // 250}.{1 + index % 250}"


def bot_ip(index: int) -> str:
    """Fresh address of bot ``index``; never a benign or server address."""
    return (
        f"127.{1 + (index // 62_500) % 250}."
        f"{1 + (index // 250) % 250}.{1 + index % 250}"
    )


@dataclasses.dataclass(frozen=True)
class Arrival:
    """One request of the stream and whether its sender is a bot."""

    request: ClientRequest
    malicious: bool


class Mix:
    """Deterministic request stream for one workload seed.

    Parameters
    ----------
    seed:
        Workload seed; the same seed gives the same stream.  It draws
        the visit order, the bots' features and the bot share's coin
        flips; the benign pool comes from :data:`POPULATION_SEED`.
    bot_share:
        Probability that the next request comes from a fresh bot.
    pool_size:
        Number of returning benign clients.
    """

    def __init__(self, seed: int, bot_share: float, pool_size: int) -> None:
        benign = generate_corpus(
            size=2 * pool_size + 1000, seed=POPULATION_SEED
        ).benign
        malicious = generate_corpus(size=2000, seed=seed).malicious
        self._rng = random.Random(seed)
        self._bot_share = bot_share
        self._pool = [
            (benign_ip(i), dict(benign[i % len(benign)].features))
            for i in range(pool_size)
        ]
        self._bot_features = [dict(e.features) for e in malicious]
        self._count = 0
        self._bots = 0

    def _arrival(self, ip: str, features: dict, malicious: bool) -> Arrival:
        request = ClientRequest(
            client_ip=ip,
            resource=RESOURCE,
            timestamp=self._count * REQUEST_GAP,
            features=features,
        )
        self._count += 1
        return Arrival(request, malicious)

    def warmup(self) -> list[Arrival]:
        """One request from every returning client, in pool order."""
        return [self._arrival(ip, f, False) for ip, f in self._pool]

    def take(self, count: int) -> list[Arrival]:
        """The next ``count`` arrivals of the stream."""
        rng = self._rng
        out = []
        for _ in range(count):
            if rng.random() < self._bot_share:
                features = self._bot_features[
                    rng.randrange(len(self._bot_features))
                ]
                out.append(self._arrival(bot_ip(self._bots), features, True))
                self._bots += 1
            else:
                ip, features = self._pool[rng.randrange(len(self._pool))]
                out.append(self._arrival(ip, features, False))
        return out


def honest_solution(puzzle: Puzzle, client_ip: str) -> Solution:
    """A benign client's solution: a real nonce grind."""
    return _SOLVER.solve(puzzle, client_ip)


def bogus_solution(puzzle: Puzzle, client_ip: str) -> Solution:
    """A bot's solution: the first nonce whose digest misses the target.

    Raises ``ValueError`` for a zero-difficulty puzzle, where every
    nonce meets the target and no invalid solution exists.
    """
    if puzzle.difficulty == 0:
        raise ValueError("a zero-difficulty puzzle has no invalid nonce")
    hasher = get_hasher(puzzle.algorithm)
    prefix = puzzle.prefix(client_ip)
    nonce = 0
    while meets_difficulty(
        hasher(prefix + nonce_bytes(nonce, 32)), puzzle.difficulty
    ):
        nonce += 1
    return Solution(puzzle_seed=puzzle.seed, nonce=nonce, attempts=1)


def solution_for(arrival: Arrival, puzzle: Puzzle) -> Solution:
    ip = arrival.request.client_ip
    if arrival.malicious:
        return bogus_solution(puzzle, ip)
    return honest_solution(puzzle, ip)


def expected_status(arrival: Arrival) -> str:
    """The verdict a correct pipeline gives this arrival."""
    return "rejected" if arrival.malicious else "served"


def decision_digest(decisions) -> str:
    """Digest of per-request ``(score, difficulty)`` pairs, in order."""
    digest = hashlib.sha256()
    for score, difficulty in decisions:
        digest.update(f"{float(score)!r},{int(difficulty)};".encode())
    return digest.hexdigest()[:16]
