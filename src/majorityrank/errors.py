"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed or inconsistent user input, the root of every exit-2 error; ``ranking`` names any ranking at fault."""

    def __init__(self, message: str, ranking: str | None = None) -> None:
        super().__init__(message)
        self.ranking = ranking


class DegenerateRankingError(InputError):
    """A correlation is undefined because a ranking ties all alternatives."""


class NumericalError(RuntimeError):
    """A numerical routine failed to produce a result within its budget."""


class SingletonLeagueError(InputError):
    """A transition matrix was requested for a one-member league.

    The transition model divides by ``m - 1``; a singleton league has no
    games to play and its only member trivially receives probability 1.
    Callers that iterate over leagues handle this case directly.
    """


class SizeLimitError(InputError):
    """An exact combinatorial computation would exceed its instance-size cap."""
