"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Measures live on different ambient spaces."""


class SizeLimitError(ValueError):
    """Transport instance exceeds the exact-LP atom budget."""


class CoverageError(KeyError):
    """A relaxed kernel does not cover every atom of its base measure."""


class ConfigurationError(ValueError):
    """A coefficient set lacks an evaluator required by the operation."""


class DivergenceError(RuntimeError):
    """A particle state became non-finite; carries the offending step."""

    def __init__(self, step: int, time: float):
        self.step = step
        self.time = time
        super().__init__(f"non-finite state at step {step} (t={time:.6g})")

    def __reduce__(self):  # rebuild from the fields, so it survives a worker pool
        return type(self), (self.step, self.time)


class IllPosedError(RuntimeError):
    """A Riccati positivity constraint failed; carries the first bad time."""

    def __init__(self, time: float, constraint: str):
        self.time = time
        self.constraint = constraint
        super().__init__(f"{constraint} violated at t={time:.6g}")

    def __reduce__(self):
        return type(self), (self.time, self.constraint)


class DomainError(ValueError):
    """Hypothesis of a closed-form lemma violated (e.g. a<=0)."""
