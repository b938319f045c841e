"""Exception types shared across the package."""


class SpinmuxError(Exception):
    """Base class for all package-specific errors."""


class DegeneratePoint(SpinmuxError):
    """A field was requested on (or within 1 nm of) a wire filament centerline."""


class NoSolution(SpinmuxError):
    """A calibration target cannot be met anywhere in the search domain."""


class ZeroDetuning(SpinmuxError):
    """An off-resonant bound was requested at exactly zero detuning."""


class Diverged(SpinmuxError):
    """The descent loop could not find an acceptable step.

    Carries the best pulse/trace seen so far so callers can still persist
    partial results.
    """

    def __init__(self, message, pulse=None, trace=None):
        super().__init__(message)
        self.pulse = pulse
        self.trace = trace


class ParseError(SpinmuxError):
    """A pulse or config file is syntactically malformed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(SpinmuxError):
    """A loaded document violates an invariant; names the offending field."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class UsageError(SpinmuxError):
    """Bad command-line arguments (maps to exit code 1)."""
