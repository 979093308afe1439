"""Error types shared across the package."""


class FieldFormatError(ValueError):
    """Malformed or inconsistent field data (bad shapes, non-finite entries,
    grids that are not nested, structure violations)."""


class NotAccelerantError(ValueError):
    """The kernel test rejected the input: some truncated convolution
    operator I + H_alpha is numerically singular."""

    def __init__(self, alpha: float, margin: float):
        self.alpha = alpha
        self.margin = margin
        super().__init__(
            f"not an accelerant: I + H_alpha singular near alpha = {alpha:.6g} "
            f"(relative margin {margin:.3e})"
        )


class SingularSystemError(ValueError):
    """A restricted linear system in a layer-stripping solve was singular."""

    def __init__(self, alpha: float, detail: str = ""):
        self.alpha = alpha
        msg = f"singular restricted system at x = {alpha:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
