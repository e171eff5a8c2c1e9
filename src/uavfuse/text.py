"""The text of every value in ``resolved_config.txt``, ``report_NNN.txt``,
``evaluation.txt`` and ``roc_*.csv``, and of their ``key = value`` lines."""


def format_value(value) -> str:
    """true or false for a bool, 9 significant digits for a float, the items
    joined by commas for a list or tuple, and ``str`` for anything else."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.9g}"
    if isinstance(value, (list, tuple)):
        return ",".join(map(format_value, value))
    return str(value)


def key_value_lines(values: dict) -> str:
    """One ``key = value`` line per entry, in the dict's order."""
    return "".join(f"{key} = {format_value(value)}\n" for key, value in values.items())
