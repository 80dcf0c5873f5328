"""Plain-text rendering of evaluation results (the paper's table style)."""


def _fmt_time(seconds):
    if seconds is None:
        return "-"
    return "{:.2f}".format(seconds)


def _fmt_int(value):
    return "-" if value is None else str(value)


def _fmt_verdict(cols):
    verdict = cols.get("verdict")
    if verdict is True:
        return "eq"
    if verdict is False:
        return "NEQ"
    return "abort"


def render_table1(results):
    """Monospace rendering of Table-1 results (same columns as the paper)."""
    header = (
        "{:<8} {:>9} | {:>9} {:>9} {:>5} {:>6} | {:>9} {:>9} {:>10} {:>6} | {:>5}"
    ).format(
        "circuit", "regs o/s",
        "trav t(s)", "nodes", "#its", "res",
        "prop t(s)", "nodes", "#its(rt)", "res",
        "eqs%",
    )
    lines = [header, "-" * len(header)]
    for result in results:
        row = result.as_dict()
        trav = row["traversal"]
        prop = row["proposed"]
        its_rt = "-"
        if prop.get("its") is not None:
            its_rt = "{} ({})".format(prop["its"], prop.get("retimes", 0))
        lines.append(
            "{:<8} {:>9} | {:>9} {:>9} {:>5} {:>6} | {:>9} {:>9} {:>10} {:>6} | {:>5}".format(
                row["circuit"],
                row["regs"],
                _fmt_time(trav.get("time")) if trav else "-",
                _fmt_int(trav.get("nodes")) if trav else "-",
                _fmt_int(trav.get("its")) if trav else "-",
                _fmt_verdict(trav) if trav else "-",
                _fmt_time(prop.get("time")),
                _fmt_int(prop.get("nodes")),
                its_rt,
                _fmt_verdict(prop),
                "-" if row["eqs"] is None else "{:.0f}".format(row["eqs"]),
            )
        )
    return "\n".join(lines)
