"""Report rendering: a single evaluation (write_ipd_report) and the
cross-validation matrix (write_report), each as json, markdown or csv.

JSON reports sort their keys and carry the provenance the caller passes.
The markdown and csv forms are the same table, a header and one row of
cell texts per image or training domain, written by one helper. In
markdown an id's `|` is escaped and its line breaks become spaces, so
each row keeps its columns; json and csv keep ids exactly.
"""

from __future__ import annotations

import csv
import io
import json
import re
from typing import Mapping, Sequence

from .errors import InputValidationError
from .metric import IpdResult, cross_validation


def _pair_label(pair: tuple[str, str]) -> str:
    return f"‖{pair[0]} − {pair[1]}‖"


def _markdown_cell(text: str) -> str:
    """A cell text that keeps its table row whole: each line break (CRLF,
    CR or LF) a space, and `|` escaped, the backslashes just before it doubled."""
    text = re.sub(r"\r\n?|\n", " ", text)
    return re.sub(r"(\\*)\|", lambda m: m[1] * 2 + "\\|", text)


def _table(fmt: str, header: list[str], rows: list[list[str]]) -> str:
    """A header and rows of cell texts as a markdown table or as csv."""
    if fmt == "markdown":
        lines = [header, ["---"] * len(header), *rows]
        return "".join("| " + " | ".join(map(_markdown_cell, line)) + " |\n" for line in lines)
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *rows])
        return buf.getvalue()
    raise InputValidationError(f"unknown report format {fmt!r}")


def _json(doc: dict, provenance: Mapping | None) -> str:
    return json.dumps({**doc, "provenance": dict(provenance or {})}, indent=2, sort_keys=True)


def ipd_result_to_dict(result: IpdResult) -> dict:
    return {
        "ipd": result.ipd,
        "instance_count": result.instance_count,
        "unmatched_real_total": result.unmatched_real_total,
        "unmatched_synth_total": result.unmatched_synth_total,
        "per_image_breakdown": [
            {"image_id": i, "ipd_contribution": v, "pair_count": c}
            for i, v, c in result.per_image_breakdown
        ],
    }


def write_report(
    domains: Sequence[str],
    results: Mapping | Sequence,
    fmt: str = "markdown",
    provenance: Mapping | None = None,
) -> str:
    """Render the cross-validation matrix that cross_validation builds
    from these domains and results.

    markdown/csv show the matrix itself (markdown bolds each row's
    minimum); json additionally embeds the detailed per-cell results and
    any provenance the caller supplies, with stable key order.
    """
    matrix = cross_validation(domains, results)
    pairs = [cell.eval_pair for cell in matrix[0]]
    if fmt == "json":
        cells = []
        for row in matrix:
            for cell in row:
                entry: dict = {
                    "train": cell.train_domain,
                    "pair": list(cell.eval_pair),
                    "ipd": cell.ipd,
                }
                if cell.result is not None:
                    entry["detail"] = ipd_result_to_dict(cell.result)
                cells.append(entry)
        doc = {"domains": list(domains), "columns": [list(p) for p in pairs], "cells": cells}
        return _json(doc, provenance)

    rows = []
    for row in matrix:
        row_min = min(c.ipd for c in row if c.ipd is not None)
        if fmt == "csv":
            cells = ["" if c.ipd is None else repr(c.ipd) for c in row]
        else:
            cells = [
                "-" if c.ipd is None else f"**{c.ipd:.4f}**" if c.ipd == row_min else f"{c.ipd:.4f}"
                for c in row
            ]
        rows.append([row[0].train_domain, *cells])
    return _table(fmt, ["Train\\Eval", *map(_pair_label, pairs)], rows)


def write_ipd_report(
    result: IpdResult,
    fmt: str = "json",
    provenance: Mapping | None = None,
) -> str:
    """Render a single dataset-pair evaluation."""
    if fmt == "json":
        return _json({"result": ipd_result_to_dict(result)}, provenance)
    if fmt == "markdown":
        header = ["image", "ipd contribution", "pairs"]
        rows = [[i, f"{v:.4f}", str(c)] for i, v, c in result.per_image_breakdown]
        rows.append(["**all**", f"**{result.ipd:.4f}**", str(result.instance_count)])
    else:
        header = ["image", "ipd_contribution", "pair_count"]
        rows = [[i, repr(v), str(c)] for i, v, c in result.per_image_breakdown]
        rows.append(["all", repr(result.ipd), str(result.instance_count)])
    return _table(fmt, header, rows)
