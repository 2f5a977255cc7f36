"""JSON formats for states and channels.

Dense state form:
    { "d": d, "n": n, "matrix": { "re": [[..]], "im": [[..]] } }   (row-major)
Sparse characteristic form:
    { "d": d, "n": n, "char": [ { "p": [..], "q": [..], "re": r, "im": i }, .. ] }
Channel files mirror the state format on the Choi matrix with
"kind": "choi" and "n_doubled" = 2n.  Readers accept either form.
"""

from __future__ import annotations

import json

import numpy as np

from .channels import Channel, channel_from_choi
from .config import DEFAULT, Tolerances, ensure_table_size
from .errors import IncompatibleError
from .mean_magic import read_thresholds
from .phase_space import check_prime
from .states import State, char_function, make_state, state_from_char


def _matrix_to_json(mat: np.ndarray) -> dict:
    return {"re": mat.real.tolist(), "im": mat.imag.tolist()}


def _matrix_from_json(obj: dict) -> np.ndarray:
    return np.array(obj["re"], dtype=float) + 1j * np.array(obj["im"], dtype=float)


def _char_entries(state: State, tol: Tolerances) -> list:
    """One entry per point of the support that ``read_thresholds`` reads, in C order."""
    table = char_function(state)
    support = read_thresholds(table, tol).support
    n = state.n
    return [{"p": x[:n].tolist(), "q": x[n:].tolist(), "re": float(v.real), "im": float(v.imag)}
            for x, v in zip(np.argwhere(support), table[support])]


def state_to_json(state: State, form: str = "dense", tol: Tolerances = DEFAULT) -> dict:
    if form == "dense":
        return {"d": state.d, "n": state.n, "matrix": _matrix_to_json(state.mat)}
    if form == "char":
        return {"d": state.d, "n": state.n, "char": _char_entries(state, tol)}
    raise IncompatibleError(f"unknown state form {form!r}")


def state_from_json(obj: dict) -> State:
    """The State of a file in either form; n and char labels are checked before allocating."""
    d, n = int(obj["d"]), int(obj["n"])
    if n < 1:
        raise IncompatibleError(f"a state file needs n >= 1 qudits, got n = {n}")
    if "matrix" in obj:
        return make_state(_matrix_from_json(obj["matrix"]), d, n)
    if "char" in obj:
        check_prime(d)
        ensure_table_size(d, n)
        xi = np.zeros((d,) * (2 * n), dtype=complex)
        for entry in obj["char"]:
            p, q = entry["p"], entry["q"]
            if not isinstance(p, list) or not isinstance(q, list):
                raise IncompatibleError(f"char label p={p!r}, q={q!r} is not two lists")
            if len(p) != n or len(q) != n:
                raise IncompatibleError(f"char label p={p}, q={q} needs n = {n} coordinates each")
            xi[tuple(int(v) % d for v in p + q)] = entry["re"] + 1j * entry["im"]
        return state_from_char(xi)
    raise IncompatibleError("state JSON needs a 'matrix' or 'char' field")


def write_state(state: State, path: str, form: str = "dense", tol: Tolerances = DEFAULT) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json(state, form, tol), fh, sort_keys=True)
        fh.write("\n")


def read_state(path: str) -> State:
    with open(path) as fh:
        return state_from_json(json.load(fh))


def channel_to_json(channel: Channel, form: str = "dense", tol: Tolerances = DEFAULT) -> dict:
    obj = state_to_json(channel.choi, form, tol)
    return {
        "kind": "choi",
        "d": channel.d,
        "n": channel.n,
        "n_doubled": 2 * channel.n,
        **{k: v for k, v in obj.items() if k not in ("d", "n")},
    }


def channel_from_json(obj: dict) -> Channel:
    if obj.get("kind") != "choi":
        raise IncompatibleError("channel JSON needs kind = 'choi'")
    d, n = int(obj["d"]), int(obj["n"])
    body = {"d": d, "n": int(obj.get("n_doubled", 2 * n))}
    for key in ("matrix", "char"):
        if key in obj:
            body[key] = obj[key]
    choi = state_from_json(body)
    return channel_from_choi(choi)


def write_channel(channel: Channel, path: str, form: str = "dense",
                  tol: Tolerances = DEFAULT) -> None:
    with open(path, "w") as fh:
        json.dump(channel_to_json(channel, form, tol), fh, sort_keys=True)
        fh.write("\n")


def read_channel(path: str) -> Channel:
    with open(path) as fh:
        return channel_from_json(json.load(fh))
