"""Write expected.json: the outputs every benchmark request must reproduce.

Run from the repository root at a commit whose outputs are known good:

    python3 bench/make_expected.py

It records the SHA-256 digest of every `kschur` and `rect` document the
workloads can request, the `lr` and `core` requests of the session pool
with their exact outputs, and the check names of the verify report.
"""

from __future__ import annotations

import contextlib
import io
import json

import workloads as wl
from check import EXPECTED_FILE, digest
from run import git_sha, load_library


def capture(cli, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {code}")
    return out.getvalue()


def side_requests(k: int, mu: tuple[int, ...], cores, nilcoxeter) -> list[tuple[str, ...]]:
    """core and lr requests on one pool partition: its core, the way back,
    its word, each generator on its core, and lr coefficients of
    s_(1) s_mu on every partition of the k-Pieri rule and one outside it."""
    parts = ",".join(map(str, mu))
    core = ",".join(map(str, cores.bounded_to_core(mu, k)))
    base = ("core", "--k", str(k), "--format", "json")
    requests = [base + ("to-core", parts), base + ("to-bounded", core), base + ("word", parts)]
    requests += [base + ("act", f"u{i}", core) for i in range(k + 1)]
    members = nilcoxeter.pieri_partitions(k, mu, 1)
    outsider = next(nu for nu in wl.partitions(sum(mu) + 1, k) if nu not in members)
    for nu in members + [outsider]:
        requests.append(("lr", "--k", str(k), "--lambda", "1", "--mu", parts,
                         "--nu", ",".join(map(str, nu))))
    return requests


def main() -> None:
    cli = load_library()
    from kschur import cores, nilcoxeter

    digests, outputs, side = {}, {}, {}
    for k, lam in wl.pool():
        request = wl.kschur_request(k, lam)
        digests[request.cmdline] = digest(capture(cli, request.argv + ("--no-cache",)))
        side[wl.pool_key(k, lam)] = requests = side_requests(k, lam, cores, nilcoxeter)
        for argv in requests:
            outputs[" ".join(argv)] = capture(cli, argv)
    for request in wl.rect_space():
        digests[request.cmdline] = digest(capture(cli, request.argv))
    report = json.loads(capture(cli, wl.VERIFY_ARGV))
    expected = {
        "commit": git_sha(),
        "digests": digests,
        "outputs": outputs,
        "side_requests": side,
        "verify_names": [check["name"] for check in report["checks"]],
    }
    EXPECTED_FILE.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
