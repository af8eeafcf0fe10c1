"""Set-up that a user of latrank pays on every run.

`import latrank` with its CLI module, construction of the two fields the
workloads use, and the degree-one prime above 53.  Run as a script, it does
the set-up once in a fresh interpreter and prints the seconds it took; the
benchmark runs it several times and reports the median as `setup_s`.
"""

import time


def setup() -> dict:
    import latrank
    import latrank.cli  # noqa: F401  (the hecke_moments workload drives the CLI)

    Q = latrank.rationals()
    return {
        "lr": latrank,
        "Q": Q,
        "Qi": latrank.make_field([1, 0, 1]),
        "P53": Q.prime_above(53),
    }


if __name__ == "__main__":
    t0 = time.perf_counter()
    setup()
    print(repr(time.perf_counter() - t0))
