"""Benchmark child: the read API side of the system under test.

Usage::

    python3 sut_server.py STORE [--trace SPANS.jsonl]

Serves ``repro.server.create_server(open_store(STORE),
ServeOptions(port=0))`` on a free loopback port, prints ``ready PORT``,
and shuts down when stdin says ``quit`` or closes.  With ``--trace`` the
read-path layers are wrapped before the server is built (see
``spans.py``); requests carrying an ``X-Bench-Request`` header are
recorded under that trace id.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path

from spans import Tracer, install_server


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("store")
    parser.add_argument("--trace", type=Path)
    args = parser.parse_args()

    tracer = Tracer()
    if args.trace is not None:
        install_server(tracer)

    from repro.dataset.store import open_store
    from repro.server import ServeOptions, create_server

    server = create_server(open_store(args.store), ServeOptions(port=0))
    thread = threading.Thread(target=server.serve_forever, name="serve")
    thread.start()
    try:
        print(f"ready {server.server_address[1]}", flush=True)
        for line in sys.stdin:
            if line.strip() == "quit":
                break
    finally:
        server.shutdown()
        thread.join()
        server.server_close()
        if args.trace is not None:
            tracer.dump(args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
