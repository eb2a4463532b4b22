"""Serve one fault dictionary over HTTP until told to stop.

The serving workloads run the service in its own interpreter, as a
deployment would:

    python serve_child.py --dictionary DICT.json --db RESULTS.sqlite \\
        [--trace]

It binds an ephemeral localhost port, prints ``ready <port>`` and
serves until a ``stop`` line (or end of file) arrives on stdin.  It
then shuts the server down and prints one JSON line holding the spans
it recorded (empty unless ``--trace``).
"""

import argparse
import json
import sys
import threading

from repro.diagnosis import DiagnosisDB, DictionaryRegistry
from repro.diagnosis.server import serve

import spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dictionary", required=True)
    parser.add_argument("--db", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = spans.Tracer()
    registry = DictionaryRegistry()
    registry.register("bench", source=args.dictionary)
    with tracer.installed(spans.SERVER_SITES if args.trace else ()), \
            DiagnosisDB(args.db) as db:
        server = serve(registry=registry, db=db, port=0)
        thread = threading.Thread(target=server.serve_forever)
        thread.start()
        print(f"ready {server.server_address[1]}", flush=True)
        try:
            for line in sys.stdin:
                if line.strip() == "stop":
                    break
        finally:
            server.shutdown()
            thread.join()
            server.server_close()
    print(json.dumps({"spans": tracer.dump()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
