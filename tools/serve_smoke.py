#!/usr/bin/env python3
"""End-to-end smoke test for the `fpga_route serve` daemon.

Boots the real binary, routes a benchmark circuit over the Unix socket,
drives checkpoint / ECO / restore requests, and checks the differential
contract through the canonical routing digests the protocol exposes:
after an ECO round-trip back to the original netlist, the digest must
equal the initial route's, from every vantage point (the eco response,
a stats call on a second connection, and a from-scratch re-route).  The
second connection also sends a 1 MiB frame of '[' (newline included),
which the JSON nesting cap must answer with an error within 0.25 s,
leaving the connection able to answer stats.

Usage: serve_smoke.py BINARY CIRCUIT_FILE [WIDTH]
Exits non-zero (with a message) on any violation.
"""

import json
import os
import socket
import subprocess
import sys
import tempfile
import time


# The daemon's request-line cap (lib/serve/server.ml's [max_line]).
MAX_LINE = 1 << 20


def die(msg):
    print(f"serve_smoke: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


class Client:
    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(path)
        self.buf = b""

    def exchange(self, line):
        """Send one raw request line; return the reply, whatever it says."""
        self.sock.sendall(line + b"\n")
        while b"\n" not in self.buf:
            chunk = self.sock.recv(65536)
            if not chunk:
                die("connection closed mid-response")
            self.buf += chunk
        reply, self.buf = self.buf.split(b"\n", 1)
        return json.loads(reply)

    def request(self, obj):
        resp = self.exchange(json.dumps(obj).encode())
        if not resp.get("ok"):
            die(f"request {obj.get('cmd')} failed: {resp.get('error')}")
        return resp

    def close(self):
        self.sock.close()


def main():
    if len(sys.argv) < 3:
        die("usage: serve_smoke.py BINARY CIRCUIT_FILE [WIDTH]")
    binary, circuit_file = sys.argv[1], sys.argv[2]
    width = int(sys.argv[3]) if len(sys.argv) > 3 else 14
    circuit = open(circuit_file).read()
    sock_path = os.path.join(tempfile.mkdtemp(), "fr_serve_smoke.sock")

    daemon = subprocess.Popen([binary, "serve", "--socket", sock_path])
    try:
        for _ in range(200):
            if os.path.exists(sock_path):
                break
            if daemon.poll() is not None:
                die(f"daemon exited early with {daemon.returncode}")
            time.sleep(0.05)
        else:
            die("daemon never created its socket")

        c = Client(sock_path)
        routed = c.request(
            {"cmd": "route", "circuit": circuit, "width": width, "domains": 2}
        )
        if routed.get("status") != "routed":
            die(f"initial route not routed: {routed}")
        d0 = routed["digest"]
        nets_total = routed["nets_total"]

        cp = c.request({"cmd": "checkpoint"})["id"]

        # Edit: remove the last net in the file (lowest scheduling impact),
        # then restore the checkpoint — an ECO back to the original netlist.
        last_net = [l for l in circuit.splitlines() if l.startswith("net ")][-1]
        name = last_net.split()[1]
        eco = c.request(
            {"cmd": "eco", "deltas": [{"op": "remove", "name": name}]}
        )
        if eco["nets_total"] != nets_total - 1:
            die(f"eco net accounting wrong: {eco['nets_total']}")
        if eco["nets_ripped"] >= nets_total:
            die("eco ripped every net: the incremental path never engaged")
        restored = c.request({"cmd": "checkpoint", "restore": cp})
        if restored["digest"] != d0:
            die("restore digest differs from the initial route")

        # A second connection sees the same session and the same digest.
        c2 = Client(sock_path)
        stats = c2.request({"cmd": "stats"})
        if stats.get("digest") != d0:
            die("stats digest differs across connections")

        # A 1 MiB frame of '[', newline included, inside the line cap: the
        # JSON depth cap must reject it at once, and the connection must
        # keep serving.
        t0 = time.monotonic()
        deep = c2.exchange(b"[" * (MAX_LINE - 1))
        elapsed = time.monotonic() - t0
        if deep.get("ok") is not False or not deep.get("error", "").startswith("bad JSON"):
            die(f"deeply nested line not rejected as bad JSON: {deep}")
        if elapsed > 0.25:
            die(f"deeply nested line took {elapsed:.2f} s to reject (limit 0.25 s)")
        if c2.request({"cmd": "stats"}).get("digest") != d0:
            die("stats after the deeply nested line lost the session")
        c2.close()

        # A from-scratch re-route of the same circuit must agree too.
        rerouted = c.request(
            {"cmd": "route", "circuit": circuit, "width": width, "domains": 2}
        )
        if rerouted["digest"] != d0:
            die("from-scratch re-route digest differs (ECO was inexact)")

        c.request({"cmd": "shutdown"})
        c.close()
        if daemon.wait(timeout=30) != 0:
            die(f"daemon exited with {daemon.returncode}")
        if os.path.exists(sock_path):
            die("daemon left its socket file behind")
    finally:
        if daemon.poll() is None:
            daemon.kill()

    print(f"serve_smoke: OK (digest {d0}, {nets_total} nets at W={width})")


if __name__ == "__main__":
    main()
