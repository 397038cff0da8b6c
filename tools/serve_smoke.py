#!/usr/bin/env python3
"""End-to-end smoke test for the `fpga_route serve` daemon.

Boots the real binary, routes a benchmark circuit over the Unix socket,
drives checkpoint / ECO / restore requests, and checks the differential
contract through the canonical routing digests the protocol exposes:
after an ECO round-trip back to the original netlist, the digest must
equal the initial route's, from every vantage point (the eco response,
a stats call on a second connection, and a from-scratch re-route).

It also checks:
- a driver swap on the highest-fanout net (the first sink becomes the
  source) keeps every tree under the default IKMB, so it re-solves one
  batch at most (8 nets), on a copy of the batch's start state, and keeps
  the digest without writing to the session's graph (`stats.mutations`
  and `stats.rollbacks` both 0), and so does its undo;
- an eco that names a pin slot the routing graph lacks (slot 2) gets an
  error reply and leaves the session usable: a rotation of the last
  two-pin net still answers with the session digest;
- a route request asking for more domains than the cap (64), for a pass
  cap below 1 (`"max_passes":0` or `-5`), or for a pass cap beside
  `"mode":"negotiated"` (which stops on its own iteration limits), gets
  an error reply, and the session survives it;
- a route whose circuit does not fit (header `circuit x 0 3`,
  `"width":0`, or `"width":100000`, whose routing graph is over the
  architecture's cap) gets an error reply that is not an internal error,
  and the session survives it;
- on a second connection, a 1 MiB frame of '[' (newline included), which
  the JSON nesting cap must answer with an error within 0.25 s, leaving
  the connection able to answer stats;
- a negotiated session (2 domains) keeps nothing between requests: the
  hub net's driver swap and its undo each negotiate every net
  (`nets_ripped` = `nets_total`, `nets_reused` = 0) and keep the session's
  first digest, and a fresh negotiated route of the swapped netlist gives
  that digest too;
- with a peer connected that sends nothing, the daemon exits 0 within
  1 s of its `bye` and removes its socket file.

The socket lives in a temporary directory that is removed on exit.

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

# A waves batch holds at most this many nets (lib/fpga/router.ml's
# [par_batch]).
PAR_BATCH = 8


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

    def retime(self, name, pins):
        """Retime net `name` to `pins`, source first; return the raw reply."""
        return self.exchange(
            json.dumps(
                {
                    "cmd": "eco",
                    "deltas": [
                        {"op": "retime", "name": name, "source": pins[0], "sinks": pins[1:]}
                    ],
                }
            ).encode()
        )

    def close(self):
        self.sock.close()


def main():
    if len(sys.argv) < 3:
        die("usage: serve_smoke.py BINARY CIRCUIT_FILE [WIDTH]")
    binary, circuit_file = sys.argv[1], sys.argv[2]
    width = int(sys.argv[3]) if len(sys.argv) > 3 else 14
    circuit = open(circuit_file).read()
    with tempfile.TemporaryDirectory() as sock_dir:
        d0, nets_total = smoke(binary, circuit, width, os.path.join(sock_dir, "fr_serve_smoke.sock"))
    print(f"serve_smoke: OK (digest {d0}, {nets_total} nets at W={width})")


def smoke(binary, circuit, width, sock_path):
    """Run every check against a daemon on `sock_path`; return the first
    route's digest and net count."""
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

        # A driver swap on the highest-fanout net, and its undo: the swap
        # keeps the net's pins and, under IKMB, its tree, so the re-route
        # solves the net's batch on a copy, finds the stored landing, and
        # keeps the session's graph as it stands: no write, no rollback.
        nets = [l.split()[1:] for l in circuit.splitlines() if l.startswith("net ")]
        hub, *hub_pins = max(nets, key=len)
        for what, pins in (("rotation", hub_pins[1:] + hub_pins[:1]), ("undo", hub_pins)):
            resp = c.retime(hub, pins)
            if not resp.get("ok"):
                die(f"{what} of {hub} failed: {resp.get('error')}")
            if resp["nets_ripped"] > PAR_BATCH:
                die(f"{what} of {hub} ripped {resp['nets_ripped']} nets, more than one batch")
            if resp["digest"] != d0:
                die(f"{what} of {hub} changed the digest")
            writes = (resp["stats"]["mutations"], resp["stats"]["rollbacks"])
            if writes != (0, 0):
                die(f"{what} of {hub} wrote the graph: (mutations, rollbacks) = {writes}")

        # A pin slot the routing graph lacks is rejected before anything is
        # touched, so the next valid edit still routes and keeps the digest.
        row, col, side, _ = hub_pins[0].split(",")
        bad = c.retime(hub, [f"{row},{col},{side},2"] + hub_pins[1:])
        if bad.get("ok") is not False:
            die(f"a slot-2 pin on {hub} was not rejected: {bad}")
        pair, *pair_pins = [n for n in nets if len(n) == 3][-1]
        after = c.retime(pair, pair_pins[::-1])
        if not after.get("ok") or after.get("digest") != d0:
            die(f"rotation of {pair} after the rejected edit: {after}")
        if c.retime(pair, pair_pins).get("digest") != d0:
            die(f"undoing the rotation of {pair} changed the digest")

        # More domains than the cap is an error reply, not a spawn.  Never
        # send this line to a daemon built without the cap.
        greedy = c.exchange(
            json.dumps(
                {"cmd": "route", "circuit": circuit, "width": width, "domains": 100000}
            ).encode()
        )
        if greedy.get("ok") is not False:
            die(f"a route asking for 100000 domains was not rejected: {greedy}")
        if c.request({"cmd": "stats"}).get("digest") != d0:
            die("the session did not survive the rejected route")

        # A pass cap below 1 is an error reply, not a one-pass route; so is
        # any pass cap beside negotiated mode, which would ignore it.
        for what, mode, passes in (
            ("max_passes 0", "waves", 0),
            ("max_passes -5", "waves", -5),
            ("max_passes 1 in negotiated mode", "negotiated", 1),
        ):
            capped = c.exchange(
                json.dumps(
                    {
                        "cmd": "route",
                        "circuit": circuit,
                        "width": width,
                        "mode": mode,
                        "max_passes": passes,
                    }
                ).encode()
            )
            if capped.get("ok") is not False:
                die(f"a route with {what} was not rejected: {capped}")
            if c.request({"cmd": "stats"}).get("digest") != d0:
                die(f"the session did not survive the route with {what}")

        # A circuit that does not fit is an error reply in the router's or
        # the architecture's own words, not a crash reported as an internal
        # error, and the session survives it.  Never send the width-100000
        # line to a daemon built without the routing-graph cap: it would
        # preallocate 3 x 138 M edge slots (3.3 GB) for term1.
        for what, text, w in (
            ("an empty array", "circuit x 0 3\n", width),
            ("width 0", circuit, 0),
            ("width 100000", circuit, 100000),
        ):
            unfit = c.exchange(
                json.dumps({"cmd": "route", "circuit": text, "width": w}).encode()
            )
            if unfit.get("ok") is not False:
                die(f"a route with {what} was not rejected: {unfit}")
            if unfit.get("error", "internal error").startswith("internal error"):
                die(f"a route with {what} got an internal error: {unfit.get('error')}")
            if c.request({"cmd": "stats"}).get("digest") != d0:
                die(f"the session did not survive the route with {what}")

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

        # Negotiated mode keeps nothing between requests: the driver swap on
        # the hub net and its undo each negotiate every net from the session
        # base.  The swap keeps IKMB's tree, so both keep the digest, and a
        # fresh negotiated route of the swapped netlist agrees.
        negotiated = {"cmd": "route", "width": width, "mode": "negotiated", "domains": 2}
        neg = c.request(dict(negotiated, circuit=circuit))
        if neg.get("status") != "routed":
            die(f"negotiated route not routed: {neg}")
        dn = neg["digest"]
        swapped = hub_pins[1:] + hub_pins[:1]
        for what, pins in (("swap", swapped), ("undo", hub_pins)):
            resp = c.retime(hub, pins)
            if not resp.get("ok") or resp.get("status") != "routed":
                die(f"negotiated {what} of {hub} failed: {resp}")
            if resp["nets_ripped"] != resp["nets_total"] or resp["nets_reused"] != 0:
                die(
                    f"negotiated {what} of {hub} reused nets: ripped {resp['nets_ripped']}"
                    f" of {resp['nets_total']}, reused {resp['nets_reused']}"
                )
            if resp["digest"] != dn:
                die(f"negotiated {what} of {hub} changed the digest")
        swapped_circuit = "".join(
            f"net {hub} {' '.join(swapped)}\n"
            if l.startswith("net ") and l.split()[1] == hub
            else l + "\n"
            for l in circuit.splitlines()
        )
        fresh = c.request(dict(negotiated, circuit=swapped_circuit))
        if fresh.get("digest") != dn:
            die("a fresh negotiated route of the swapped netlist differs from the ECOs")

        # A peer that connects and sends nothing must not hold the exit.
        # Connections are accepted in order, so once the next one has its
        # bye, the idle one has been accepted too.
        c.close()
        idle = Client(sock_path)
        last = Client(sock_path)
        last.request({"cmd": "shutdown"})
        try:
            code = daemon.wait(timeout=1)
        except subprocess.TimeoutExpired:
            die("daemon still running 1 s after its bye, with an idle peer connected")
        idle.close()
        last.close()
        if code != 0:
            die(f"daemon exited with {code}")
        if os.path.exists(sock_path):
            die("daemon left its socket file behind")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
    return d0, nets_total


if __name__ == "__main__":
    main()
