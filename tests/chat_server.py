"""A loopback OpenAI-style chat-completions server for `HttpProvider` and for
live runs: a `ThreadingHTTPServer` on 127.0.0.1 at a free port.

Its reply is a pure function of the request (`reply`, of the decoded
payload), and it injects faults by 1-based call number (`faults`):

- an int: that status, with a JSON body;
- bytes: a 200 response with that body;
- "stall": no answer until `release` is set;
- "close": the connection is closed before the status line;
- "truncate": a reply whose body stops short of its Content-Length;
- a (status, location) pair: a redirect to that location.

A GET is answered as a POST would be, and recorded with no payload, so that a
client that follows a redirect with a GET is seen.
"""

from __future__ import annotations

import json
import socketserver
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

PATH = "/v1/chat/completions"


class ChatHandler(BaseHTTPRequestHandler):
    server: ChatServer

    def do_POST(self):
        server = self.server
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        payload = json.loads(body) if body else None
        with server.lock:
            server.seen.append((self.path, dict(self.headers), payload))
            fault = server.faults.get(len(server.seen))
            release = server.release
        if fault == "stall":
            release.wait()
        elif fault == "close":
            self.close_connection = True  # and nothing is sent
        elif isinstance(fault, tuple):
            self.send_response(fault[0])
            self.send_header("Location", fault[1])
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif isinstance(fault, int):
            self._send(fault, b'{"error": {"message": "injected"}}')
        elif isinstance(fault, bytes):
            self._send(200, fault)
        else:
            message = {"role": "assistant", "content": server.reply(payload)}
            body = json.dumps({"choices": [{"message": message}], "usage": {"prompt_tokens": 11, "completion_tokens": 3}}).encode()
            self._send(200, body[:-5] if fault == "truncate" else body, len(body))

    do_GET = do_POST

    def _send(self, status: int, body: bytes, length: int | None = None):
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body) if length is None else length))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


class ChatServer(ThreadingHTTPServer):
    # Handler threads are joined at `server_close`, so none outlives the server.
    daemon_threads = False

    def __init__(self):
        super().__init__(("127.0.0.1", 0), ChatHandler)
        self.base_url = f"http://127.0.0.1:{self.server_port}/v1"
        self.lock = threading.Lock()
        self.release = threading.Event()
        self.reset()

    def reset(self, reply=lambda payload: "hello", faults=None):
        """Answer with `reply(payload)`, but for the calls `faults` names, and
        forget the calls seen; a stalled handler is released."""
        with self.lock:
            self.reply = reply
            self.faults = faults or {}
            self.seen: list[tuple[str, dict, dict | None]] = []  # each call's path, headers and payload
            self.release.set()
            self.release = threading.Event()

    def server_bind(self):
        # HTTPServer's looks up the host's name (socket.getfqdn), which nothing here reads.
        socketserver.TCPServer.server_bind(self)
        self.server_name, self.server_port = self.server_address[:2]

    def handle_error(self, request, client_address):
        pass  # a client that timed out and left is no failure of the server

    def __enter__(self):
        threading.Thread(target=self.serve_forever, args=(0.05,), name="chat-server").start()
        return self

    def __exit__(self, *exc_info):
        self.release.set()
        self.shutdown()
        self.server_close()
