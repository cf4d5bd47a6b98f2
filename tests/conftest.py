"""Test-session set-up.

pyproject.toml puts ``src`` on this process's import path; the same
directory is exported in PYTHONPATH so that the child processes some tests
start (``python -m manisqp.cli``) import this checkout's package too.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
