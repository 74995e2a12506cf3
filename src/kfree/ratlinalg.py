"""Empty on purpose: Weingarten values come from S_k characters, and the exact
solver that lived here is the test oracle in `tests/ratlinalg_oracles.py`.  The
benchmark still imports this module; its next benchmark-only change deletes it."""
