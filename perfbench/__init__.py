"""The repository benchmark: see run.py, and design.json for its design."""
