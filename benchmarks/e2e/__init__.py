"""End-to-end BMC verdict benchmark (see README.md in this directory)."""
