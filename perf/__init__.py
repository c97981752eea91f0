"""The repo's performance ledger: workloads, tracing and comparison (see README.md)."""
