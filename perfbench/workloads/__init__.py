"""One module per benchmark workload."""
