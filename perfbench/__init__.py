"""Fresh-subject benchmark for the UNIQ reproduction (see README.md)."""
