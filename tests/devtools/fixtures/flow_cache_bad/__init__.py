"""Golden-bad fixture: set-iteration order in a result-cache key."""
