"""Golden-good fixture: the result-cache key canonicalized first."""
