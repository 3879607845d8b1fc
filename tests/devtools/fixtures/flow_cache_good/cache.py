"""The same key with ``sorted()`` cutting the ORDER taint."""


class ResultCache:
    def __init__(self) -> None:
        self.entries: dict = {}

    def put(self, tenant: str, digest: str, value: object) -> None:
        self.entries[(tenant, digest)] = value


def remember(cache: ResultCache, monitors: set, value: object) -> None:
    key = "|".join(sorted(monitors))
    cache.put("acme", key, value)
