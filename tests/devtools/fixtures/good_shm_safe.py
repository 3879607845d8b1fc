"""Golden good fixture: the model crosses to workers pickled in its tasks."""

from repro.runtime.parallel import parallel_map
from repro.runtime.pool import ModelParcel


def deployed_count(task):
    parcel, deployed = task
    return len(deployed)


def run(model, deployments):
    parcel = ModelParcel(model)
    return parallel_map(deployed_count, [(parcel, d) for d in deployments])
